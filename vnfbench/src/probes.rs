//! Layer probes for the traced run: each times calls into one layer on
//! fixed inputs and checks the layer's output against a value computed
//! apart from the program (published test vectors, or what the probe
//! itself put in).

use crate::checks::{self, hex};
use crate::common::{self, Metric};
use crate::util::{median, sample_us, timed};
use crate::wrappers::{TimedBackend, TimedVerifier};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;
use vnfguard::attest::BackendKind;
use vnfguard::controller::api::build_router;
use vnfguard::controller::state::ControllerState;
use vnfguard::controller::{FlowSpec, SimClock};
use vnfguard::core::attestation::host_evidence;
use vnfguard::core::backend::snp_vnf_measurement;
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::crypto::drbg::HmacDrbg;
use vnfguard::crypto::ed25519::{SigningKey, VerifyingKey};
use vnfguard::crypto::gcm::AesGcm;
use vnfguard::crypto::sha2::sha256;
use vnfguard::crypto::x25519::x25519;
use vnfguard::dataplane::{FlowAction, FlowMatch};
use vnfguard::encoding::Json;
use vnfguard::net::fabric::Network;
use vnfguard::net::http::{Request, Response, Status};
use vnfguard::net::rest::Router;
use vnfguard::net::server::{serve, HttpClient, PlainUpgrade};
use vnfguard::pki::ca::IssueProfile;
use vnfguard::pki::{
    CertificateAuthority, DistinguishedName, KeyUsage, RevocationReason, TrustStore, Validity,
};
use vnfguard::telemetry::Telemetry;
use vnfguard::tls::validate::ClientValidator;
use vnfguard::tls::{client_handshake, server_handshake, ClientConfig, LocalSigner, ServerConfig};
use vnfguard::vnf::credential_enclave::provisioning_report_data;

/// Time spent on each timing loop.
const BUDGET: Duration = Duration::from_millis(150);
const NOW: u64 = 1_600_000_000;

/// RFC 8032 §7.1, TEST 1 (empty message).
const ED25519_SK: &str = "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60";
const ED25519_PK: &str = "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a";
const ED25519_SIG: &str = "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b";
/// RFC 7748 §5.2, first vector.
const X25519_SCALAR: &str = "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4";
const X25519_U: &str = "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c";
const X25519_OUT: &str = "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552";
/// FIPS 180-4 example: SHA-256("abc").
const SHA256_ABC: &str = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
/// NIST GCM test case 2: zero key, zero IV, one zero block.
const GCM_TC2: &str = "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf";

pub struct Probes {
    values: Vec<Metric>,
    pub errors: Vec<String>,
}

impl Probes {
    /// Run every probe. `crl_entries` sizes the CRL the validation and
    /// install probes use; `table_size` the controller's flow table.
    pub fn run(seed: u64, crl_entries: usize, table_size: usize) -> Probes {
        let mut p = Probes {
            values: Vec::new(),
            errors: Vec::new(),
        };
        p.crypto();
        p.pki(seed, crl_entries.max(1));
        p.tls(seed);
        p.net();
        p.controller(table_size);
        p.workflows(seed);
        p
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|m| m.1)
            .unwrap_or_else(|| panic!("no probe value {name}"))
    }

    /// Every probe metric except the WAL append time, which a workload
    /// that appends reports from its own run.
    pub fn metrics(&self) -> Vec<Metric> {
        self.values
            .iter()
            .filter(|m| m.0 != "store.wal_append_us")
            .copied()
            .collect()
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.push((name, value, unit));
    }

    fn check(&mut self, result: checks::Check) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    fn crypto(&mut self) {
        let sk = SigningKey::from_seed(&hex(ED25519_SK).try_into().expect("32 bytes"));
        let sig = sk.sign(b"");
        self.check(checks::vector(
            "ed25519 public key",
            sk.public_key().as_bytes(),
            &hex(ED25519_PK),
        ));
        self.check(checks::vector("ed25519 sign", &sig, &hex(ED25519_SIG)));
        let pk = VerifyingKey::from_bytes(&hex(ED25519_PK).try_into().expect("32 bytes"));
        let verified = pk.verify(b"", &hex(ED25519_SIG)).is_ok();
        let forged = pk.verify(b"x", &hex(ED25519_SIG)).is_ok();
        if !verified || forged {
            self.errors
                .push("ed25519 verify disagrees with RFC 8032 test 1".into());
        }
        let sign = sample_us(BUDGET, 20, || {
            std::hint::black_box(sk.sign(std::hint::black_box(b"")));
        });
        let verify = sample_us(BUDGET, 20, || {
            let _ = std::hint::black_box(pk.verify(b"", &sig));
        });
        self.put("crypto.ed25519_sign_us", median(&sign), "us");
        self.put("crypto.ed25519_verify_us", median(&verify), "us");

        let scalar: [u8; 32] = hex(X25519_SCALAR).try_into().expect("32 bytes");
        let u: [u8; 32] = hex(X25519_U).try_into().expect("32 bytes");
        self.check(checks::vector(
            "x25519",
            &x25519(&scalar, &u),
            &hex(X25519_OUT),
        ));
        let dh = sample_us(BUDGET, 20, || {
            std::hint::black_box(x25519(std::hint::black_box(&scalar), &u));
        });
        self.put("crypto.x25519_us", median(&dh), "us");

        self.check(checks::vector("sha256", &sha256(b"abc"), &hex(SHA256_ABC)));
        let mib = vec![0x5au8; 1 << 20];
        let hash = sample_us(BUDGET, 3, || {
            std::hint::black_box(sha256(std::hint::black_box(&mib)));
        });
        self.put("crypto.sha256_mib_ms", median(&hash) / 1e3, "ms");

        let gcm = AesGcm::new(&[0u8; 16]);
        self.check(checks::vector(
            "aes-gcm",
            &gcm.seal(&[0u8; 12], b"", &[0u8; 16]),
            &hex(GCM_TC2),
        ));
        let kib4 = vec![0xa5u8; 4096];
        let seal = sample_us(BUDGET, 10, || {
            std::hint::black_box(gcm.seal(&[1u8; 12], b"", std::hint::black_box(&kib4)));
        });
        self.put("crypto.aes_gcm_seal_kib_us", median(&seal) / 4.0, "us");
    }

    fn pki(&mut self, seed: u64, crl_entries: usize) {
        let mut rng = HmacDrbg::new(format!("vnfbench pki {seed}").as_bytes());
        let name = DistinguishedName::new("vnfbench ca");
        let mut ca = CertificateAuthority::new(name, Validity::new(0, u64::MAX / 2), &mut rng);
        let client_key = SigningKey::from_seed(&[3u8; 32]);
        let profile = IssueProfile::vnf_client([9u8; 32]);
        let mut leaves = Vec::new();
        let issue = sample_us(BUDGET, 20, || {
            leaves.push(ca.issue(
                DistinguishedName::new("probe-vnf"),
                client_key.public_key(),
                &profile,
                NOW,
            ));
        });
        self.put("pki.issue_us", median(&issue), "us");
        // Serials count up from 2 (1 is the root) and every leaf carries
        // the subject and key it was asked for.
        let wrong = leaves.iter().enumerate().find(|(i, c)| {
            c.serial() != *i as u64 + 2
                || c.subject_cn() != "probe-vnf"
                || c.tbs.public_key.as_bytes() != client_key.public_key().as_bytes()
                || c.verify_signature(&ca.public_key()).is_err()
        });
        if let Some((i, _)) = wrong {
            self.errors
                .push(format!("pki issue: leaf {i} differs from what was asked"));
        }
        for leaf in leaves.iter().take(crl_entries) {
            ca.revoke(leaf.serial(), RevocationReason::KeyCompromise, NOW);
        }
        let crl = ca.issue_crl(NOW, 3600);
        let mut store = TrustStore::new();
        store
            .add_anchor(ca.certificate().clone())
            .expect("root is an anchor");
        let install = sample_us(BUDGET, 5, || {
            store.install_crl(crl.clone()).expect("fresh CRL installs");
        });
        self.put("pki.install_crl_us", median(&install), "us");
        self.put("pki.crl_entries", crl.len() as f64, "count");
        if crl.len() != crl_entries {
            self.errors.push(format!(
                "pki CRL lists {} of {crl_entries} revocations",
                crl.len()
            ));
        }
        let live = leaves.last().expect("leaves issued");
        let revoked = &leaves[0];
        let validate = sample_us(BUDGET, 20, || {
            let _ = std::hint::black_box(store.validate(live, NOW, KeyUsage::CLIENT_AUTH));
        });
        self.put("pki.validate_us", median(&validate), "us");
        if leaves.len() <= crl_entries {
            self.errors
                .push("pki probe issued too few leaves to keep one live".into());
        } else if store.validate(live, NOW, KeyUsage::CLIENT_AUTH).is_err()
            || store.validate(revoked, NOW, KeyUsage::CLIENT_AUTH).is_ok()
        {
            self.errors
                .push("pki validate: live leaf refused or revoked leaf accepted".into());
        }
    }

    fn tls(&mut self, seed: u64) {
        const HANDSHAKES: usize = 16;
        let mut rng = HmacDrbg::new(format!("vnfbench tls {seed}").as_bytes());
        let mut ca = CertificateAuthority::new(
            DistinguishedName::new("tls ca"),
            Validity::new(0, u64::MAX / 2),
            &mut rng,
        );
        let server_key = SigningKey::from_seed(&[4u8; 32]);
        let client_key = SigningKey::from_seed(&[5u8; 32]);
        let server_cert = ca.issue(
            DistinguishedName::new("probe-server"),
            server_key.public_key(),
            &IssueProfile::server(),
            NOW,
        );
        let client_cert = ca.issue(
            DistinguishedName::new("probe-client"),
            client_key.public_key(),
            &IssueProfile::vnf_client([1; 32]),
            NOW,
        );
        let trust = || {
            let mut store = TrustStore::new();
            store
                .add_anchor(ca.certificate().clone())
                .expect("root is an anchor");
            store
        };
        let telemetry = Telemetry::new();
        let server_config =
            ServerConfig::new(Arc::new(LocalSigner::new(server_key, server_cert)), NOW)
                .require_client_auth(ClientValidator::ca(trust()))
                .with_telemetry(&telemetry);
        let client_config = ClientConfig::new(Arc::new(trust()), NOW)
            .with_identity(Arc::new(LocalSigner::new(client_key, client_cert.clone())))
            .expecting_server("probe-server")
            .with_telemetry(&telemetry);
        let network = Network::new();
        let listener = network
            .listen("tls-probe:443")
            .expect("probe address is free");
        let server = std::thread::spawn(move || {
            let mut rng = HmacDrbg::new(b"tls probe server");
            (0..HANDSHAKES)
                .map(|_| {
                    let stream = listener.accept().map_err(|e| e.to_string())?;
                    let (_, info) = server_handshake(stream, &server_config, &mut rng)
                        .map_err(|e| e.to_string())?;
                    Ok(info)
                })
                .collect::<Result<Vec<_>, String>>()
        });
        let mut client_infos = Vec::new();
        for _ in 0..HANDSHAKES {
            let stream = network
                .connect("tls-probe:443")
                .expect("probe server listens");
            match client_handshake(stream, &client_config, &mut rng) {
                Ok((_, info)) => client_infos.push(info),
                Err(e) => self.errors.push(format!("tls client handshake: {e}")),
            }
        }
        match server.join().expect("tls probe server thread") {
            Ok(server_infos) => {
                let agree = server_infos.iter().zip(&client_infos).all(|(s, c)| {
                    s.session_binding == c.session_binding
                        && s.peer_certificate.as_ref().map(|p| p.fingerprint())
                            == Some(client_cert.fingerprint())
                });
                if !agree || server_infos.len() != client_infos.len() {
                    self.errors
                        .push("tls: peers disagree on the session or the client identity".into());
                }
            }
            Err(e) => self.errors.push(format!("tls server handshake: {e}")),
        }
        let hist_mean = |name: &str| {
            telemetry
                .metrics()
                .histogram_snapshot(name)
                .map_or(0.0, |h| h.sum() as f64 / h.count().max(1) as f64)
        };
        self.put(
            "tls.client_handshake_us",
            hist_mean("vnfguard_tls_client_handshake_micros"),
            "us",
        );
        self.put(
            "tls.server_handshake_us",
            hist_mean("vnfguard_tls_server_handshake_micros"),
            "us",
        );
        self.put(
            "tls.handshakes",
            common::counter(&telemetry, "vnfguard_tls_handshakes_total") as f64,
            "count",
        );
    }

    fn net(&mut self) {
        let network = Network::new();
        let mut router = Router::new();
        router.get("/noop", |_, _| Response::text(Status::Ok, "ok"));
        let server = serve(
            network
                .listen("net-probe:80")
                .expect("probe address is free"),
            PlainUpgrade,
            router,
        );
        let mut client = HttpClient::new(
            network
                .connect("net-probe:80")
                .expect("probe server listens"),
        );
        let mut bad = 0;
        let mut roundtrip = |client: &mut HttpClient<_>| {
            let (response, ms) = timed(|| client.request(&Request::get("/noop")));
            match response {
                Ok(r) if r.status == Status::Ok && r.body == b"ok" => {}
                _ => bad += 1,
            }
            ms * 1e3
        };
        let keepalive: Vec<f64> = (0..400).map(|_| roundtrip(&mut client)).collect();
        let fresh: Vec<f64> = (0..100)
            .map(|_| {
                let (conn, connect_ms) = timed(|| {
                    network
                        .connect("net-probe:80")
                        .expect("probe server listens")
                });
                let mut c = HttpClient::new(conn);
                connect_ms * 1e3 + roundtrip(&mut c)
            })
            .collect();
        drop(client);
        server.stop();
        if bad > 0 {
            self.errors.push(format!(
                "net: {bad} probe requests did not return the route's body"
            ));
        }
        let rt = median(&keepalive);
        self.put("net.http_roundtrip_us", rt, "us");
        self.put("net.connect_us", median(&fresh) - rt, "us");
    }

    fn controller(&mut self, table_size: usize) {
        let state = Arc::new(RwLock::new(ControllerState::new()));
        state.write().register_switch(0x0a, vec![1, 2, 3, 4]);
        let router = build_router(state.clone(), SimClock::at(NOW));
        let flow = |i: usize| {
            let mut matcher = FlowMatch::any();
            matcher.in_port = Some(1 + (i % 4) as u16);
            matcher.tp_dst = Some(1000 + i as u16);
            FlowSpec {
                name: format!("probe-{i:03}"),
                dpid: 0x0a,
                priority: 100 + i as u16,
                matcher,
                actions: vec![FlowAction::Output(2)],
            }
        };
        let push = |spec: &FlowSpec| {
            router.dispatch(&Request::post("/wm/staticflowpusher/json").with_json(&spec.to_json()))
        };
        for i in 0..table_size {
            push(&flow(i));
        }
        let probe = flow(table_size / 2);
        let pushes = sample_us(BUDGET, 50, || {
            std::hint::black_box(push(&probe));
        });
        let list = Request::get("/wm/staticflowpusher/list/000000000000000a/json");
        let lists = sample_us(BUDGET, 50, || {
            std::hint::black_box(router.dispatch(&list));
        });
        self.put("controller.push_dispatch_us", median(&pushes), "us");
        self.put("controller.list_dispatch_us", median(&lists), "us");
        // The pushed flow lists back field for field, in a table of the
        // expected size.
        let listed = router.dispatch(&list).parse_json().ok();
        let flows: Option<Vec<FlowSpec>> = listed.as_ref().and_then(Json::as_array).map(|a| {
            a.iter()
                .filter_map(|f| FlowSpec::from_json(f).ok())
                .collect()
        });
        match flows {
            Some(flows) if flows.len() == table_size && flows.contains(&probe) => {}
            _ => self
                .errors
                .push("controller: pushed flow does not list back".into()),
        }
    }

    /// The workflow layers on an in-process testbed with one SGX and one
    /// SEV-SNP host: quote, IAS verification (through the timing
    /// wrapper), SNP appraisal (through the timing wrapper), manager self
    /// time, WAL append and enclave delivery.
    fn workflows(&mut self, seed: u64) {
        const ROUNDS: usize = 12;
        let mut tb = TestbedBuilder::new(format!("vnfbench probes {seed}").as_bytes())
            .hosts(2)
            .host_backend(1, BackendKind::SevSnp)
            .durable()
            .group_commit(true)
            .build();
        let cn = tb.controller_cn.clone();
        let telemetry = tb.telemetry.clone();
        let mut snp = TimedBackend::new(tb.snp_verifier().expect("SNP host").clone());
        let sgx_guard = tb.deploy_guard(0, "probe-sgx", 1).expect("guard deploys");
        let snp_guard = tb.deploy_guard(1, "probe-snp", 1).expect("guard deploys");
        tb.attest_host(1).expect("SNP host attests");
        let (mut quote_ms, mut host_ms, mut enroll_ms, mut renew_us, mut crl_ms, mut provision_us) =
            (vec![], vec![], vec![], vec![], vec![], vec![]);
        let mut ias_ms = Vec::new();
        let mut wal = common::wal_appends(&telemetry);
        let mut wal_delta_us = || {
            let now = common::wal_appends(&telemetry);
            let d = (now.1 - wal.1) as f64;
            wal = now;
            d
        };
        for round in 0..ROUNDS {
            // Host attestation, SGX through the wrapped IAS.
            let host = &tb.hosts[0];
            let challenge = tb.vm.begin_host_attestation(&host.id);
            let iml = host.container_host.measurement_list().encode();
            let evidence = host_evidence(
                &host.platform,
                &host.integrity_enclave,
                &iml,
                &challenge.nonce,
                None,
            )
            .expect("host evidence");
            let (mut ias, ias_times) = TimedVerifier::new(&mut tb.ias);
            wal_delta_us();
            let (verdict, ms) = timed(|| {
                tb.vm
                    .complete_host_attestation(&mut ias, challenge.id, &evidence)
            });
            let ias_spent: f64 = ias_times.lock().iter().sum();
            host_ms.push(ms - ias_spent - wal_delta_us() / 1e3);
            ias_ms.extend(ias_times.lock().iter());
            if verdict.ok().map(|v| format!("{v:?}")).as_deref() != Some("Trusted") {
                self.errors
                    .push("probe host attestation not trusted".into());
                return;
            }

            // SGX enrollment: quote, wrapped IAS, manager, delivery.
            let challenge = tb
                .vm
                .begin_vnf_attestation("host-0", "probe-sgx")
                .expect("challenge");
            let pk = sgx_guard.provisioning_key().expect("provisioning key");
            let (quote, ms) =
                timed(|| sgx_guard.quote(&tb.hosts[0].platform, &challenge.nonce, challenge.nonce));
            quote_ms.push(ms);
            let quote = quote.expect("quote").encode();
            let (mut ias, ias_times) = TimedVerifier::new(&mut tb.ias);
            wal_delta_us();
            let (enrolled, ms) = timed(|| {
                tb.vm
                    .complete_vnf_enrollment(&mut ias, challenge.id, &quote, &pk, &cn)
            });
            let ias_spent: f64 = ias_times.lock().iter().sum();
            enroll_ms.push(ms - ias_spent - wal_delta_us() / 1e3);
            ias_ms.extend(ias_times.lock().iter());
            let (wrapped, cert) = enrolled.expect("probe enrollment");
            let (delivered, ms) = timed(|| sgx_guard.provision(&wrapped));
            provision_us.push(ms * 1e3);
            delivered.expect("probe delivery");
            let status = sgx_guard.status().expect("status");
            self.check(checks::enclave_holds(&status, "probe-sgx", cert.serial()));

            // SNP enrollment through the wrapped offline appraiser.
            let challenge = tb
                .vm
                .begin_vnf_attestation("host-1", "probe-snp")
                .expect("challenge");
            let pk_snp = snp_guard.provisioning_key().expect("provisioning key");
            let evidence = tb.hosts[1].snp.as_ref().expect("SNP platform").attest(
                snp_vnf_measurement("probe-snp"),
                provisioning_report_data(&pk_snp, &challenge.nonce),
            );
            let snp_cert = tb
                .vm
                .complete_vnf_enrollment_backend(&mut snp.0, challenge.id, &evidence, &pk_snp, &cn)
                .map(|(_, c)| c);
            if snp_cert.ok().map(|c| c.subject_cn() == "probe-snp") != Some(true) {
                self.errors
                    .push("probe SNP enrollment failed or misnamed".into());
            }

            // Renewal and CRL issuance.
            wal_delta_us();
            let (renewed, ms) = timed(|| tb.vm.renew_vnf_credential(cert.serial(), &pk, &cn));
            renew_us.push(ms * 1e3 - wal_delta_us());
            if renewed.ok().map(|(_, c)| c.serial() > cert.serial()) != Some(true) {
                self.errors.push("probe renewal failed".into());
            }
            if round % 3 == 0 {
                tb.vm
                    .revoke_credential(cert.serial(), RevocationReason::Superseded)
                    .expect("probe revocation");
            }
            wal_delta_us();
            let (crl, ms) = timed(|| tb.vm.issue_crl());
            crl_ms.push(ms - wal_delta_us() / 1e3);
            let listed = crl.ok().map(|c| c.lookup(cert.serial()).is_some());
            if listed != Some(round % 3 == 0) {
                self.errors.push("probe CRL misses a revocation".into());
            }
        }
        let appends = common::wal_appends(&telemetry);
        self.put("sgx.quote_ms", median(&quote_ms), "ms");
        self.put("vnf.provision_us", median(&provision_us), "us");
        self.put("ias.verify_quote_ms", median(&ias_ms), "ms");
        self.put("attest.snp_appraise_us", median(&snp.1.lock()) * 1e3, "us");
        self.put("core.enroll_complete_ms", median(&enroll_ms), "ms");
        self.put("core.host_attest_complete_ms", median(&host_ms), "ms");
        self.put("core.renew_us", median(&renew_us), "us");
        self.put("core.issue_crl_ms", median(&crl_ms), "ms");
        self.put(
            "store.wal_append_us",
            appends.1 as f64 / appends.0.max(1) as f64,
            "us",
        );
    }
}
