//! `onboard`: fleet onboarding over the operator REST API.
//!
//! Every Figure-1 box runs as its own fabric service: the IAS, one agent
//! per host, the Verification Manager's operator API and the controller.
//! host-0 is SGX, attested through the remote IAS; host-1 is SEV-SNP,
//! appraised offline. The manager is durable, has one shard and uses
//! group commit. One operator connection enrolls the VNF population,
//! alternating between hosts, and re-attests both hosts after every
//! `ENROLLS_PER_ROUND` enrollments. The process is pinned to one CPU.
//! Primary operation: a REST enrollment; secondary: a REST host
//! attestation.

use crate::checks;
use crate::common::{self, Config, Metric, Outcome, Phase, PhaseClock};
use crate::probes::Probes;
use crate::trace::tracer;
use crate::util::{mean, median, rounds_until, timed, Rng};
use crate::wrappers::{TimedVerifier, Timings};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vnfguard::attest::BackendKind;
use vnfguard::core::deployment::{Testbed, TestbedBuilder};
use vnfguard::core::remote::{serve_ias, serve_vm_api, HostAgent, HostAgentState, RemoteIas};
use vnfguard::encoding::Json;
use vnfguard::ias::{AttestationService, QuoteVerifier};
use vnfguard::net::http::Request;
use vnfguard::net::server::{HttpClient, ServerHandle};
use vnfguard::net::stream::Duplex;
use vnfguard::vnf::VnfGuard;

/// VNFs deployed per host; enrollments cycle through them.
const VNFS_PER_HOST: usize = 12;
/// Enrollments between two re-attestations of both hosts.
const ENROLLS_PER_ROUND: usize = 8;
const HOSTS: [&str; 2] = ["host-0", "host-1"];

struct World {
    operator: HttpClient<Duplex>,
    /// (host index, VNF name), alternating hosts.
    population: Vec<(usize, String)>,
    agents: Vec<HostAgent>,
    ias_timings: Timings,
    _vm_api: ServerHandle,
    _ias: ServerHandle,
    tb: Testbed,
}

fn build(seed: u64) -> World {
    let mut rng = Rng::new(seed, "onboard");
    let mut tb = TestbedBuilder::new(format!("vnfbench onboard {seed}").as_bytes())
        .hosts(2)
        .host_backend(1, BackendKind::SevSnp)
        .durable()
        .group_commit(true)
        .build();
    let tag = rng.below(1 << 16);
    let mut guards: Vec<HashMap<String, Arc<VnfGuard>>> = vec![HashMap::new(), HashMap::new()];
    let mut population = Vec::new();
    for i in 0..2 * VNFS_PER_HOST {
        let host = i % 2;
        let name = format!("vnf-{tag:04x}-{i:02}");
        let guard = tb.deploy_guard(host, &name, 1).expect("guard deploys");
        guards[host].insert(name.clone(), Arc::new(guard));
        population.push((host, name));
    }

    let network = tb.network.clone();
    let ias = std::mem::replace(&mut tb.ias, AttestationService::new(b"detached"));
    let report_key = ias.report_signing_key();
    let (ias_server, _) = serve_ias(&network, "ias:443", ias).expect("IAS serves");
    let mut agents = Vec::new();
    for (host, guards) in std::mem::take(&mut tb.hosts).into_iter().zip(guards) {
        let state = HostAgentState {
            host_id: host.id,
            platform: host.platform,
            snp: host.snp,
            container_host: RwLock::new(host.container_host),
            integrity_enclave: host.integrity_enclave,
            tpm: None,
            guards: RwLock::new(guards),
            revoked_serials: RwLock::new(Default::default()),
            vm_hmac_key: None,
        };
        agents.push(HostAgent::serve(&network, Arc::new(state)).expect("agent serves"));
    }
    let (verifier, ias_timings) =
        TimedVerifier::new(RemoteIas::new(&network, "ias:443", report_key));
    let verifier: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(verifier));
    let vm_api = serve_vm_api(
        &network,
        "vm:8443",
        tb.vm_service(),
        verifier,
        &tb.controller_cn,
    )
    .expect("operator API serves");
    let operator = HttpClient::new(
        network
            .connect_from("operator", "vm:8443")
            .expect("VM API reachable"),
    );
    let mut world = World {
        operator,
        population,
        agents,
        ias_timings,
        _vm_api: vm_api,
        _ias: ias_server,
        tb,
    };
    for host in HOSTS {
        attest(&mut world, host).expect("hosts attest during set-up");
    }
    world
}

fn attest(world: &mut World, host: &str) -> Result<(), String> {
    let response = world
        .operator
        .request(&Request::post(&format!("/vm/hosts/{host}/attest")))
        .map_err(|e| e.to_string())?;
    let body = response.parse_json().map_err(|e| e.to_string())?;
    match body.get("verdict").and_then(Json::as_str) {
        Some("Trusted") if response.status.is_success() => Ok(()),
        other => Err(format!(
            "attest {host}: {} {other:?}",
            response.status.code()
        )),
    }
}

/// What the benchmark saw during its enrollments, for the checks.
#[derive(Default)]
struct Ledger {
    /// (requested, named in the response)
    names: Vec<(String, String)>,
    serials: Vec<u64>,
    last_serial: BTreeMap<String, u64>,
    /// Positive per-enrollment growth of the WAL, bytes (traced only).
    log_growth: Vec<f64>,
    errors: Vec<String>,
}

fn enroll(world: &mut World, host: usize, name: &str, ledger: &mut Ledger) -> Result<(), String> {
    let path = format!("/vm/hosts/{}/vnfs/{name}/enroll", HOSTS[host]);
    let response = world
        .operator
        .request(&Request::post(&path))
        .map_err(|e| e.to_string())?;
    let body = response.parse_json().map_err(|e| e.to_string())?;
    if !response.status.is_success() {
        return Err(format!(
            "enroll {name}: {} {body:?}",
            response.status.code()
        ));
    }
    let serial = body
        .get("serial")
        .and_then(Json::as_i64)
        .ok_or("no serial")? as u64;
    let subject = body
        .get("subject")
        .and_then(Json::as_str)
        .ok_or("no subject")?;
    ledger.names.push((name.to_string(), subject.to_string()));
    ledger.serials.push(serial);
    ledger.last_serial.insert(name.to_string(), serial);
    Ok(())
}

fn timed_phase(
    world: &mut World,
    length: Duration,
    next_op: &mut u64,
    ledger: &mut Ledger,
) -> Phase {
    let mut phase = Phase::default();
    let clock = PhaseClock::start();
    let deadline = Instant::now() + length;
    let n = world.population.len();
    let mut cursor = *next_op as usize;
    rounds_until(deadline, |_| {
        for _ in 0..ENROLLS_PER_ROUND {
            let (host, name) = world.population[cursor % n].clone();
            cursor += 1;
            *next_op += 1;
            let media = world.tb.store_media().expect("durable manager").clone();
            let log_before = media.log_bytes() as f64;
            let root = tracer().span("net.rest_enroll", *next_op, 0);
            tracer().set_ambient(*next_op, root.id());
            let (result, ms) = timed(|| enroll(world, host, &name, ledger));
            drop(root);
            let grown = media.log_bytes() as f64 - log_before;
            if tracer().enabled() && grown > 0.0 {
                ledger.log_growth.push(grown);
            }
            phase.attempted += 1;
            match result {
                Ok(()) => phase.push_op(ms, clock.start),
                Err(e) => {
                    phase.failed += 1;
                    ledger.errors.push(e);
                }
            }
        }
        for host in HOSTS {
            *next_op += 1;
            let root = tracer().span("net.rest_attest", *next_op, 0);
            tracer().set_ambient(*next_op, root.id());
            let (result, ms) = timed(|| attest(world, host));
            drop(root);
            phase.attempted += 1;
            match result {
                Ok(()) => phase.aux_ms.push(ms),
                Err(e) => {
                    phase.failed += 1;
                    ledger.errors.push(e);
                }
            }
        }
    });
    clock.finish(&mut phase);
    phase
}

fn check(world: &World, ledger: &Ledger) -> Vec<String> {
    let mut results = vec![
        checks::responses_name_requested(&ledger.names),
        checks::serials_unique(&ledger.serials),
        checks::issued_count(world.tb.vm.issued_count(), 1 + ledger.serials.len() as u64),
    ];
    for agent in &world.agents {
        for (name, guard) in agent.state.guards.read().iter() {
            if let Some(&serial) = ledger.last_serial.get(name) {
                let status = guard.status().map_err(|e| e.to_string());
                results.push(status.and_then(|s| checks::enclave_holds(&s, name, serial)));
            }
        }
    }
    let host_backend: BTreeMap<String, BackendKind> = [
        (HOSTS[0].to_string(), BackendKind::SgxEpid),
        (HOSTS[1].to_string(), BackendKind::SevSnp),
    ]
    .into();
    let records: Vec<_> = world
        .tb
        .vm
        .enrollments()
        .map(|e| (e.serial, e.host_id.clone(), e.backend))
        .collect();
    results.push(checks::records_carry_host_backend(&records, &host_backend));
    results.into_iter().filter_map(Result::err).collect()
}

pub fn run(cfg: &Config) -> Outcome {
    crate::util::pin_to_one_cpu("onboard");
    let (mut world, setup_s) = common::setup_median(|| build(cfg.seed));
    let (untraced_len, traced_len) = common::phase_lengths(cfg);
    let mut ledger = Ledger::default();
    let mut next_op = 0;
    let phase = timed_phase(&mut world, untraced_len, &mut next_op, &mut ledger);
    let mut attempted = phase.attempted;
    let mut failed = phase.failed;
    let mut per_layer = Vec::new();
    let mut probe_errors = Vec::new();
    if let Some(len) = traced_len {
        let telemetry = world.tb.telemetry.clone();
        let net_before = net_counters(&telemetry);
        let wal_before = common::wal_appends(&telemetry);
        let ias_before = world.ias_timings.lock().len();
        tracer().set_enabled(true);
        let traced = timed_phase(&mut world, len, &mut next_op, &mut ledger);
        tracer().set_enabled(false);
        attempted += traced.attempted;
        failed += traced.failed;
        let net_after = net_counters(&telemetry);
        let wal_after = common::wal_appends(&telemetry);
        let ias_ms: Vec<f64> = world.ias_timings.lock()[ias_before..].to_vec();
        let enrolls = traced.op_ms.len();
        let probes = Probes::run(cfg.seed, 8, 24);
        probe_errors.clone_from(&probes.errors);
        let spans = tracer().take();
        crate::trace::finish("onboard", cfg.seed, &spans);
        let wal_us = common::per(
            (wal_after.1 - wal_before.1) as f64,
            (wal_after.0 - wal_before.0) as usize,
        );
        let ratios: Vec<Metric> = vec![
            (
                "net.connections_per_op",
                common::per((net_after.0 - net_before.0) as f64, enrolls),
                "count",
            ),
            (
                "net.bytes_per_op",
                common::per((net_after.1 - net_before.1) as f64, enrolls),
                "B",
            ),
            (
                "ias.requests_per_op",
                common::per(ias_ms.len() as f64, enrolls),
                "count",
            ),
            (
                "store.frames_per_op",
                common::per((wal_after.0 - wal_before.0) as f64, enrolls),
                "count",
            ),
            (
                "store.log_bytes_per_op",
                if ledger.log_growth.is_empty() {
                    0.0
                } else {
                    mean(&ledger.log_growth)
                },
                "B",
            ),
            ("trace.spans", spans.len() as f64, "count"),
            (
                "trace.overhead_pct",
                common::overhead_pct(&phase, &traced),
                "%",
            ),
        ];
        // Reconciliation: the REST enrollment median against the layer
        // costs one enrollment pays, half on each host.
        let e2e = median(&traced.op_ms);
        let enroll_spans: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name == "net.rest_enroll")
            .map(|s| s.id)
            .collect();
        let ias_per_enroll = spans
            .iter()
            .filter(|s| s.name == "ias.verify_quote" && enroll_spans.contains(&s.parent))
            .map(|s| s.duration_ms())
            .sum::<f64>()
            / enrolls as f64;
        let net_rt = probes.get("net.http_roundtrip_us") / 1e3;
        let net_conn = probes.get("net.connect_us") / 1e3;
        let conns = common::per((net_after.0 - net_before.0) as f64, enrolls);
        // Keep-alive round trips per enrollment: operator→VM and two
        // VM→agent requests. The IAS hop is inside the IAS span.
        let trips = 3.0;
        let layers = [
            ("sgx quote (SGX half)", 0.5 * probes.get("sgx.quote_ms")),
            ("ias verify incl. its hop (SGX half)", ias_per_enroll),
            (
                "attest SNP appraisal (SNP half)",
                0.5 * probes.get("attest.snp_appraise_us") / 1e3,
            ),
            (
                "core enrollment self time",
                probes.get("core.enroll_complete_ms"),
            ),
            ("store WAL append", wal_us / 1e3),
            ("vnf provision ecall", probes.get("vnf.provision_us") / 1e3),
            ("net round trips", trips * net_rt),
            ("net fresh connections", conns * net_conn),
        ];
        let recon = common::reconcile(
            "onboard",
            "REST enrollment p50",
            e2e,
            &layers,
            "JSON/base64 coding, fabric thread hand-offs, handler thread spawns",
        );
        per_layer = probes.metrics();
        per_layer.push(("store.wal_append_us", wal_us, "us"));
        per_layer.extend(ratios);
        per_layer.extend(common::tails(&phase));
        per_layer.extend(recon);
    }
    let mut errors: Vec<String> = ledger.errors.iter().take(5).cloned().collect();
    errors.extend(probe_errors);
    errors.extend(check(&world, &ledger));
    let end_to_end = common::end_to_end(setup_s, &phase);
    eprintln!(
        "onboard: enroll_p50_ms={:.3} enrollments_per_s={:.1} enroll_cpu_ms={:.3} host_attest_p50_ms={:.3} ({} enrollments, {} attests)",
        median(&phase.op_ms),
        phase.ops_per_s(),
        phase.cpu_per_op_ms(),
        median(&phase.aux_ms),
        phase.op_ms.len(),
        phase.aux_ms.len()
    );
    Outcome {
        attempted,
        failed,
        errors,
        end_to_end,
        per_layer,
    }
}

fn net_counters(telemetry: &vnfguard::telemetry::Telemetry) -> (u64, u64) {
    (
        common::counter(telemetry, "vnfguard_net_connections_total"),
        common::counter(telemetry, "vnfguard_net_bytes_total"),
    )
}
