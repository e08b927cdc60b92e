//! `northbound`: VNFs talking to the controller through their enclaves.
//!
//! The VNFs are enrolled during set-up and the controller holds a CRL
//! with `REVOKED` entries. In turn, each VNF opens an in-enclave mutual
//! TLS session, pushes a batch of flows to its own switch, lists the
//! switch's flow table (a response of several KiB), deletes the batch
//! and closes the session. One client thread, closed loop, with the whole
//! process pinned to one CPU. Primary operation: a request on an open
//! session; secondary: a session open.

use crate::checks;
use crate::common::{self, Config, Metric, Outcome, Phase, PhaseClock};
use crate::probes::Probes;
use crate::trace::tracer;
use crate::util::{median, rounds_until, timed, Rng};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};
use vnfguard::controller::FlowSpec;
use vnfguard::core::deployment::{Testbed, TestbedBuilder};
use vnfguard::dataplane::{FlowAction, FlowMatch, Protocol};
use vnfguard::encoding::Json;
use vnfguard::net::http::{Request, Response};
use vnfguard::pki::RevocationReason;
use vnfguard::vnf::VnfGuard;

/// VNFs taking turns, each with its own switch.
const VNFS: usize = 6;
/// Credentials revoked during set-up, so the controller's CRL has entries.
const REVOKED: usize = 8;
/// Flows pushed (and deleted) per session.
const BATCH: usize = 24;

pub struct Vnf {
    pub guard: VnfGuard,
    pub subject: String,
    pub dpid: u64,
}

struct World {
    vnfs: Vec<Vnf>,
    tb: Testbed,
}

fn build(seed: u64) -> World {
    let mut rng = Rng::new(seed, "northbound");
    let mut tb = TestbedBuilder::new(format!("vnfbench northbound {seed}").as_bytes()).build();
    tb.attest_host(0).expect("host attests");
    let tag = rng.below(1 << 16);
    let mut vnfs = Vec::new();
    for i in 0..VNFS + REVOKED {
        let name = format!("nb-{tag:04x}-{i:02}");
        let guard = tb.deploy_guard(0, &name, 1).expect("guard deploys");
        let cert = tb.enroll(0, &guard).expect("VNF enrolls");
        if i >= VNFS {
            tb.vm
                .revoke_credential(cert.serial(), RevocationReason::KeyCompromise)
                .expect("revocation");
            continue;
        }
        let dpid = (rng.below(1 << 32) << 8) | i as u64;
        tb.controller
            .state()
            .write()
            .register_switch(dpid, vec![1, 2, 3, 4]);
        vnfs.push(Vnf {
            guard,
            subject: cert.subject_cn().to_string(),
            dpid,
        });
    }
    tb.push_crl().expect("CRL installs on the controller");
    World { vnfs, tb }
}

/// The batch a session pushes: named per session, fields from the seed.
fn batch(rng: &mut Rng, vnf: usize, session: u64, dpid: u64) -> Vec<FlowSpec> {
    (0..BATCH)
        .map(|k| {
            let mut matcher = FlowMatch::any();
            matcher.in_port = Some(1 + rng.below(4) as u16);
            matcher.ip_src = Some(Ipv4Addr::from(0x0a00_0000 | rng.below(1 << 24) as u32));
            matcher.ip_dst = Some(Ipv4Addr::from(0xc0a8_0000 | rng.below(1 << 16) as u32));
            matcher.protocol = Some(if rng.below(2) == 0 {
                Protocol::Tcp
            } else {
                Protocol::Udp
            });
            matcher.tp_dst = Some(1 + rng.below(65535) as u16);
            let mut actions = Vec::new();
            if rng.below(3) == 0 {
                actions.push(FlowAction::SetIpDst(Ipv4Addr::from(
                    0xac10_0000 | rng.below(1 << 16) as u32,
                )));
            }
            actions.push(FlowAction::Output(1 + rng.below(4) as u16));
            FlowSpec {
                name: format!("nb{vnf}-s{session}-f{k:02}"),
                dpid,
                priority: 1 + rng.below(1000) as u16,
                matcher,
                actions,
            }
        })
        .collect()
}

#[derive(Default)]
struct Ledger {
    /// Sessions whose listed table was checked against what they pushed.
    sessions: u64,
    /// Failed table checks (at most a few kept).
    table_errors: Vec<String>,
    /// Mutating requests sent, per (subject, audit action).
    sent: BTreeMap<(String, String), u64>,
    errors: Vec<String>,
}

fn list_request(dpid: u64) -> Request {
    Request::get(&format!("/wm/staticflowpusher/list/{dpid:016x}/json"))
}

fn ok(result: Result<Response, vnfguard::vnf::VnfError>) -> Result<Response, String> {
    match result {
        Ok(response) if response.status.is_success() => Ok(response),
        Ok(response) => Err(format!("status {}", response.status.code())),
        Err(e) => Err(e.to_string()),
    }
}

fn timed_phase(
    world: &mut World,
    length: Duration,
    rng: &mut Rng,
    next_op: &mut u64,
    ledger: &mut Ledger,
) -> Phase {
    let mut phase = Phase::default();
    let clock = PhaseClock::start();
    let deadline = Instant::now() + length;
    let tb = &world.tb;
    let vnfs = &mut world.vnfs;
    rounds_until(deadline, |_| {
        for (v, vnf) in vnfs.iter_mut().enumerate() {
            let dpid = vnf.dpid;
            let flows = batch(rng, v, *next_op, dpid);
            *next_op += 1;
            phase.attempted += 1;
            let span = tracer().span("tls.session_open", *next_op, 0);
            let (session, ms) = timed(|| tb.open_session(&mut vnf.guard));
            drop(span);
            let session = match session {
                Ok(session) => {
                    phase.aux_ms.push(ms);
                    session
                }
                Err(e) => {
                    phase.failed += 1;
                    ledger.errors.push(format!("{}: open: {e}", vnf.subject));
                    continue;
                }
            };
            let mut request = |req: Request, action: Option<&str>, phase: &mut Phase| {
                *next_op += 1;
                phase.attempted += 1;
                let span = tracer().span("vnf.request", *next_op, 0);
                let (result, ms) = timed(|| ok(vnf.guard.request(session, &req)));
                drop(span);
                if let Some(action) = action {
                    *ledger
                        .sent
                        .entry((vnf.subject.clone(), action.to_string()))
                        .or_default() += 1;
                }
                match result {
                    Ok(response) => {
                        phase.push_op(ms, clock.start);
                        Some(response)
                    }
                    Err(e) => {
                        phase.failed += 1;
                        ledger.errors.push(format!(
                            "{}: {} {}: {e}",
                            vnf.subject,
                            req.method.as_str(),
                            req.path
                        ));
                        None
                    }
                }
            };
            for flow in &flows {
                let push = Request::post("/wm/staticflowpusher/json").with_json(&flow.to_json());
                request(push, Some("push_flow"), &mut phase);
            }
            let listed = request(list_request(dpid), None, &mut phase);
            for flow in &flows {
                let delete = Request::delete("/wm/staticflowpusher/json")
                    .with_json(&Json::object().with("name", flow.name.as_str()));
                request(delete, Some("delete_flow"), &mut phase);
            }
            // Checked now, outside the timed request, so the run keeps no
            // responses: they would inflate its peak memory.
            if let Some(listed) = listed {
                ledger.sessions += 1;
                if let Err(e) =
                    parse_table(&listed).and_then(|t| checks::flow_table_equals(&flows, &t))
                {
                    ledger.table_errors.push(e);
                }
            }
            *next_op += 1;
            phase.attempted += 1;
            let span = tracer().span("tls.session_close", *next_op, 0);
            if let Err(e) = vnf.guard.close_session(session) {
                phase.failed += 1;
                ledger.errors.push(format!("{}: close: {e}", vnf.subject));
            }
            drop(span);
        }
    });
    clock.finish(&mut phase);
    phase
}

fn parse_table(response: &Response) -> Result<Vec<FlowSpec>, String> {
    let doc = response.parse_json().map_err(|e| e.to_string())?;
    doc.as_array()
        .ok_or("flow table is not a JSON array")?
        .iter()
        .map(FlowSpec::from_json)
        .collect()
}

fn check(world: &mut World, ledger: &Ledger) -> Vec<String> {
    let mut results: Vec<checks::Check> = ledger
        .table_errors
        .iter()
        .take(3)
        .map(|e| Err(e.clone()))
        .collect();
    if ledger.sessions == 0 {
        results.push(Err("no session listed its flow table".into()));
    }
    // Deletes emptied every table: list each once more.
    for vnf in &mut world.vnfs {
        let listed = world
            .tb
            .open_session(&mut vnf.guard)
            .map_err(|e| e.to_string())
            .and_then(|session| {
                let response = ok(vnf.guard.request(session, &list_request(vnf.dpid)));
                let _ = vnf.guard.close_session(session);
                response
            });
        results.push(
            listed
                .and_then(|r| parse_table(&r))
                .and_then(|t| checks::flow_table_equals(&[], &t)),
        );
    }
    let audit: Vec<(String, String)> = world
        .tb
        .controller
        .state()
        .read()
        .audit()
        .iter()
        .map(|e| (e.peer.clone(), e.action.clone()))
        .collect();
    results.push(checks::audit_attribution(&audit, &ledger.sent));
    results.into_iter().filter_map(Result::err).collect()
}

pub fn run(cfg: &Config) -> Outcome {
    crate::util::pin_to_one_cpu("northbound");
    let (mut world, setup_s) = common::setup_median(|| build(cfg.seed));
    let (untraced_len, traced_len) = common::phase_lengths(cfg);
    let mut rng = Rng::new(cfg.seed, "northbound flows");
    let mut ledger = Ledger::default();
    let mut next_op = 0;
    let phase = timed_phase(
        &mut world,
        untraced_len,
        &mut rng,
        &mut next_op,
        &mut ledger,
    );
    let mut attempted = phase.attempted;
    let mut failed = phase.failed;
    let mut per_layer = Vec::new();
    let mut probe_errors = Vec::new();
    if let Some(len) = traced_len {
        let telemetry = world.tb.telemetry.clone();
        let bytes_before = common::counter(&telemetry, "vnfguard_net_bytes_total");
        let conns_before = common::counter(&telemetry, "vnfguard_net_connections_total");
        tracer().set_enabled(true);
        let traced = timed_phase(&mut world, len, &mut rng, &mut next_op, &mut ledger);
        tracer().set_enabled(false);
        attempted += traced.attempted;
        failed += traced.failed;
        let requests = traced.op_ms.len();
        let bytes = common::counter(&telemetry, "vnfguard_net_bytes_total") - bytes_before;
        let conns = common::counter(&telemetry, "vnfguard_net_connections_total") - conns_before;
        let crl_entries = REVOKED;
        let probes = Probes::run(cfg.seed, crl_entries, BATCH);
        probe_errors.clone_from(&probes.errors);
        let spans = tracer().take();
        crate::trace::finish("northbound", cfg.seed, &spans);
        let bytes_per_request = common::per(bytes as f64, requests);
        let ratios: Vec<Metric> = vec![
            (
                "net.connections_per_op",
                common::per(conns as f64, requests),
                "count",
            ),
            ("net.bytes_per_op", bytes_per_request, "B"),
            ("ias.requests_per_op", 0.0, "count"),
            ("store.frames_per_op", 0.0, "count"),
            ("store.log_bytes_per_op", 0.0, "B"),
            ("trace.spans", spans.len() as f64, "count"),
            (
                "trace.overhead_pct",
                common::overhead_pct(&phase, &traced),
                "%",
            ),
        ];
        // Reconciliation: a request on an open session against the
        // controller's dispatch, the record layer's AEAD over the bytes
        // it carries (sealed and opened once each way) and a plain
        // keep-alive round trip on the fabric.
        let e2e = median(&traced.op_ms);
        let per_session = 2 * BATCH + 1;
        let dispatch_us = (2 * BATCH) as f64 * probes.get("controller.push_dispatch_us")
            + probes.get("controller.list_dispatch_us");
        let layers = [
            (
                "controller dispatch (mean over a session)",
                dispatch_us / per_session as f64 / 1e3,
            ),
            (
                "tls record AEAD (seal + open)",
                2.0 * bytes_per_request / 1024.0 * probes.get("crypto.aes_gcm_seal_kib_us") / 1e3,
            ),
            (
                "net keep-alive round trip",
                probes.get("net.http_roundtrip_us") / 1e3,
            ),
        ];
        let recon = common::reconcile(
            "northbound",
            "request on an open session p50",
            e2e,
            &layers,
            "enclave ecall marshalling and in-enclave HTTP coding, fabric thread hand-offs",
        );
        per_layer = probes.metrics();
        per_layer.push((
            "store.wal_append_us",
            probes.get("store.wal_append_us"),
            "us",
        ));
        per_layer.extend(ratios);
        per_layer.extend(common::tails(&phase));
        per_layer.extend(recon);
    }
    let mut errors: Vec<String> = ledger.errors.iter().take(5).cloned().collect();
    errors.extend(probe_errors);
    errors.extend(check(&mut world, &ledger));
    eprintln!(
        "northbound: session_open_p50_ms={:.3} nb_request_p50_us={:.1} nb_requests_per_s={:.1} nb_cpu_us={:.1} ({} sessions, {} requests)",
        median(&phase.aux_ms),
        median(&phase.op_ms) * 1e3,
        phase.ops_per_s(),
        phase.cpu_per_op_ms() * 1e3,
        phase.aux_ms.len(),
        phase.op_ms.len()
    );
    Outcome {
        attempted,
        failed,
        errors,
        end_to_end: common::end_to_end(setup_s, &phase),
        per_layer,
    }
}
