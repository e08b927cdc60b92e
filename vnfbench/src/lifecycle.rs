//! `lifecycle`: credential churn on a durable manager with two shards and
//! group commit, every WAL flush sleeping a modeled 1.5 ms of cloud block
//! storage.
//!
//! Two client threads, one per shard. Each renews the credentials in its
//! pool in a chain and delivers every renewal into its enclave; after
//! every `PASSES_PER_REVOCATION` passes over its pool it revokes the
//! superseded credential of one member. After each of its passes the
//! authority shard's thread publishes a CRL that the controller installs;
//! one publisher keeps CRL numbers in install order without a lock
//! between the threads. Primary operation: a renewal delivered into its
//! enclave; secondary: a CRL publication (issue and install).

use crate::checks::{self, FleetView};
use crate::common::{self, Config, Metric, Outcome, Phase, PhaseClock};
use crate::probes::Probes;
use crate::trace::tracer;
use crate::util::{mean, median, rounds_until, timed, Rng};
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vnfguard::core::deployment::{Testbed, TestbedBuilder};
use vnfguard::core::manager::shard_of_serial;
use vnfguard::core::service::{shard_of_vnf, VmService};
use vnfguard::pki::{RevocationReason, TrustStore};
use vnfguard::store::Media;
use vnfguard::vnf::VnfGuard;

const SHARDS: usize = 2;
/// Credentials per client thread.
const POOL: usize = 4;
/// Passes over its pool a thread makes per revocation. A CRL's signing
/// and checking cost grows with its entries, and the entries grow with
/// the revocations done so far, so a high revocation rate would tie the
/// publication latency to the run's throughput.
const PASSES_PER_REVOCATION: usize = 8;
/// Modeled flush latency of every WAL write (the E15 figure).
const FLUSH: Duration = Duration::from_micros(1500);

struct Member {
    guard: VnfGuard,
    key: [u8; 32],
    serial: u64,
    /// The serial this member held before its latest renewal.
    superseded: Option<u64>,
}

struct World {
    pools: Vec<Vec<Member>>,
    /// Serials issued at enrollment, in set-up.
    enrolled: Vec<u64>,
    tb: Testbed,
}

/// A VNF name from the seed that routes to `shard`.
fn name_on_shard(tag: u64, t: usize, shard: usize) -> String {
    (0..)
        .map(|j| format!("lc-{tag:04x}-{t}-{j}"))
        .find(|name| shard_of_vnf(name, SHARDS) == shard)
        .expect("some name routes to every shard")
}

fn build(seed: u64) -> World {
    let mut rng = Rng::new(seed, "lifecycle");
    let mut tb = TestbedBuilder::new(format!("vnfbench lifecycle {seed}").as_bytes())
        .durable()
        .shards(SHARDS)
        .group_commit(true)
        .wal_write_latency(FLUSH)
        .build();
    tb.attest_host(0).expect("host attests");
    let tag = rng.below(1 << 16);
    let mut pools: Vec<Vec<Member>> = (0..SHARDS).map(|_| Vec::new()).collect();
    let mut enrolled = Vec::new();
    for (shard, pool) in pools.iter_mut().enumerate() {
        for i in 0..POOL {
            let name = name_on_shard(tag, shard * POOL + i, shard);
            let guard = tb.deploy_guard(0, &name, 1).expect("guard deploys");
            let key = guard.provisioning_key().expect("provisioning key");
            let serial = tb.enroll(0, &guard).expect("VNF enrolls").serial();
            enrolled.push(serial);
            pool.push(Member {
                guard,
                key,
                serial,
                superseded: None,
            });
        }
    }
    World {
        pools,
        enrolled,
        tb,
    }
}

/// What one client thread did.
#[derive(Default)]
struct ThreadLedger {
    phase: Phase,
    /// (serial, shard) of every acknowledged renewal.
    renewed: Vec<(u64, u32)>,
    revoked: Vec<u64>,
    /// Positive per-renewal growth of the shard's log, bytes (traced only).
    log_growth: Vec<f64>,
    errors: Vec<String>,
}

/// What the client threads share: the service handle and the
/// controller's trust store.
struct Shared<'a> {
    vm: VmService,
    store: Arc<RwLock<TrustStore>>,
    controller_cn: &'a str,
    media: Vec<Media>,
    next_op: AtomicU64,
}

impl Shared<'_> {
    /// Issue a fleet CRL on the authority shard and install it on the
    /// controller; returns the time taken in ms.
    fn publish_crl(&self, op: u64, parent: u64) -> Result<f64, String> {
        let (result, ms) = timed(|| {
            let crl = {
                let _span = tracer().span("core.issue_crl", op, parent);
                self.vm.issue_crl().map_err(|e| e.to_string())?
            };
            let _span = tracer().span("pki.install_crl", op, parent);
            self.store
                .write()
                .install_crl(crl)
                .map_err(|e| e.to_string())
        });
        result.map(|()| ms)
    }
}

fn client(
    shared: &Shared,
    shard: usize,
    pool: &mut [Member],
    start: Instant,
    deadline: Instant,
) -> ThreadLedger {
    let mut ledger = ThreadLedger::default();
    let media = &shared.media[shard];
    let tracing = tracer().enabled();
    rounds_until(deadline, |round| {
        for _ in 0..PASSES_PER_REVOCATION {
            for member in pool.iter_mut() {
                let op = shared.next_op.fetch_add(1, Ordering::Relaxed);
                ledger.phase.attempted += 1;
                let log_before = media.log_bytes();
                let root = tracer().span("op.renew", op, 0);
                let (result, ms) = timed(|| {
                    let (wrapped, cert) = {
                        let _span = tracer().span("core.renew", op, root.id());
                        shared
                            .vm
                            .renew_vnf_credential(member.serial, &member.key, shared.controller_cn)
                            .map_err(|e| e.to_string())?
                    };
                    let _span = tracer().span("vnf.provision", op, root.id());
                    member
                        .guard
                        .provision(&wrapped)
                        .map_err(|e| e.to_string())?;
                    Ok::<u64, String>(cert.serial())
                });
                drop(root);
                match result {
                    Ok(serial) => {
                        ledger.phase.push_op(ms, start);
                        ledger.renewed.push((serial, shard as u32));
                        member.superseded = Some(member.serial);
                        member.serial = serial;
                        let grown = media.log_bytes() as f64 - log_before as f64;
                        if tracing && grown > 0.0 {
                            ledger.log_growth.push(grown);
                        }
                    }
                    Err(e) => {
                        ledger.phase.failed += 1;
                        ledger.errors.push(format!("renew {}: {e}", member.serial));
                    }
                }
            }
            if shard == 0 {
                let op = shared.next_op.fetch_add(1, Ordering::Relaxed);
                ledger.phase.attempted += 1;
                let root = tracer().span("op.crl_publish", op, 0);
                match shared.publish_crl(op, root.id()) {
                    Ok(ms) => ledger.phase.aux_ms.push(ms),
                    Err(e) => {
                        ledger.phase.failed += 1;
                        ledger.errors.push(format!("publish CRL: {e}"));
                    }
                }
            }
        }
        // Retire one superseded credential by revocation; the next
        // publication lists it.
        let member = &mut pool[round as usize % pool.len()];
        let Some(old) = member.superseded.take() else {
            return;
        };
        let op = shared.next_op.fetch_add(1, Ordering::Relaxed);
        ledger.phase.attempted += 1;
        let _span = tracer().span("core.revoke", op, 0);
        match shared
            .vm
            .revoke_credential(old, RevocationReason::Superseded)
        {
            Ok(()) => ledger.revoked.push(old),
            Err(e) => {
                ledger.phase.failed += 1;
                ledger.errors.push(format!("revoke {old}: {e}"));
            }
        }
    });
    ledger
}

/// Run both client threads until `length` has passed; returns the merged
/// phase and the per-thread ledgers.
fn timed_phase(world: &mut World, length: Duration, op_base: u64) -> (Phase, Vec<ThreadLedger>) {
    let tb = &world.tb;
    let store = tb
        .controller
        .client_validator()
        .and_then(|v| v.trust_store())
        .expect("trusted-HTTPS controller with a CA trust store");
    let shared = Shared {
        vm: tb.vm_service(),
        store,
        controller_cn: &tb.controller_cn,
        media: (0..SHARDS)
            .map(|s| tb.shard_store_media(s).expect("durable shard").clone())
            .collect(),
        next_op: AtomicU64::new(op_base),
    };
    let clock = PhaseClock::start();
    let deadline = Instant::now() + length;
    let ledgers: Vec<ThreadLedger> = std::thread::scope(|scope| {
        let handles: Vec<_> = world
            .pools
            .iter_mut()
            .enumerate()
            .map(|(shard, pool)| {
                let shared = &shared;
                scope.spawn(move || client(shared, shard, pool, clock.start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for l in &ledgers {
        phase.op_ms.extend(&l.phase.op_ms);
        phase.op_end_s.extend(&l.phase.op_end_s);
        phase.aux_ms.extend(&l.phase.aux_ms);
        phase.attempted += l.phase.attempted;
        phase.failed += l.phase.failed;
    }
    clock.finish(&mut phase);
    (phase, ledgers)
}

fn check(world: &mut World, ledgers: &[ThreadLedger]) -> Vec<String> {
    let tb = &world.tb;
    let mut results = Vec::new();
    let renewed: Vec<(u64, u32)> = ledgers
        .iter()
        .flat_map(|l| l.renewed.iter().copied())
        .collect();
    let mut revoked: BTreeSet<u64> = ledgers
        .iter()
        .flat_map(|l| l.revoked.iter().copied())
        .collect();
    let mut all: Vec<u64> = world.enrolled.clone();
    all.extend(renewed.iter().map(|(s, _)| *s));
    results.push(checks::issued_count(
        tb.vm.issued_count(),
        1 + all.len() as u64,
    ));
    results.push(checks::serials_unique(&all));
    results.push(checks::serials_in_span(&renewed, shard_of_serial));

    // Sessions: revoke the current credential of each pool's first member
    // and publish; those guards must be refused, the others admitted.
    let store = tb
        .controller
        .client_validator()
        .and_then(|v| v.trust_store())
        .expect("CA trust store");
    let failures_before = tb.controller.handshake_failures();
    let mut refused = 0;
    let mut revoked_attempts = 0;
    let (mut live_attempts, mut live_opened) = (0, 0);
    for pool in &world.pools {
        let serial = pool[0].serial;
        match tb
            .vm
            .revoke_credential(serial, RevocationReason::KeyCompromise)
        {
            Ok(()) => {
                revoked.insert(serial);
            }
            Err(e) => results.push(Err(format!("revoke {serial} for the session check: {e}"))),
        }
    }
    match tb.vm.issue_crl() {
        Ok(crl) => {
            if let Err(e) = store.write().install_crl(crl) {
                results.push(Err(format!("install CRL: {e}")));
            }
        }
        Err(e) => results.push(Err(format!("issue CRL: {e}"))),
    }
    for pool in &mut world.pools {
        for (i, member) in pool.iter_mut().enumerate() {
            let opened = tb.open_session(&mut member.guard);
            if let Ok(session) = opened {
                let _ = member.guard.close_session(session);
            }
            if i == 0 {
                revoked_attempts += 1;
                refused += usize::from(opened.is_err());
            } else {
                live_attempts += 1;
                live_opened += usize::from(opened.is_ok());
            }
        }
    }
    let failures_delta = tb.controller.handshake_failures() - failures_before;
    results.push(checks::revoked_sessions_refused(
        revoked_attempts,
        refused,
        failures_delta,
        live_attempts,
        live_opened,
    ));

    // Renewing a revoked serial is refused.
    let member = &world.pools[0][0];
    if tb
        .vm
        .renew_vnf_credential(member.serial, &member.key, &tb.controller_cn)
        .is_ok()
    {
        results.push(Err(format!("revoked serial {} was renewed", member.serial)));
    }

    // The installed CRL lists exactly the revoked serials.
    let live: BTreeSet<u64> = all
        .iter()
        .copied()
        .filter(|s| !revoked.contains(s))
        .collect();
    let ca = tb.vm.ca_certificate();
    match store.read().crl(ca.subject_cn()) {
        Some(crl) => results.push(checks::crl_exact(crl, &ca.tbs.public_key, &revoked, &live)),
        None => results.push(Err("controller holds no CRL".into())),
    }

    // Oracle twins replayed from each shard's WAL equal the live fleet.
    match tb.oracle_twins() {
        Ok(twins) => results.push(checks::fleet_matches(
            &FleetView::of(&VmService::from_shards(twins)),
            &FleetView::of(&tb.vm),
        )),
        Err(e) => results.push(Err(format!("oracle replay: {e}"))),
    }
    results.into_iter().filter_map(Result::err).collect()
}

pub fn run(cfg: &Config) -> Outcome {
    let (mut world, setup_s) = common::setup_median(|| build(cfg.seed));
    let (untraced_len, traced_len) = common::phase_lengths(cfg);
    let (phase, mut ledgers) = timed_phase(&mut world, untraced_len, 0);
    let mut attempted = phase.attempted;
    let mut failed = phase.failed;
    let mut per_layer = Vec::new();
    let mut probe_errors = Vec::new();
    if let Some(len) = traced_len {
        let telemetry = world.tb.telemetry.clone();
        let wal_before = common::wal_appends(&telemetry);
        tracer().set_enabled(true);
        let (traced, traced_ledgers) = timed_phase(&mut world, len, 1 << 32);
        tracer().set_enabled(false);
        attempted += traced.attempted;
        failed += traced.failed;
        let wal_after = common::wal_appends(&telemetry);
        let renewals = traced.op_ms.len();
        let appends = (wal_after.0 - wal_before.0) as usize;
        let wal_us = common::per((wal_after.1 - wal_before.1) as f64, appends);
        let growth: Vec<f64> = traced_ledgers
            .iter()
            .flat_map(|l| l.log_growth.iter().copied())
            .collect();
        ledgers.extend(traced_ledgers);
        let revoked = ledgers.iter().map(|l| l.revoked.len()).sum::<usize>();
        let probes = Probes::run(cfg.seed, revoked, 24);
        probe_errors.clone_from(&probes.errors);
        let spans = tracer().take();
        crate::trace::finish("lifecycle", cfg.seed, &spans);
        let self_ms = crate::trace::self_times(&spans);
        let span_median = |name: &str| self_ms.get(name).map_or(0.0, |s| s.median_self);
        let ratios: Vec<Metric> = vec![
            ("net.connections_per_op", 0.0, "count"),
            ("net.bytes_per_op", 0.0, "B"),
            ("ias.requests_per_op", 0.0, "count"),
            (
                "store.frames_per_op",
                common::per(appends as f64, renewals),
                "count",
            ),
            (
                "store.log_bytes_per_op",
                if growth.is_empty() {
                    0.0
                } else {
                    mean(&growth)
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
        // Reconciliation: a delivered renewal against the manager's self
        // time (its call minus its WAL append), the append itself and the
        // enclave delivery.
        let e2e = median(&traced.op_ms);
        let core_self = span_median("core.renew") - wal_us / 1e3;
        let layers = [
            ("core renewal self time (incl. pki issue)", core_self),
            ("store WAL group append (incl. 1.5 ms flush)", wal_us / 1e3),
            ("vnf provision ecall", span_median("vnf.provision")),
        ];
        let recon = common::reconcile(
            "lifecycle",
            "delivered renewal p50",
            e2e,
            &layers,
            "the WAL append is a mean (stalls included) beside span medians; shard-lock waits; thread hand-offs",
        );
        per_layer = probes.metrics();
        per_layer.push(("store.wal_append_us", wal_us, "us"));
        per_layer.extend(ratios);
        per_layer.extend(common::tails(&phase));
        per_layer.extend(recon);
    }
    let mut errors: Vec<String> = ledgers
        .iter()
        .flat_map(|l| l.errors.iter().take(3).cloned())
        .collect();
    errors.extend(probe_errors);
    errors.extend(check(&mut world, &ledgers));
    eprintln!(
        "lifecycle: renew_p50_ms={:.3} renewals_per_s={:.1} renew_cpu_ms={:.3} crl_publish_p50_ms={:.3} ({} renewals, {} CRLs)",
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
        end_to_end: common::end_to_end(setup_s, &phase),
        per_layer,
    }
}
