//! What every workload shares: the run configuration, the result of a
//! timed phase, and the report a run prints.

use crate::util::{self, median, quantile};
use std::time::{Duration, Instant};
use vnfguard::telemetry::Telemetry;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;
/// Set-ups per sample: a sample is their mean. On the reference machine
/// single set-ups fell in a fast and a slow mode about 1.7× apart, and a
/// median of single set-ups jumped between the modes from run to run.
const SETUPS_PER_SAMPLE: usize = 3;

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latencies of the workload's primary operation, ms.
    pub op_ms: Vec<f64>,
    /// When each primary operation completed, seconds into the phase.
    pub op_end_s: Vec<f64>,
    /// Latencies of the workload's secondary operation, ms.
    pub aux_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub cpu_ms: f64,
    pub steal_pct: f64,
    /// Peak resident set size (`VmHWM`) when the phase started and ended.
    pub hwm_start_mib: f64,
    pub hwm_end_mib: f64,
}

impl Phase {
    /// Record a completed primary operation.
    pub fn push_op(&mut self, ms: f64, phase_start: Instant) {
        self.op_ms.push(ms);
        self.op_end_s.push(phase_start.elapsed().as_secs_f64());
    }

    /// Primary operations per second: the median over the phase's whole
    /// one-second windows, so a stall that hits a few windows does not
    /// move it. A window's rate is its completions after the first over
    /// the time from its first to its last completion. Phases shorter
    /// than three windows use the plain rate.
    pub fn ops_per_s(&self) -> f64 {
        let windows = self.elapsed_s.floor() as usize;
        let mut ends = self.op_end_s.clone();
        ends.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        let rates: Vec<f64> = (0..windows)
            .filter_map(|w| {
                let lo = ends.partition_point(|&t| t < w as f64);
                let hi = ends.partition_point(|&t| t < (w + 1) as f64);
                let span = ends.get(hi.checked_sub(1)?)? - ends.get(lo)?;
                (hi - lo >= 2 && span > 0.0).then(|| (hi - lo - 1) as f64 / span)
            })
            .collect();
        if rates.len() < 3 {
            return self.op_ms.len() as f64 / self.elapsed_s;
        }
        median(&rates)
    }

    pub fn cpu_per_op_ms(&self) -> f64 {
        self.cpu_ms / self.op_ms.len() as f64
    }
}

/// Wall time, process CPU and host steal around a timed phase.
pub struct PhaseClock {
    pub start: Instant,
    cpu_ms: f64,
    steal: (u64, u64),
    hwm_mib: f64,
}

impl PhaseClock {
    pub fn start() -> PhaseClock {
        PhaseClock {
            hwm_mib: util::peak_rss_mib(),
            steal: util::cpu_steal_total(),
            cpu_ms: util::process_cpu_ms(),
            start: Instant::now(),
        }
    }

    pub fn finish(self, phase: &mut Phase) {
        phase.elapsed_s = self.start.elapsed().as_secs_f64();
        phase.cpu_ms = util::process_cpu_ms() - self.cpu_ms;
        phase.steal_pct = util::steal_pct(self.steal, util::cpu_steal_total());
        phase.hwm_start_mib = self.hwm_mib;
        phase.hwm_end_mib = util::peak_rss_mib();
    }
}

/// Build a workload's world `SETUP_SAMPLES × SETUPS_PER_SAMPLE` times,
/// keep the last one and return it with the median sample. Earlier worlds
/// are dropped, untimed, before the next is built, so their server
/// threads are stopped first.
pub fn setup_median<W>(mut build: impl FnMut() -> W) -> (W, f64) {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    let mut world = None;
    for _ in 0..SETUP_SAMPLES {
        let mut total = 0.0;
        for _ in 0..SETUPS_PER_SAMPLE {
            drop(world.take());
            let start = Instant::now();
            world = Some(build());
            total += start.elapsed().as_secs_f64();
        }
        samples.push(total / SETUPS_PER_SAMPLE as f64);
    }
    eprintln!(
        "set-up samples (mean of {SETUPS_PER_SAMPLE}), s: {}",
        samples
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    (world.expect("SETUP_SAMPLES > 0"), median(&samples))
}

/// The result of a run, before printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The end-to-end metrics every workload prints, from an untraced phase.
/// `peak_rss_mib` is the peak after set-up, before the timed phase: the
/// memory the timed phase adds grows with the operations it completes,
/// so a faster program would read as a larger one. That growth is the
/// per-layer `mem.hwm_growth_kib_per_op`.
pub fn end_to_end(setup_s: f64, phase: &Phase) -> Vec<Metric> {
    vec![
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", phase.hwm_start_mib, "MiB"),
        ("op_p50_ms", median(&phase.op_ms), "ms"),
        ("ops_per_s", phase.ops_per_s(), "1/s"),
        ("cpu_per_op_ms", phase.cpu_per_op_ms(), "ms"),
        ("aux_p50_ms", median(&phase.aux_ms), "ms"),
    ]
}

/// Tail percentiles with their sample counts. The percentile is the
/// highest that keeps at least ten samples beyond it.
pub fn tails(phase: &Phase) -> Vec<Metric> {
    let tail = |v: &[f64]| {
        let q = if v.len() >= 1000 {
            0.99
        } else if v.len() >= 100 {
            0.9
        } else {
            0.5
        };
        (quantile(v, q), q * 100.0)
    };
    let (op_tail, op_q) = tail(&phase.op_ms);
    let (aux_tail, aux_q) = tail(&phase.aux_ms);
    vec![
        ("tail.op_ms", op_tail, "ms"),
        ("tail.op_percentile", op_q, "%"),
        ("tail.op_samples", phase.op_ms.len() as f64, "count"),
        ("tail.aux_ms", aux_tail, "ms"),
        ("tail.aux_percentile", aux_q, "%"),
        ("tail.aux_samples", phase.aux_ms.len() as f64, "count"),
        ("run.steal_pct", phase.steal_pct, "%"),
        (
            "mem.hwm_growth_kib_per_op",
            (phase.hwm_end_mib - phase.hwm_start_mib) * 1024.0 / phase.op_ms.len() as f64,
            "KiB",
        ),
    ]
}

/// Tracing overhead: the traced phase's primary-operation median against
/// the untraced phase's, in percent.
pub fn overhead_pct(untraced: &Phase, traced: &Phase) -> f64 {
    (median(&traced.op_ms) / median(&untraced.op_ms) - 1.0) * 100.0
}

/// Reconciliation: an end-to-end median against the sum of the layer
/// costs one operation pays, with the residual named. Prints the table
/// and returns its figures as metrics.
pub fn reconcile(
    workload: &str,
    what: &str,
    e2e_ms: f64,
    layers: &[(&str, f64)],
    residual: &str,
) -> Vec<Metric> {
    let sum: f64 = layers.iter().map(|(_, v)| v).sum();
    let share = |v: f64| v / e2e_ms * 100.0;
    eprintln!("reconciliation ({workload}): {what} = {e2e_ms:.4} ms");
    for (name, v) in layers {
        eprintln!("  {name:<44} {v:>10.4} ms  {:>5.1}%", share(*v));
    }
    eprintln!(
        "  {:<44} {sum:>10.4} ms  {:>5.1}%",
        "sum of layers",
        share(sum)
    );
    eprintln!(
        "  {:<44} {:>10.4} ms  {:>5.1}%  ({residual})",
        "residual",
        e2e_ms - sum,
        share(e2e_ms - sum)
    );
    vec![
        ("recon.e2e_ms", e2e_ms, "ms"),
        ("recon.layer_sum_ms", sum, "ms"),
        ("recon.residual_ms", e2e_ms - sum, "ms"),
    ]
}

/// Split the run's seconds between the untraced and the traced phase of
/// a traced run; an untraced run measures all of them.
pub fn phase_lengths(cfg: &Config) -> (Duration, Option<Duration>) {
    let total = Duration::from_secs(cfg.seconds);
    if cfg.trace {
        (total / 2, Some(total / 2))
    } else {
        (total, None)
    }
}

/// (count, sum µs) of every WAL append the manager fleet timed, over the
/// unlabeled and the per-shard series.
pub fn wal_appends(telemetry: &Telemetry) -> (u64, u64) {
    let family = "vnfguard_core_wal_append_micros";
    let mut names = vec![family.to_string()];
    names.extend((0..8).map(|s| vnfguard::telemetry::labeled(family, "shard", &s.to_string())));
    names
        .iter()
        .filter_map(|n| telemetry.metrics().histogram_snapshot(n))
        .fold((0, 0), |(c, s), h| (c + h.count(), s + h.sum()))
}

pub fn counter(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry.metrics().counter_value(name).unwrap_or(0)
}

/// Per-operation ratio; 0 when the phase has no operations of that kind.
pub fn per(numerator: f64, ops: usize) -> f64 {
    if ops == 0 {
        0.0
    } else {
        numerator / ops as f64
    }
}
