//! Inputs from the seed, summary statistics, and process counters read
//! from `/proc`.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's input generator. The same `--seed` gives
/// the same names, flows and pool choices on every run.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for byte in stream.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks. Panics on an empty slice: every caller has samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Time one call; returns its result and its duration in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Run `f` repeatedly for at least `budget`, at least `min_iters` times;
/// returns the per-call durations in microseconds.
pub fn sample_us(budget: Duration, min_iters: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_iters || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples
}

fn proc_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// CPU time of this whole process (all threads, user + system), in
/// milliseconds, from `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_cpu_ms() -> f64 {
    let stat = proc_file("/proc/self/stat");
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields[11].parse().expect("utime is a number");
    let stime: f64 = fields[12].parse().expect("stime is a number");
    (utime + stime) * 1000.0 / USER_HZ
}

/// Clock ticks per second of `/proc` CPU times: 100 on every Linux ABI
/// the benchmark targets.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = proc_file("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number");
    kib / 1024.0
}

/// Host-wide CPU jiffies as (steal, total), from the `cpu` line of
/// `/proc/stat`.
pub fn cpu_steal_total() -> (u64, u64) {
    let stat = proc_file("/proc/stat");
    let line = stat.lines().next().expect("/proc/stat has a cpu line");
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().expect("cpu fields are numbers"))
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    // guest and guest_nice are already counted in user and nice.
    let total = fields.iter().take(8).sum();
    (steal, total)
}

/// Steal share of host CPU between two `cpu_steal_total` readings, in %.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 * 100.0 / total as f64
}

/// Pin this process, and every thread it starts from now on, to the
/// first CPU it may run on, with `taskset`.
///
/// The single-client workloads hand every request from thread to thread
/// (client, server handler, the services behind it). Across the two vCPUs
/// of the reference machine each hand-off waits for the other vCPU to be
/// woken or scheduled, and under host steal that wait changed two-fold
/// from run to run; on one CPU a hand-off is a context switch. When
/// pinning fails the run goes on unpinned and says so.
pub fn pin_to_one_cpu(workload: &str) {
    let status = proc_file("/proc/self/status");
    let cpu = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|list| list.split([',', '-']).next())
        .and_then(|first| first.parse::<usize>().ok());
    let pinned = cpu.is_some_and(|cpu| {
        std::process::Command::new("taskset")
            .args([
                "-a",
                "-p",
                "-c",
                &cpu.to_string(),
                &std::process::id().to_string(),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    });
    match cpu.filter(|_| pinned) {
        Some(cpu) => eprintln!("{workload}: pinned to CPU {cpu}"),
        None => eprintln!("{workload}: could not pin to one CPU; figures will be noisier"),
    }
}

/// Whole rounds until `deadline`: `round` runs at least once and the
/// deadline is only checked between rounds, so every run attempts the
/// same mix of operations.
pub fn rounds_until(deadline: Instant, mut round: impl FnMut(u64)) {
    let mut n = 0;
    loop {
        round(n);
        n += 1;
        if Instant::now() >= deadline {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn rng_repeats_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(7, "y").next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }
}
