//! The benchmark's span recorder.
//!
//! Spans surround calls from the benchmark's own files into a layer of
//! the program; the program itself is not instrumented. Each span has a
//! name, start, end, parent span and the id of the operation it belongs
//! to. Spans stay in memory and are written out once, at exit.

use crate::util::{mean, median};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    /// Operation and parent span for calls that land on another thread
    /// (the attestation wrappers run on the server's handler threads).
    /// Only single-client workloads use it, so the value is exact.
    ambient_op: AtomicU64,
    ambient_parent: AtomicU64,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        ambient_op: AtomicU64::new(0),
        ambient_parent: AtomicU64::new(0),
    })
}

/// An open span; it is recorded when dropped. A span opened while
/// tracing is off records nothing and has id 0.
pub struct Span {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: Instant,
}

impl Span {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let t = tracer();
        let end = Instant::now();
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start.duration_since(t.epoch).as_nanos() as u64,
            end_ns: end.duration_since(t.epoch).as_nanos() as u64,
        };
        t.spans.lock().push(record);
    }
}

impl Tracer {
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn span(&self, name: &'static str, op: u64, parent: u64) -> Span {
        let id = if self.enabled.load(Ordering::Relaxed) {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Span {
            id,
            parent,
            op,
            name,
            start: Instant::now(),
        }
    }

    /// Publish the operation and span that calls on other threads belong to.
    pub fn set_ambient(&self, op: u64, parent: u64) {
        self.ambient_op.store(op, Ordering::SeqCst);
        self.ambient_parent.store(parent, Ordering::SeqCst);
    }

    /// A span parented under the published ambient span.
    pub fn ambient_span(&self, name: &'static str) -> Span {
        let op = self.ambient_op.load(Ordering::SeqCst);
        let parent = self.ambient_parent.load(Ordering::SeqCst);
        self.span(name, op, parent)
    }

    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock())
    }
}

/// What the spans of one name took, in ms.
#[derive(Debug, Default)]
pub struct SpanStats {
    pub count: usize,
    pub mean: f64,
    pub mean_self: f64,
    pub median_self: f64,
}

/// Per span name, durations and self times. A span's self time is its
/// duration minus the part its child spans cover.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, SpanStats> {
    let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ms.entry(s.parent).or_default() += s.duration_ms();
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        let (total, own) = by_name.entry(s.name).or_default();
        total.push(s.duration_ms());
        own.push(s.duration_ms() - child_ms.get(&s.id).copied().unwrap_or(0.0));
    }
    by_name
        .into_iter()
        .map(|(name, (total, own))| {
            let stats = SpanStats {
                count: total.len(),
                mean: mean(&total),
                mean_self: mean(&own),
                median_self: median(&own),
            };
            (name, stats)
        })
        .collect()
}

/// End a traced run: print each span name's count, mean duration and
/// mean and median self time, and write the spans under `vnfbench/out/`.
pub fn finish(workload: &str, seed: u64, spans: &[SpanRecord]) {
    eprintln!("spans ({workload}): name, count, mean ms, mean self ms, median self ms");
    for (name, s) in self_times(spans) {
        eprintln!(
            "  {name:<24} {:>8} {:>10.4} {:>10.4} {:>10.4}",
            s.count, s.mean, s.mean_self, s.median_self
        );
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.jsonl"));
    match write_spans(&path, spans) {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "{workload}: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// Write spans as JSON lines: one object per span.
fn write_spans(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            rec(1, 0, "root", 0, 10_000_000),
            rec(2, 1, "child", 1_000_000, 4_000_000),
            rec(3, 1, "child", 5_000_000, 6_000_000),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].count, 1);
        assert!((t["root"].mean_self - 6.0).abs() < 1e-9);
        assert_eq!(t["child"].count, 2);
        assert!((t["child"].mean_self - 2.0).abs() < 1e-9);
        assert!((t["child"].median_self - 2.0).abs() < 1e-9);
    }
}
