//! In-memory span recorder.
//!
//! Spans are recorded only at the boundaries the benchmark itself owns:
//! around its calls into `Runtime` / `ShardEngine` / `Store` (top-level
//! spans), and inside the benchmark-side `Disk` and activity-library
//! wrappers (leaf spans).  A leaf span's parent is whatever top-level call
//! is in progress when it starts, on any thread — so activity spans from
//! the shard engine's stepper threads land under the current
//! `shard.round`.
//!
//! A disabled tracer records nothing and reads no clock for leaf spans;
//! top-level calls are still timed, in wall and process CPU time, because
//! the end-to-end step and recovery latencies come from those timings.
//! Spans are wall time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::clock::process_cpu;

/// How long a top-level call took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    /// Host (wall) time, as its span records.
    pub wall: Duration,
    /// Process CPU time (every thread), which the end-to-end metrics use.
    pub cpu: Duration,
}

/// Index of an interned span name.
pub type NameId = u32;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer (the root span is 1).
    pub id: u64,
    /// Id of the span that caused this one (0 for the root).
    pub parent: u64,
    /// Interned name.
    pub name: NameId,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder.  Share it as `Arc<Tracer>`.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    /// Id of the innermost top-level call in progress.  Only the driving
    /// thread changes it, and it publishes no other data, so `Relaxed`
    /// suffices; stepper threads spawned inside a call observe the value
    /// set before the spawn.
    current: AtomicU64,
    root_closed: AtomicBool,
    names: Mutex<Vec<String>>,
    spans: Mutex<Vec<Span>>,
}

/// Id of the `workload` root span.
pub const ROOT: u64 = 1;

impl Tracer {
    /// A tracer; `enabled = false` makes every recording call a no-op.
    pub fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            current: AtomicU64::new(ROOT),
            root_closed: AtomicBool::new(false),
            names: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Intern `name` (idempotent).
    pub fn intern(&self, name: &str) -> NameId {
        let mut names = self.names.lock().expect("tracer name table poisoned");
        if let Some(i) = names.iter().position(|n| n == name) {
            return i as NameId;
        }
        names.push(name.to_string());
        (names.len() - 1) as NameId
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("tracer span list poisoned")
            .push(span);
    }

    /// Close the `workload` root span, which opened when the tracer was
    /// created (so set-up is inside it).  Later calls do nothing.
    pub fn end_root(&self) {
        if self.enabled && !self.root_closed.swap(true, Ordering::Relaxed) {
            let name = self.intern("workload");
            let end = self.ns(Instant::now());
            self.push(Span {
                id: ROOT,
                parent: 0,
                name,
                start_ns: 0,
                end_ns: end,
            });
        }
    }

    /// Time `f` as a top-level call named `name`.  The duration is always
    /// measured; the span is recorded only when enabled, and while `f`
    /// runs it is the parent of every leaf span.
    pub fn call<T>(&self, name: NameId, f: impl FnOnce() -> T) -> (T, Took) {
        if !self.enabled {
            let (c0, t0) = (process_cpu(), Instant::now());
            let out = f();
            let wall = t0.elapsed();
            return (
                out,
                Took {
                    wall,
                    cpu: process_cpu() - c0,
                },
            );
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::Relaxed);
        let (c0, t0) = (process_cpu(), Instant::now());
        let out = f();
        let t1 = Instant::now();
        let cpu = process_cpu() - c0;
        self.current.store(parent, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        });
        (out, Took { wall: t1 - t0, cpu })
    }

    /// Start a leaf span: the clock reading, or `None` when disabled.
    pub fn leaf_start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Finish a leaf span started with [`Tracer::leaf_start`].
    pub fn leaf_end(&self, name: NameId, start: Option<Instant>) {
        let Some(t0) = start else { return };
        let t1 = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.load(Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        });
    }

    /// Every span recorded so far, sorted by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("tracer span list poisoned")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// A snapshot of the name table (index = [`NameId`]).
    pub fn names(&self) -> Vec<String> {
        self.names
            .lock()
            .expect("tracer name table poisoned")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.  Children may
/// overlap each other (stepper threads), so the cover is a union, not a
/// sum.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map(|iv| covered_ns(iv, s.start_ns, s.end_ns))
                .unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration, ms.
    pub busy_ms: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
}

/// Totals by span name.
pub fn totals_by_name(tracer: &Tracer) -> HashMap<String, NameTotals> {
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let names = tracer.names();
    let mut out: HashMap<String, NameTotals> = HashMap::new();
    for s in &spans {
        let t = out.entry(names[s.name as usize].clone()).or_default();
        t.calls += 1;
        t.busy_ms += s.dur_ns() as f64 / 1e6;
        t.self_ms += selfs[&s.id] as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_cover_counts_overlap_once() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (45, 48)];
        assert_eq!(covered_ns(&mut iv, 0, 100), 30);
        let mut iv = vec![(10, 20), (15, 30)];
        assert_eq!(covered_ns(&mut iv, 12, 25), 13);
    }

    #[test]
    fn leaf_spans_parent_to_current_call() {
        let t = Tracer::new(true);
        let step = t.intern("runtime.step");
        let disk = t.intern("disk.append");
        t.call(step, || {
            let s = t.leaf_start();
            t.leaf_end(disk, s);
        });
        let s = t.leaf_start();
        t.leaf_end(disk, s);
        t.end_root();
        let spans = t.spans();
        let step_span = spans.iter().find(|s| s.name == step).unwrap();
        let leaves: Vec<_> = spans.iter().filter(|s| s.name == disk).collect();
        assert_eq!(step_span.parent, ROOT);
        assert_eq!(leaves[0].parent, step_span.id);
        assert_eq!(leaves[1].parent, ROOT);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let n = t.intern("x");
        let (v, _) = t.call(n, || 7);
        assert_eq!(v, 7);
        t.leaf_end(n, t.leaf_start());
        assert!(t.spans().is_empty());
    }
}
