//! End-to-end benchmark of the BioOpera engine with a traced per-layer
//! split.
//!
//! Four workloads drive the engine through its public API only
//! (`Runtime`, `ShardEngine`, `Store`).  Every layer is measured from the
//! outside: top-level calls are timed by the run loops, and the benchmark's
//! own [`disk::MeteredDisk`] and [`library::meter`] wrappers count and
//! (when tracing) time every disk operation and every activity program.
//! See `README.md` for the metric definitions and `BASELINE.md` for the
//! first measurements.

pub mod allvsall;
pub mod chains;
pub mod clock;
pub mod disk;
pub mod library;
pub mod stats;
pub mod trace;
pub mod workload;

use clock::HostClock;
use stats::{mean, median, peak_rss_bytes, percentile, tail_percentile};
use std::sync::Arc;
use trace::Tracer;
use workload::{prepare, Options, Outcome, Workload};

/// Environment variables that change the engine's behaviour; the
/// benchmark clears them before it runs anything.
pub const PINNED_ENV: [&str; 8] = [
    "BIOOPERA_MEMTABLE_BUDGET",
    "BIOOPERA_RUN_MERGE",
    "BIOOPERA_LEVEL_BASE",
    "BIOOPERA_BLOCK_CACHE_BUDGET",
    "BIOOPERA_SHARDS",
    "BIOOPERA_SIMD",
    "BIOOPERA_HISTORY_RETENTION",
    "BIOOPERA_RESULTS",
];

/// End-to-end metrics, `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 8] = [
    ("tasks_per_s", "1/s"),
    ("step_ms_mean", "ms"),
    ("step_ms_tail", "ms"),
    ("recovery_ms_p50", "ms"),
    ("setup_s", "s"),
    ("disk_write_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("reruns_per_task", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, reported by traced runs.  A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("runtime.step.calls", "count"),
    ("runtime.step.busy_ms", "ms"),
    ("runtime.step.self_ms", "ms"),
    ("runtime.events", "count"),
    ("runtime.ready_queue.mean", "count"),
    ("runtime.ready_queue.max", "count"),
    ("runtime.step.compacting.calls", "count"),
    ("runtime.step.compacting.busy_ms", "ms"),
    ("runtime.recover.calls", "count"),
    ("runtime.recover.busy_ms", "ms"),
    ("runtime.recover.self_ms", "ms"),
    ("runtime.recover.read_bytes", "B"),
    ("codec.decode_ms", "ms"),
    ("codec.decode_mb_per_s", "MB/s"),
    ("codec.encode_ms", "ms"),
    ("codec.bytes", "B"),
    ("codec.max_record_bytes", "B"),
    ("disk.append.calls", "count"),
    ("disk.append.bytes", "B"),
    ("disk.append.busy_ms", "ms"),
    ("disk.write_atomic.calls", "count"),
    ("disk.write_atomic.bytes", "B"),
    ("disk.write_atomic.busy_ms", "ms"),
    ("disk.read.calls", "count"),
    ("disk.read.bytes", "B"),
    ("disk.read.busy_ms", "ms"),
    ("disk.read_range.calls", "count"),
    ("disk.read_range.bytes", "B"),
    ("disk.read_range.busy_ms", "ms"),
    ("disk.delete.calls", "count"),
    ("store.epochs", "count"),
    ("store.wal_bytes", "B"),
    ("store.memtable_bytes", "B"),
    ("store.records", "count"),
    ("store.write_amp", "ratio"),
    ("store.reopen_ms", "ms"),
    ("shard.round.calls", "count"),
    ("shard.round.busy_ms", "ms"),
    ("shard.round.self_ms", "ms"),
    ("shard.submit.busy_ms", "ms"),
    ("shard.grants", "count"),
    ("shard.recover.busy_ms", "ms"),
    ("shard.recover.store_open_ms", "ms"),
    ("activity.darwin.align_fixed.calls", "count"),
    ("activity.darwin.align_fixed.busy_ms", "ms"),
    ("activity.darwin.refine.calls", "count"),
    ("activity.darwin.refine.busy_ms", "ms"),
    ("activity.darwin.merge_entry.calls", "count"),
    ("activity.darwin.merge_entry.busy_ms", "ms"),
    ("activity.darwin.merge_pam.calls", "count"),
    ("activity.darwin.merge_pam.busy_ms", "ms"),
    ("activity.total.calls", "count"),
    ("activity.total.busy_ms", "ms"),
    ("awareness.open_tail_ms", "ms"),
    ("awareness.report_ms", "ms"),
    ("awareness.events", "count"),
    ("trace.spans", "count"),
    ("trace.tasks_per_s", "1/s"),
    ("trace.untraced_tasks_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("run.iterations", "count"),
    ("run.steps", "count"),
    ("run.recoveries", "count"),
    ("run.tasks", "count"),
    ("run.host_factor", "ratio"),
];

/// Timed batches of set-ups per run; `setup_s` is the median over them of
/// the time per set-up.
pub const SETUP_BATCHES: usize = 15;

/// Everything one benchmark run produced.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Root instances submitted.
    pub attempted: u64,
    /// Root instances that errored or failed their check.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, String)>,
    /// Untraced iterations run.
    pub iterations: usize,
    /// The tail percentile `step_ms_tail` reports.
    pub tail_pct: f64,
    /// Steps of one iteration.
    pub steps_per_iteration: usize,
    /// Median host slowdown against the reference speed over the run.
    pub host_factor: f64,
    /// Median slowdown of the probes around long operations.
    pub long_factor: f64,
    /// Check failures, for the log.
    pub problems: Vec<String>,
    /// The traced iteration's tracer, when one ran.
    pub tracer: Option<Arc<Tracer>>,
}

/// Time `n` set-ups of `w` in a row; the time per set-up at the reference
/// speed, s.  The prepared iterations are dropped after the timing.
fn timed_setups(w: Workload, opts: &Options, n: usize, clock: &mut HostClock) -> f64 {
    let tracer = Tracer::new(false);
    let (prepared, secs) = clock.time_long(|| {
        let c0 = clock::process_cpu();
        let prepared: Vec<_> = (0..n).map(|_| prepare(w, opts, &tracer)).collect();
        (prepared, clock::process_cpu() - c0)
    });
    drop(prepared);
    clock.skip();
    secs / n as f64
}

/// Run `w`: [`Workload::iterations`] untraced iterations for `seconds`,
/// then, with `trace`, one traced iteration.
pub fn measure(w: Workload, opts: &Options, seconds: f64, trace: bool) -> Report {
    let mut clock = HostClock::new(w.threads());
    let mut runs: Vec<Outcome> = Vec::new();
    let mut peak_rss_mb = 0.0;
    for i in 0..w.iterations(seconds) {
        runs.push(prepare(w, opts, &Tracer::new(false)).run(&mut clock));
        if i == 0 {
            // The high-water mark of one iteration, independent of how
            // many iterations the run makes.
            peak_rss_mb = peak_rss_bytes().unwrap_or(0) as f64 / 1e6;
        }
    }
    // A set-up takes from a fifth of a millisecond to tens of them, so
    // set-ups are timed in batches that each last tens of milliseconds.
    let setups: Vec<f64> = (0..SETUP_BATCHES)
        .map(|_| timed_setups(w, opts, w.setups_per_batch(), &mut clock))
        .collect();

    // Every metric is taken per iteration, then the median over the
    // iterations, so a slow spell of the host that hits one iteration does
    // not move the run's figure.
    let per_iter = |f: &dyn Fn(&Outcome) -> f64| -> f64 {
        median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let steps_per_iteration = runs[0].step_ms.len();
    let tail_pct = tail_percentile(steps_per_iteration);
    let untraced_tps = per_iter(&Outcome::tasks_per_s);
    let mut values = vec![
        untraced_tps,
        per_iter(&|o| mean(&o.step_ms).unwrap_or(0.0)),
        per_iter(&|o| percentile(&o.step_ms, tail_pct).unwrap_or(0.0)),
        per_iter(&|o| median(&o.recover_ms).unwrap_or(0.0)),
        median(&setups).unwrap_or(0.0),
        per_iter(&Outcome::disk_write_mb),
        peak_rss_mb,
        per_iter(&Outcome::reruns_per_task),
    ];
    let mut names: Vec<(&str, &str)> = END_TO_END.to_vec();

    let mut tracer = None;
    if trace {
        let t = Tracer::new(true);
        let mut outcome = prepare(w, opts, &t).run(&mut clock);
        let traced_tps = outcome.tasks_per_s();
        let layers = &mut outcome.layers;
        layers.insert("run.host_factor".into(), clock.median_factor());
        layers.insert("trace.tasks_per_s".into(), traced_tps);
        layers.insert("trace.untraced_tasks_per_s".into(), untraced_tps);
        layers.insert(
            "trace.overhead_pct".into(),
            (untraced_tps - traced_tps) / untraced_tps.max(1e-9) * 100.0,
        );
        layers.insert("run.iterations".into(), runs.len() as f64);
        layers.insert("run.steps".into(), outcome.counts.steps as f64);
        layers.insert("run.recoveries".into(), outcome.counts.recoveries as f64);
        layers.insert("run.tasks".into(), outcome.counts.tasks as f64);
        names = PER_LAYER.to_vec();
        values = PER_LAYER
            .iter()
            .map(|(n, _)| layers.get(*n).copied().unwrap_or(0.0))
            .collect();
        runs.push(outcome);
        tracer = Some(t);
    }

    let attempted = runs.iter().map(|o| o.attempted).sum();
    let failed = runs.iter().map(|o| o.failed).sum();
    let problems: Vec<String> = runs.iter().flat_map(|o| o.problems.clone()).collect();
    Report {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics: names
            .iter()
            .zip(values)
            .map(|((n, u), v)| (n.to_string(), v, u.to_string()))
            .collect(),
        iterations: runs.len() - usize::from(trace),
        tail_pct,
        steps_per_iteration,
        host_factor: clock.median_factor(),
        long_factor: clock.median_long_factor(),
        problems,
        tracer,
    }
}

/// A JSON number: finite values as Rust prints them (shortest exact
/// round-trip form), anything else as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Escape a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Write the traced iteration's spans as JSON lines
/// (`id`, `parent`, `name`, `start_ns`, `end_ns`, `self_ns`).
pub fn write_spans(tracer: &Tracer, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let names = tracer.names();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent,
            json_str(&names[s.name as usize]),
            s.start_ns,
            s.end_ns,
            selfs[&s.id]
        )?;
    }
    w.flush()
}
