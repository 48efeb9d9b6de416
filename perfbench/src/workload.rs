//! What every workload shares: options, the per-iteration outcome, and the
//! per-layer probes that do not depend on the engine.

use crate::clock::HostClock;
use crate::disk::DiskCounts;
use crate::trace::{totals_by_name, Tracer};
use bioopera_core::{Awareness, InstanceHeader, TaskRecord};
use bioopera_store::{Disk, Space, Store};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1's non-shared run (paper input, no server crash).
    Sp38Nonshared,
    /// Synthetic all-vs-all on `FileDisk` with ten server crashes.
    Sp38Recovery,
    /// Open-loop chains on the sharded engine, two mid-run recoveries.
    ShardChains,
    /// Real alignments through the darwin kernel.
    RealAllVsAll,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Sp38Nonshared,
        Workload::Sp38Recovery,
        Workload::ShardChains,
        Workload::RealAllVsAll,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sp38Nonshared => "sp38_nonshared",
            Workload::Sp38Recovery => "sp38_recovery",
            Workload::ShardChains => "shard_chains",
            Workload::RealAllVsAll => "real_allvsall",
        }
    }

    /// Iterations a run of `seconds` makes: as many whole iterations of
    /// the workload's nominal length (on a 2-core host) as fit, at least
    /// one.  A count fixed by `seconds` alone, not by how fast the host
    /// happens to be, keeps every run's mix of cold and warm iterations
    /// the same.
    pub fn iterations(self, seconds: f64) -> usize {
        let nominal_s = match self {
            Workload::Sp38Nonshared => 16.0,
            Workload::Sp38Recovery => 10.0,
            Workload::ShardChains => 9.0,
            Workload::RealAllVsAll => 9.0,
        };
        ((seconds / nominal_s).floor() as usize).max(1)
    }

    /// Set-ups timed together for `setup_s`: enough that a batch lasts
    /// tens of milliseconds (one set-up takes about 0.2 ms on
    /// `shard_chains`, 2 ms on the synthetic all-vs-all workloads and
    /// 25 ms on `real_allvsall`).
    pub fn setups_per_batch(self) -> usize {
        match self {
            Workload::ShardChains => 200,
            Workload::Sp38Nonshared | Workload::Sp38Recovery => 20,
            Workload::RealAllVsAll => 2,
        }
    }

    /// Threads the workload keeps busy at once (the host-speed probe runs
    /// on as many).
    pub fn threads(self) -> usize {
        match self {
            Workload::ShardChains => crate::chains::config().threads,
            _ => 1,
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Inputs shared by every workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed (see each workload for what it drives).
    pub seed: u64,
    /// Shrunken inputs for tests.
    pub short: bool,
    /// Directory under which `FileDisk` workloads make their temp dirs.
    pub scratch: PathBuf,
}

/// Counts that depend only on the inputs: a traced and an untraced
/// iteration of the same seed must agree on all of them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    /// `Runtime::step` or `ShardEngine::step_round` calls.
    pub steps: u64,
    /// Server recoveries.
    pub recoveries: u64,
    /// Activity tasks of the definition that completed.
    pub tasks: u64,
    /// Activity executions (the wrapped library's calls).
    pub executions: u64,
    /// Executions per binding.
    pub activity: Vec<(String, u64)>,
    /// Disk counters over the iteration.
    pub disk: DiskCounts,
}

/// One iteration's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds from first submit to last completion: process CPU time at
    /// the reference host speed.
    pub run_s: f64,
    /// Milliseconds of every step / round.
    pub step_ms: Vec<f64>,
    /// Milliseconds of every recovery.
    pub recover_ms: Vec<f64>,
    /// Deterministic counts, over the whole iteration (post-run crashes
    /// included, the benchmark's own reopen probes excluded).
    pub counts: Counts,
    /// Bytes handed to `append` + `write_atomic` from first submit to
    /// last completion.
    pub written_bytes: u64,
    /// Root instances submitted.
    pub attempted: u64,
    /// Root instances that errored or failed their output check.
    pub failed: u64,
    /// What went wrong, for the log.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced iterations only).
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    /// Activity tasks completed per second of [`Outcome::run_s`].
    pub fn tasks_per_s(&self) -> f64 {
        self.counts.tasks as f64 / self.run_s.max(1e-9)
    }

    /// Activity executions per definition task.
    pub fn reruns_per_task(&self) -> f64 {
        self.counts.executions as f64 / self.counts.tasks.max(1) as f64
    }

    /// Bytes handed to `append` + `write_atomic` during the run, in MB.
    pub fn disk_write_mb(&self) -> f64 {
        self.written_bytes as f64 / 1e6
    }

    /// Record a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}

/// A set-up workload, ready to run one iteration.
pub trait Prepared {
    /// Run the iteration to the end and check its outputs; every duration
    /// in the outcome is scaled to the reference speed by `clock`.
    fn run(self: Box<Self>, clock: &mut HostClock) -> Outcome;
}

/// Set up `w` (the timed part: inputs, store, templates).
pub fn prepare(w: Workload, opts: &Options, tracer: &Arc<Tracer>) -> Box<dyn Prepared> {
    match w {
        Workload::ShardChains => crate::chains::prepare(opts, tracer),
        _ => crate::allvsall::prepare(w, opts, tracer),
    }
}

/// Codec probe: decode every instance-space record into its core type and
/// re-encode it.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecProbe {
    /// Decode time, ms.
    pub decode_ms: f64,
    /// Encode time, ms.
    pub encode_ms: f64,
    /// Record bytes decoded.
    pub bytes: u64,
    /// Largest record.
    pub max_record_bytes: u64,
}

impl CodecProbe {
    /// Run the probe over `store` and add its numbers to `self`.
    pub fn add<D: Disk>(&mut self, store: &Store<D>) -> Result<(), String> {
        let records = store
            .scan_prefix(Space::Instance, "")
            .map_err(|e| format!("codec scan: {e}"))?;
        for (key, bytes) in records {
            let t0 = Instant::now();
            let encoded = if key.ends_with("/header") {
                let h: InstanceHeader =
                    serde_json::from_slice(&bytes).map_err(|e| format!("decode {key}: {e}"))?;
                let t1 = Instant::now();
                let out = serde_json::to_vec(&h).map_err(|e| format!("encode {key}: {e}"))?;
                (t1, out)
            } else if key.contains("/task/") {
                let r: TaskRecord =
                    serde_json::from_slice(&bytes).map_err(|e| format!("decode {key}: {e}"))?;
                let t1 = Instant::now();
                let out = serde_json::to_vec(&r).map_err(|e| format!("encode {key}: {e}"))?;
                (t1, out)
            } else {
                continue;
            };
            let (t1, out) = encoded;
            self.decode_ms += (t1 - t0).as_secs_f64() * 1e3;
            self.encode_ms += t1.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(out);
            self.bytes += bytes.len() as u64;
            self.max_record_bytes = self.max_record_bytes.max(bytes.len() as u64);
        }
        Ok(())
    }

    /// Write the `codec.*` layer metrics.
    pub fn emit(&self, layers: &mut BTreeMap<String, f64>) {
        layers.insert("codec.decode_ms".into(), self.decode_ms);
        layers.insert("codec.encode_ms".into(), self.encode_ms);
        layers.insert("codec.bytes".into(), self.bytes as f64);
        layers.insert(
            "codec.max_record_bytes".into(),
            self.max_record_bytes as f64,
        );
        let mb_per_s = if self.decode_ms > 0.0 {
            self.bytes as f64 / 1e6 / (self.decode_ms / 1e3)
        } else {
            0.0
        };
        layers.insert("codec.decode_mb_per_s".into(), mb_per_s);
    }
}

/// Key + value bytes of every live record.
pub fn live_bytes<D: Disk>(store: &Store<D>) -> u64 {
    Space::ALL
        .into_iter()
        .filter_map(|space| store.scan_prefix(space, "").ok())
        .flatten()
        .map(|(k, v)| (k.len() + v.len()) as u64)
        .sum()
}

/// Per-layer metrics every workload reports the same way: span totals,
/// disk counters, activity counters, and the store at the end of the run.
pub fn common_layers<D: Disk>(
    tracer: &Tracer,
    counts: &Counts,
    store: &Store<D>,
    layers: &mut BTreeMap<String, f64>,
) {
    let totals = totals_by_name(tracer);
    let busy = |name: &str| totals.get(name).map_or(0.0, |t| t.busy_ms);
    let d = &counts.disk;
    for (op, c) in [
        ("append", d.append),
        ("write_atomic", d.write_atomic),
        ("read", d.read),
        ("read_range", d.read_range),
    ] {
        layers.insert(format!("disk.{op}.calls"), c.calls as f64);
        layers.insert(format!("disk.{op}.bytes"), c.bytes as f64);
        layers.insert(format!("disk.{op}.busy_ms"), busy(&format!("disk.{op}")));
    }
    layers.insert("disk.delete.calls".into(), d.delete.calls as f64);
    for (binding, calls) in &counts.activity {
        let key = format!("activity.{binding}");
        layers.insert(format!("{key}.calls"), *calls as f64);
        layers.insert(format!("{key}.busy_ms"), busy(&key));
    }
    layers.insert("activity.total.calls".into(), counts.executions as f64);
    let act_busy: f64 = totals
        .iter()
        .filter(|(n, _)| n.starts_with("activity."))
        .map(|(_, t)| t.busy_ms)
        .sum();
    layers.insert("activity.total.busy_ms".into(), act_busy);
    let st = store.stats();
    layers.insert("store.epochs".into(), st.epoch as f64);
    layers.insert("store.wal_bytes".into(), st.wal_bytes as f64);
    layers.insert("store.memtable_bytes".into(), st.memtable_bytes as f64);
    layers.insert("store.records".into(), st.records as f64);
    let live = live_bytes(store).max(1);
    layers.insert("store.write_amp".into(), d.written() as f64 / live as f64);
    layers.insert(
        "trace.spans".into(),
        totals.values().map(|t| t.calls).sum::<u64>() as f64,
    );
}

/// Time a fresh `Store::open` of `disk` and an `Awareness::open_tail` over
/// it (the post-run reopen probes).
pub fn reopen_probes<D: Disk + Clone>(
    disk: &D,
    layers: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let store = Store::open(disk.clone()).map_err(|e| format!("reopen: {e}"))?;
    layers.insert("store.reopen_ms".into(), t0.elapsed().as_secs_f64() * 1e3);
    let t1 = Instant::now();
    Awareness::open_tail(&store).map_err(|e| format!("awareness reopen: {e}"))?;
    layers.insert(
        "awareness.open_tail_ms".into(),
        t1.elapsed().as_secs_f64() * 1e3,
    );
    Ok(())
}
