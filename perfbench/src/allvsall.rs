//! The three workloads that drive the all-vs-all process through
//! `Runtime`: `sp38_nonshared`, `sp38_recovery` and `real_allvsall`.

use crate::clock::HostClock;
use crate::disk::MeteredDisk;
use crate::library::{meter, ActivityCounts};
use crate::trace::{totals_by_name, NameId, Tracer};
use crate::workload::{
    common_layers, reopen_probes, CodecProbe, Options, Outcome, Prepared, Workload,
};
use bioopera_cluster::{Cluster, SimTime, Trace};
use bioopera_core::{InstanceStatus, Runtime, RuntimeConfig};
use bioopera_darwin::{DatasetConfig, PamFamily, SequenceDb};
use bioopera_ocr::model::TaskKind;
use bioopera_ocr::value::Value;
use bioopera_store::{Disk, FileDisk, MemDisk};
use bioopera_workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SP38 size (Swiss-Prot v38).
pub const SP38_N: usize = 75_458;

/// Table 1, non-shared column (`results/table1_allvsall.txt`).
pub const TABLE1_NONSHARED_WALL: &str = "36d 05h 03m";
/// Table 1, non-shared column.
pub const TABLE1_NONSHARED_CPU: &str = "374d 23h 00m";

/// Recorded result of `real_allvsall` (800 sequences, seed 38, 25 TEUs).
/// The queue order the seed picks does not change it.
pub const REAL_REFERENCE: Reference = Reference {
    match_count: 2411,
    digest: "a789d03c3f741df1",
    pam_buckets: "10:3,20:36,35:89,50:156,70:253,90:419,120:718,150:526,180:204,220:7",
};

/// A recorded final whiteboard.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// `match_count`.
    pub match_count: i64,
    /// `digest`.
    pub digest: &'static str,
    /// `pam_buckets`, rendered by [`render_buckets`].
    pub pam_buckets: &'static str,
}

enum Check {
    /// The final whiteboard equals the engine-free oracle.
    Oracle,
    /// Oracle, plus WALL(P) and CPU(P) equal Table 1's non-shared column.
    Table1,
    /// The final whiteboard equals a recorded reference.
    Recorded(Reference),
}

/// Everything that defines one of the three workloads.
struct Spec {
    setup: AllVsAllSetup,
    cluster: Cluster,
    trace: Trace,
    crashes: Crashes,
    check: Check,
    on_file_disk: bool,
}

/// When the benchmark crashes the server and times `recover_server()`.
#[derive(Debug, Clone, Copy)]
enum Crashes {
    /// Right after submit, `batches` timed batches of `per_batch`
    /// restarts in a row: the restart path over a store holding one fresh
    /// instance (it leaves the run unchanged, and its time is left out of
    /// the run's).  A restart takes about half a millisecond, so each is
    /// timed as part of a batch that lasts tens of milliseconds.
    AtSubmit { batches: u32, per_batch: u32 },
    /// After every `k`-th `task.end`.
    EveryTaskEnds(u64),
    /// `n` times after the run completed: recovery of the final store.
    AfterRun(u32),
}

/// Deterministic permutation of `0..n` (Fisher–Yates over splitmix64).
pub fn permutation(n: usize, seed: u64) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// One splitmix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spec(w: Workload, opts: &Options) -> Spec {
    let short = opts.short;
    match w {
        // The paper's own run: its input is fixed so Table 1 can be
        // checked exactly; the seed does not change it.
        Workload::Sp38Nonshared => {
            let (n, teus) = if short { (3_000, 20) } else { (SP38_N, 500) };
            Spec {
                setup: AllVsAllSetup::synthetic(n, 370, 38, config(teus)),
                cluster: Cluster::ik_linux(),
                trace: Trace::nonshared_run(),
                crashes: Crashes::AtSubmit {
                    batches: 20,
                    per_batch: 25,
                },
                check: if short { Check::Oracle } else { Check::Table1 },
                on_file_disk: false,
            }
        }
        // The seed picks the synthetic length distribution.
        Workload::Sp38Recovery => {
            let (n, teus, every) = if short {
                (600, 12, 4)
            } else {
                (10_000, 200, 40)
            };
            Spec {
                setup: AllVsAllSetup::synthetic(n, 370, opts.seed, config(teus)),
                cluster: Cluster::shared_pool(),
                trace: Trace::empty(),
                crashes: Crashes::EveryTaskEnds(every),
                check: Check::Oracle,
                on_file_disk: true,
            }
        }
        // The seed picks the order of the user-supplied queue file; the
        // match set (and so the reference) does not depend on it.
        Workload::RealAllVsAll => {
            let (n, teus) = if short { (48, 4) } else { (800, 25) };
            let pam = Arc::new(PamFamily::default());
            let db = Arc::new(SequenceDb::generate(&DatasetConfig::small(n, 38), &pam));
            let mut cfg = config(teus);
            cfg.queue_file = Some(permutation(n, opts.seed));
            Spec {
                setup: AllVsAllSetup::real(db, pam, cfg),
                cluster: Cluster::ik_sun(),
                trace: Trace::empty(),
                crashes: Crashes::AfterRun(2),
                check: if short {
                    Check::Oracle
                } else {
                    Check::Recorded(REAL_REFERENCE)
                },
                on_file_disk: false,
            }
        }
        Workload::ShardChains => unreachable!("shard_chains runs on ShardEngine"),
    }
}

fn config(teus: i64) -> AllVsAllConfig {
    AllVsAllConfig {
        teus,
        ..Default::default()
    }
}

/// A directory removed (best effort) on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, uniquely named directory under `parent`.
    pub fn new(parent: &Path) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("disk-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark temp dir");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set up one of the `Runtime` workloads.
pub fn prepare(w: Workload, opts: &Options, tracer: &Arc<Tracer>) -> Box<dyn Prepared> {
    let spec = spec(w, opts);
    if spec.on_file_disk {
        let dir = TempDir::new(&opts.scratch);
        let disk = FileDisk::open(dir.path()).expect("open FileDisk");
        Box::new(RtRun::new(spec, disk, Some(dir), tracer))
    } else {
        Box::new(RtRun::new(spec, MemDisk::new(), None, tracer))
    }
}

struct RtRun<D: Disk + 'static> {
    spec: Spec,
    rt: Runtime<MeteredDisk<D>>,
    disk: MeteredDisk<D>,
    acts: Arc<ActivityCounts>,
    tracer: Arc<Tracer>,
    initial: BTreeMap<String, Value>,
    // Dropped last: the runtime's files live here.
    _dir: Option<TempDir>,
}

impl<D: Disk + 'static> RtRun<D> {
    fn new(spec: Spec, disk: D, dir: Option<TempDir>, tracer: &Arc<Tracer>) -> Self {
        let disk = MeteredDisk::new(disk, tracer);
        let (library, acts) = meter(&spec.setup.library, tracer);
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_hours(2),
            ..Default::default()
        };
        let mut rt = Runtime::new(disk.clone(), spec.cluster.clone(), library, cfg)
            .expect("runtime construction");
        rt.register_template(&spec.setup.chunk_template)
            .expect("register chunk template");
        rt.register_template(&spec.setup.template)
            .expect("register top template");
        rt.install_trace(&spec.trace);
        let initial = spec.setup.initial();
        RtRun {
            spec,
            rt,
            disk,
            acts,
            tracer: Arc::clone(tracer),
            initial,
            _dir: dir,
        }
    }
}

impl<D: Disk + 'static> Prepared for RtRun<D> {
    fn run(self: Box<Self>, clock: &mut HostClock) -> Outcome {
        let RtRun {
            spec,
            mut rt,
            disk,
            acts,
            tracer,
            initial,
            _dir,
        } = *self;
        let traced = tracer.enabled();
        let n_submit = tracer.intern("runtime.submit");
        let n_step = tracer.intern("runtime.step");
        let n_recover = tracer.intern("runtime.recover");
        let mut out = Outcome {
            attempted: 1,
            ..Default::default()
        };
        let (mut rq_sum, mut rq_max) = (0u64, 0u64);
        let (mut compacting_calls, mut compacting_ms) = (0u64, 0.0f64);
        let disk0 = disk.counts();

        clock.tick();
        let t0 = clock.normalized_s();
        let id = match tracer.call(n_submit, || rt.submit("AllVsAll", initial)).0 {
            Ok(id) => id,
            Err(e) => {
                out.problem(format!("submit: {e}"));
                out.failed = 1;
                return out;
            }
        };
        let mut rec = Recoverer {
            tracer: &tracer,
            disk: &disk,
            name: n_recover,
            codec: CodecProbe::default(),
            read_bytes: 0,
            recoveries: 0,
        };
        let mut restarts_s = 0.0;
        if let Crashes::AtSubmit { batches, per_batch } = spec.crashes {
            let before = clock.normalized_s();
            for _ in 0..batches {
                rec.recover(&mut rt, &mut out, clock, per_batch);
            }
            restarts_s = clock.normalized_s() - before;
        }
        let every = match spec.crashes {
            Crashes::EveryTaskEnds(k) => k,
            _ => u64::MAX,
        };
        let mut next_crash = every;
        while out.problems.is_empty() {
            let epoch0 = traced.then(|| rt.store().stats().epoch);
            let (res, d) = tracer.call(n_step, || rt.step());
            let ms = clock.normalize(d.cpu) * 1e3;
            clock.tick();
            match res {
                Ok(true) => out.step_ms.push(ms),
                Ok(false) => break,
                Err(e) => {
                    out.problem(format!("step: {e}"));
                    break;
                }
            }
            if let Some(epoch0) = epoch0 {
                let q = rt.ready_queue_len() as u64;
                rq_sum += q;
                rq_max = rq_max.max(q);
                if rt.store().stats().epoch != epoch0 {
                    compacting_calls += 1;
                    compacting_ms += d.wall.as_secs_f64() * 1e3;
                }
            }
            if rt.awareness().index().count("task.end") as u64 >= next_crash {
                next_crash = next_crash.saturating_add(every);
                rec.recover(&mut rt, &mut out, clock, 1);
            }
        }
        clock.tick();
        out.run_s = clock.normalized_s() - t0 - restarts_s;
        out.written_bytes = disk.counts().since(&disk0).written();
        if let Crashes::AfterRun(n) = spec.crashes {
            for _ in 0..n {
                if !rec.recover(&mut rt, &mut out, clock, 1) {
                    break;
                }
            }
        }

        check(&spec, &rt, id, &mut out);
        out.counts.steps = out.step_ms.len() as u64;
        out.counts.recoveries = rec.recoveries;
        out.counts.tasks = definition_tasks(&spec.setup, &rt);
        out.counts.executions = acts.total();
        out.counts.activity = acts.all();
        out.counts.disk = disk.counts().since(&disk0);
        if !out.problems.is_empty() {
            out.failed = 1;
        }
        if !traced {
            return out;
        }

        // ---- per-layer split (traced iterations only) ----
        let totals = totals_by_name(&tracer);
        let layers = &mut out.layers;
        for key in ["runtime.step", "runtime.recover"] {
            let t = totals.get(key).copied().unwrap_or_default();
            layers.insert(format!("{key}.calls"), t.calls as f64);
            layers.insert(format!("{key}.busy_ms"), t.busy_ms);
            layers.insert(format!("{key}.self_ms"), t.self_ms);
        }
        layers.insert("runtime.events".into(), rt.events_processed() as f64);
        let steps = out.counts.steps.max(1) as f64;
        layers.insert("runtime.ready_queue.mean".into(), rq_sum as f64 / steps);
        layers.insert("runtime.ready_queue.max".into(), rq_max as f64);
        layers.insert(
            "runtime.step.compacting.calls".into(),
            compacting_calls as f64,
        );
        layers.insert("runtime.step.compacting.busy_ms".into(), compacting_ms);
        layers.insert("runtime.recover.read_bytes".into(), rec.read_bytes as f64);
        rec.codec.emit(layers);
        let ta = Instant::now();
        std::hint::black_box(rt.run_report(SimTime::from_hours(12)));
        layers.insert(
            "awareness.report_ms".into(),
            ta.elapsed().as_secs_f64() * 1e3,
        );
        layers.insert(
            "awareness.events".into(),
            rt.awareness().index().len() as f64,
        );
        common_layers(&tracer, &out.counts, rt.store(), layers);
        drop(rt);
        if let Err(e) = reopen_probes(&disk, layers) {
            out.problems.push(e);
            out.failed = 1;
        }
        tracer.end_root();
        out
    }
}

/// Crash + timed recovery, with the codec probe after each traced one.
struct Recoverer<'a, D> {
    tracer: &'a Tracer,
    disk: &'a MeteredDisk<D>,
    name: NameId,
    codec: CodecProbe,
    /// Bytes the recoveries read from disk.
    read_bytes: u64,
    /// `recover_server()` calls.
    recoveries: u64,
}

impl<D: Disk + 'static> Recoverer<'_, D> {
    /// Crash the server and recover it, `times` times in a row, timed
    /// together; record the time per recovery.  `false` on an error.
    fn recover(
        &mut self,
        rt: &mut Runtime<MeteredDisk<D>>,
        out: &mut Outcome,
        clock: &mut HostClock,
        times: u32,
    ) -> bool {
        let before = self.disk.counts().read_bytes();
        let (tracer, name) = (self.tracer, self.name);
        let (res, secs) = clock.time_long(|| {
            let mut busy = Duration::ZERO;
            for _ in 0..times {
                if let Err(e) = rt.crash_server() {
                    return (Err(format!("crash_server: {e}")), busy);
                }
                let (res, d) = tracer.call(name, || rt.recover_server());
                busy += d.cpu;
                if let Err(e) = res {
                    return (Err(format!("recover_server: {e}")), busy);
                }
            }
            (Ok(()), busy)
        });
        self.read_bytes += self.disk.counts().read_bytes() - before;
        self.recoveries += u64::from(times);
        out.recover_ms.push(secs * 1e3 / f64::from(times));
        if let Err(e) = res {
            out.problem(e);
            return false;
        }
        if self.tracer.enabled() {
            if let Err(e) = self.codec.add(rt.store()) {
                out.problem(e);
            }
            // The probe's time is not the run's.
            clock.skip();
        }
        true
    }
}

/// Activity tasks of the definition that ended, over every instance.
fn definition_tasks<D: Disk + Clone>(setup: &AllVsAllSetup, rt: &Runtime<D>) -> u64 {
    let mut n = 0;
    for (iid, _, name) in rt.instances() {
        let template = if name == setup.template.name {
            &setup.template
        } else {
            &setup.chunk_template
        };
        for (path, rec) in rt.task_records(iid).into_iter().flatten() {
            let is_activity = template
                .task(path)
                .is_some_and(|t| matches!(t.kind, TaskKind::Activity { .. }));
            if is_activity && rec.state == bioopera_core::TaskState::Ended {
                n += 1;
            }
        }
    }
    n
}

/// `pam_buckets` as `pam:count,...` for comparison with a reference.
pub fn render_buckets(v: Option<&Value>) -> String {
    let Some(list) = v.and_then(Value::as_list) else {
        return String::new();
    };
    list.iter()
        .map(|b| {
            let pam = b.get_path(&["pam"]).and_then(Value::as_int).unwrap_or(-1);
            let count = b.get_path(&["count"]).and_then(Value::as_int).unwrap_or(-1);
            format!("{pam}:{count}")
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn check<D: Disk + Clone>(spec: &Spec, rt: &Runtime<D>, id: u64, out: &mut Outcome) {
    if rt.instance_status(id) != Some(InstanceStatus::Completed) {
        out.problem(format!("instance ended {:?}", rt.instance_status(id)));
        return;
    }
    let Some(wb) = rt.whiteboard(id) else {
        out.problem("no whiteboard");
        return;
    };
    const FIELDS: [&str; 3] = ["match_count", "digest", "pam_buckets"];
    match spec.check {
        Check::Oracle | Check::Table1 => match oracle(&spec.setup) {
            Ok(expect) => {
                for f in FIELDS {
                    if wb.get(f) != expect.get(f) {
                        out.problem(format!(
                            "{f}: engine {:?} != oracle {:?}",
                            wb.get(f),
                            expect.get(f)
                        ));
                    }
                }
            }
            Err(e) => out.problem(format!("oracle: {e}")),
        },
        Check::Recorded(r) => {
            let count = wb.get("match_count").and_then(Value::as_int);
            let digest = wb.get("digest").and_then(Value::as_str);
            let buckets = render_buckets(wb.get("pam_buckets"));
            if count != Some(r.match_count) || digest != Some(r.digest) || buckets != r.pam_buckets
            {
                out.problem(format!(
                    "result {count:?} {digest:?} [{buckets}] != reference {} {} [{}]",
                    r.match_count, r.digest, r.pam_buckets
                ));
            }
        }
    }
    if let Check::Table1 = spec.check {
        match rt.stats(id) {
            Ok(s) => {
                let (wall, cpu) = (s.wall.to_string(), s.cpu.to_string());
                if wall != TABLE1_NONSHARED_WALL || cpu != TABLE1_NONSHARED_CPU {
                    out.problem(format!(
                        "Table 1: WALL {wall} CPU {cpu}, expected {TABLE1_NONSHARED_WALL} / {TABLE1_NONSHARED_CPU}"
                    ));
                }
            }
            Err(e) => out.problem(format!("stats: {e}")),
        }
    }
}

/// The engine-free result: call the workload's programs directly, in the
/// order the process definition runs them, and return the final
/// whiteboard fields.
pub fn oracle(setup: &AllVsAllSetup) -> Result<BTreeMap<String, Value>, String> {
    let lib = &setup.library;
    let call =
        |name: &str, inputs: Vec<(&str, Value)>| -> Result<BTreeMap<String, Value>, String> {
            let program = lib.get(name).ok_or_else(|| format!("no program {name}"))?;
            let inputs: BTreeMap<String, Value> = inputs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            program(&inputs).map(|o| o.outputs)
        };
    let field = |m: &BTreeMap<String, Value>, k: &str| m.get(k).cloned().unwrap_or(Value::Null);
    let initial = setup.initial();
    let mut ui_in = vec![("db_name", field(&initial, "db_name"))];
    if let Some(q) = initial.get("user_queue") {
        ui_in.push(("user_queue", q.clone()));
    }
    let ui = call("ui.collect", ui_in)?;
    let queue = match ui.get("queue_file") {
        Some(q) if *q != Value::Null => q.clone(),
        _ => field(
            &call("darwin.queue_gen", vec![("db_name", field(&ui, "db_name"))])?,
            "queue_file",
        ),
    };
    let part = call(
        "darwin.partition",
        vec![
            ("queue_file", queue),
            ("teus", Value::Int(setup.config.teus)),
        ],
    )?;
    let mut results = Vec::new();
    for item in field(&part, "partition").as_list().unwrap_or(&[]) {
        let fixed = call("darwin.align_fixed", vec![("item", item.clone())])?;
        let refined = call(
            "darwin.refine",
            vec![
                ("matches", field(&fixed, "matches")),
                ("synthetic_count", field(&fixed, "synthetic_count")),
            ],
        )?;
        results.push(Value::map_from([
            ("refined", field(&refined, "refined")),
            ("match_count", field(&refined, "match_count")),
        ]));
    }
    let results = Value::List(results);
    let mut wb = call("darwin.merge_entry", vec![("results", results.clone())])?;
    wb.extend(call("darwin.merge_pam", vec![("results", results)])?);
    Ok(wb)
}
