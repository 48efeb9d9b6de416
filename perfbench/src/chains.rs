//! `shard_chains`: an open loop of tiny `A -> B` chains on `ShardEngine`,
//! with the engine dropped and recovered from its store halfway through
//! the load.

use crate::allvsall::splitmix64;
use crate::clock::HostClock;
use crate::disk::MeteredDisk;
use crate::library::{meter, ActivityCounts};
use crate::trace::{totals_by_name, Tracer};
use crate::workload::{common_layers, reopen_probes, CodecProbe, Options, Outcome, Prepared};
use bioopera_core::{
    ActivityLibrary, EngineResult, InstanceStatus, ProgramOutput, ShardConfig, ShardEngine,
};
use bioopera_ocr::model::TypeTag;
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{MemDisk, Store};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Load shape: chains submitted before each of the first `load_rounds`
/// rounds, and the round after which the engine is recovered (twice in a
/// row, so each iteration times two recoveries).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// New chains before each loaded round.
    pub per_round: usize,
    /// Rounds that receive new chains.
    pub load_rounds: usize,
    /// The engine is dropped and recovered after this many rounds.
    pub recover_after: usize,
}

/// The full and short load shapes.  128 chains a round equals the slot
/// capacity (4 nodes × 64), so the backlog stays flat while loading.
/// 500 loaded rounds (64,000 chains) keep an iteration near nine seconds
/// and one gigabyte, so a run holds three of them and reports medians.
pub fn shape(short: bool) -> Shape {
    if short {
        Shape {
            per_round: 16,
            load_rounds: 20,
            recover_after: 10,
        }
    } else {
        Shape {
            per_round: 128,
            load_rounds: 500,
            recover_after: 250,
        }
    }
}

/// Recoveries timed back to back at `recover_after`.
const RECOVERIES: usize = 2;

/// `shard_bench`'s two programs: `p.a` passes `x` on, `p.b` doubles it.
pub fn library() -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("p.a", |inputs| {
        let x = inputs.get("x").and_then(|v| v.as_int()).unwrap_or(7);
        Ok(ProgramOutput::from_fields([("x", Value::Int(x))], 10.0))
    });
    lib.register("p.b", |inputs| {
        let x = inputs
            .get("x")
            .and_then(|v| v.as_int())
            .ok_or_else(|| "missing x".to_string())?;
        Ok(ProgramOutput::from_fields([("y", Value::Int(x * 2))], 20.0))
    });
    lib
}

/// `shard_bench`'s `A -> B` chain.
pub fn chain_template() -> ProcessTemplate {
    ProcessBuilder::new("Chain")
        .whiteboard_default("x", TypeTag::Int, Value::Int(7))
        .whiteboard_field("y", TypeTag::Int)
        .activity("A", "p.a", |t| {
            t.input("x", TypeTag::Int).output("x", TypeTag::Int)
        })
        .activity("B", "p.b", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .connect("A", "B")
        .flow_from_whiteboard("x", "A", "x")
        .flow_to_task("A", "x", "B", "x")
        .flow_to_whiteboard("B", "y", "y")
        .build()
        .expect("chain template is valid")
}

/// Two shards on two stepper threads, pinned (the environment's shard
/// override is not consulted).
pub fn config() -> ShardConfig {
    ShardConfig {
        shards: 2,
        threads: 2,
        nodes: 4,
        node_capacity: 64,
        ..ShardConfig::default()
    }
}

struct ChainsRun {
    shape: Shape,
    engine: ShardEngine<MeteredDisk<MemDisk>>,
    disk: MeteredDisk<MemDisk>,
    library: ActivityLibrary,
    acts: Arc<ActivityCounts>,
    tracer: Arc<Tracer>,
    xs: Vec<i64>,
}

/// Set up `shard_chains`: the seed picks every chain's `x`.
pub fn prepare(opts: &Options, tracer: &Arc<Tracer>) -> Box<dyn Prepared> {
    let shape = shape(opts.short);
    let mut state = opts.seed;
    let xs = (0..shape.per_round * shape.load_rounds)
        .map(|_| (splitmix64(&mut state) % 1_000) as i64)
        .collect();
    let disk = MeteredDisk::new(MemDisk::new(), tracer);
    let (library, acts) = meter(&library(), tracer);
    let store = Store::open(disk.clone()).expect("open store");
    let mut engine = ShardEngine::new(store, library.clone(), config()).expect("shard engine");
    engine
        .register_template(chain_template())
        .expect("register chain template");
    Box::new(ChainsRun {
        shape,
        engine,
        disk,
        library,
        acts,
        tracer: Arc::clone(tracer),
        xs,
    })
}

impl Prepared for ChainsRun {
    fn run(self: Box<Self>, clock: &mut HostClock) -> Outcome {
        let ChainsRun {
            shape,
            engine,
            disk,
            library,
            acts,
            tracer,
            xs,
        } = *self;
        let traced = tracer.enabled();
        let n_submit = tracer.intern("shard.submit");
        let n_round = tracer.intern("shard.round");
        let n_recover = tracer.intern("shard.recover");
        let n_open = tracer.intern("store.open");
        let mut out = Outcome {
            attempted: xs.len() as u64,
            ..Default::default()
        };
        let mut engine = Some(engine);
        let mut ids = Vec::with_capacity(xs.len());
        let mut grants_before_crash = 0u64;
        let mut open_ms = 0.0;
        let mut codec = CodecProbe::default();
        let disk0 = disk.counts();

        clock.tick();
        let t0 = clock.normalized_s();
        let mut round = 0usize;
        while let Some(eng) = engine.as_mut() {
            if round < shape.load_rounds {
                let batch = &xs[round * shape.per_round..(round + 1) * shape.per_round];
                let (res, _) = tracer.call(n_submit, || -> EngineResult<()> {
                    for &x in batch {
                        let initial = BTreeMap::from([("x".to_string(), Value::Int(x))]);
                        ids.push(eng.submit("Chain", initial)?);
                    }
                    Ok(())
                });
                if let Err(e) = res {
                    out.problem(format!("submit: {e}"));
                    break;
                }
            }
            let (res, d) = tracer.call(n_round, || eng.step_round());
            let ms = clock.normalize(d.cpu) * 1e3;
            clock.tick();
            match res {
                Ok(true) => out.step_ms.push(ms),
                Ok(false) => break,
                Err(e) => {
                    out.problem(format!("step_round: {e}"));
                    break;
                }
            }
            round += 1;
            if round == shape.recover_after {
                grants_before_crash = eng.stats().grants;
                for _ in 0..RECOVERIES {
                    // A crash: every volatile structure goes; the disk stays.
                    engine = None;
                    let (res, secs) = clock.time_long(|| {
                        let (res, d) = tracer.call(n_recover, || {
                            let (store, d_open) = tracer.call(n_open, || Store::open(disk.clone()));
                            open_ms += d_open.wall.as_secs_f64() * 1e3;
                            ShardEngine::recover(store?, library.clone(), config())
                        });
                        (res, d.cpu)
                    });
                    out.recover_ms.push(secs * 1e3);
                    match res {
                        Ok(eng) => engine = Some(eng),
                        Err(e) => {
                            out.problem(format!("recover: {e}"));
                            break;
                        }
                    }
                    if let (true, Some(eng)) = (traced, engine.as_ref()) {
                        if let Err(e) = codec.add(eng.store()) {
                            out.problem(e);
                        }
                        // The probe's time is not the run's.
                        clock.skip();
                    }
                }
            }
        }
        clock.tick();
        out.run_s = clock.normalized_s() - t0;
        out.counts.disk = disk.counts().since(&disk0);
        out.written_bytes = out.counts.disk.written();

        let mut completed = 0u64;
        if let Some(eng) = engine.as_ref() {
            for (&id, &x) in ids.iter().zip(&xs) {
                let ok = eng.instance_status(id) == Some(InstanceStatus::Completed)
                    && eng
                        .instance_whiteboard(id)
                        .and_then(|wb| wb.get("y"))
                        .and_then(Value::as_int)
                        == Some(2 * x);
                if ok {
                    completed += 1;
                }
            }
        }
        out.failed = out.attempted - completed;
        if out.failed > 0 {
            out.problem(format!(
                "{} of {} chains not Completed with y == 2x",
                out.failed, out.attempted
            ));
        }
        out.counts.steps = out.step_ms.len() as u64;
        out.counts.recoveries = out.recover_ms.len() as u64;
        out.counts.tasks = 2 * completed;
        out.counts.executions = acts.total();
        out.counts.activity = acts.all();
        let Some(eng) = engine.filter(|_| traced) else {
            return out;
        };

        // ---- per-layer split (traced iterations only) ----
        let totals = totals_by_name(&tracer);
        let layers = &mut out.layers;
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        layers.insert("shard.round.calls".into(), t("shard.round").calls as f64);
        layers.insert("shard.round.busy_ms".into(), t("shard.round").busy_ms);
        layers.insert("shard.round.self_ms".into(), t("shard.round").self_ms);
        layers.insert("shard.submit.busy_ms".into(), t("shard.submit").busy_ms);
        layers.insert(
            "shard.grants".into(),
            (grants_before_crash + eng.stats().grants) as f64,
        );
        layers.insert("shard.recover.busy_ms".into(), t("shard.recover").busy_ms);
        layers.insert("shard.recover.store_open_ms".into(), open_ms);
        codec.emit(layers);
        layers.insert(
            "awareness.events".into(),
            eng.awareness().index().len() as f64,
        );
        common_layers(&tracer, &out.counts, eng.store(), layers);
        drop(eng);
        if let Err(e) = reopen_probes(&disk, layers) {
            out.problems.push(e);
        }
        tracer.end_root();
        out
    }
}
