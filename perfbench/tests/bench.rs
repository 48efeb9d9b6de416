//! Tests of the benchmark itself: short workloads pass their checks, the
//! tracer changes no deterministic count, spans nest properly, and the
//! metering disk is transparent to the store.

use bioopera_store::{Batch, Disk, MemDisk, Space, Store, TieredPolicy};
use perfbench::clock::HostClock;
use perfbench::disk::MeteredDisk;
use perfbench::trace::{covered_ns, Tracer, ROOT};
use perfbench::workload::{prepare, Options, Outcome, Workload};
use perfbench::{measure, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

fn opts(seed: u64) -> Options {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
    Options {
        seed,
        short: true,
        scratch,
    }
}

fn iteration(w: Workload, seed: u64, traced: bool) -> (Outcome, Arc<Tracer>) {
    let tracer = Tracer::new(traced);
    let outcome = prepare(w, &opts(seed), &tracer).run(&mut HostClock::new(w.threads()));
    (outcome, tracer)
}

#[test]
fn short_workloads_pass_their_checks() {
    for w in Workload::ALL {
        let report = measure(w, &opts(3), 0.0, false);
        assert!(
            report.correct,
            "{}: {:?} (failed {} of {})",
            w.name(),
            report.problems,
            report.failed,
            report.attempted
        );
        assert!(report.attempted >= 1);
        let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let expect: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expect, "{}", w.name());
        for (n, v, _) in &report.metrics {
            assert!(v.is_finite() && *v > 0.0, "{}: {n} = {v}", w.name());
        }
    }
}

#[test]
fn tracing_changes_no_deterministic_count() {
    for w in Workload::ALL {
        let (plain, _) = iteration(w, 5, false);
        let (traced, _) = iteration(w, 5, true);
        assert!(
            plain.problems.is_empty(),
            "{}: {:?}",
            w.name(),
            plain.problems
        );
        assert!(
            traced.problems.is_empty(),
            "{}: {:?}",
            w.name(),
            traced.problems
        );
        assert_eq!(plain.counts, traced.counts, "{}", w.name());
        assert_eq!(plain.written_bytes, traced.written_bytes, "{}", w.name());
        assert_eq!(plain.reruns_per_task(), traced.reruns_per_task());
        assert!(plain.counts.steps > 0 && plain.counts.recoveries > 0);
        assert!(plain.layers.is_empty(), "untraced runs report no layers");
        for (name, _) in PER_LAYER {
            let traced_only = name.starts_with("trace.") || name.starts_with("run.");
            assert!(
                traced_only || traced.layers.contains_key(name) || !applies(w, name),
                "{}: traced run lacks {name}",
                w.name()
            );
        }
    }
}

/// Layers a workload does not drive may be absent from its split.
fn applies(w: Workload, name: &str) -> bool {
    let shard = w == Workload::ShardChains;
    if name.starts_with("shard.") {
        return shard;
    }
    if name.starts_with("runtime.") || name == "awareness.report_ms" {
        return !shard;
    }
    if name.starts_with("activity.darwin.") {
        return !shard;
    }
    true
}

#[test]
fn spans_nest_and_self_times_are_non_negative() {
    for w in Workload::ALL {
        let (outcome, tracer) = iteration(w, 7, true);
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        let spans = tracer.spans();
        let names = tracer.names();
        let by_id: HashMap<u64, _> = spans.iter().map(|s| (s.id, *s)).collect();
        let root = by_id.get(&ROOT).expect("workload root span");
        assert_eq!(names[root.name as usize], "workload");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            assert!(s.start_ns <= s.end_ns);
            if s.id == ROOT {
                continue;
            }
            let parent = by_id
                .get(&s.parent)
                .unwrap_or_else(|| panic!("span {} has no parent {}", s.id, s.parent));
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{} escapes its parent {}",
                names[s.name as usize],
                names[parent.name as usize]
            );
            let name = names[s.name as usize].as_str();
            let parent_name = names[parent.name as usize].as_str();
            if name.starts_with("activity.") {
                let expect = if w == Workload::ShardChains {
                    "shard.round"
                } else {
                    "runtime.step"
                };
                assert_eq!(parent_name, expect, "{} parent", name);
            }
            if name.starts_with("runtime.") || name.starts_with("shard.") {
                assert_eq!(parent_name, "workload", "{name} is top-level");
            }
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| covered_ns(iv, 0, u64::MAX));
            let self_ns = s.dur_ns() as i128 - covered as i128;
            assert!(
                self_ns >= 0,
                "{} self time {self_ns}",
                names[s.name as usize]
            );
        }
        let layers = &outcome.layers;
        for key in ["runtime.step", "runtime.recover", "shard.round"] {
            if let (Some(busy), Some(own)) = (
                layers.get(&format!("{key}.busy_ms")),
                layers.get(&format!("{key}.self_ms")),
            ) {
                assert!(*own >= 0.0 && own <= busy, "{key}: self {own} busy {busy}");
            }
        }
    }
}

fn apply_script<D: Disk>(store: &Store<D>) {
    for round in 0..6u32 {
        let mut b = Batch::new();
        for i in 0..40u32 {
            let space = Space::ALL[(i % 4) as usize];
            let value = vec![(round * 7 + i) as u8; 64 + (i as usize * 13) % 300];
            b.put(space, format!("k/{round:02}/{i:03}"), value);
        }
        if round > 0 {
            b.delete(Space::Instance, format!("k/{:02}/{:03}", round - 1, 1));
        }
        store.apply(b).expect("apply");
        if round == 2 {
            store.compact().expect("compact");
        }
    }
}

fn contents<D: Disk>(store: &Store<D>) -> Vec<(Space, String, Vec<u8>)> {
    Space::ALL
        .into_iter()
        .flat_map(|space| {
            store
                .scan_prefix(space, "")
                .expect("scan")
                .into_iter()
                .map(move |(k, v)| (space, k, v.to_vec()))
        })
        .collect()
}

#[test]
fn metered_disk_is_transparent_to_the_store() {
    // A tiny memtable budget forces spills and merges, so ranged reads and
    // deletes go through the wrapper too.
    let policy = TieredPolicy {
        memtable_budget_bytes: 2048,
        run_merge_threshold: 2,
        ..TieredPolicy::default()
    };
    let tracer = Tracer::new(true);
    let bare = MemDisk::new();
    let metered = MeteredDisk::new(MemDisk::new(), &tracer);
    {
        let a = Store::open_with(bare.clone(), Some(policy)).expect("open bare");
        let b = Store::open_with(metered.clone(), Some(policy)).expect("open metered");
        apply_script(&a);
        apply_script(&b);
    }
    let a = Store::open_with(bare.clone(), Some(policy)).expect("reopen bare");
    let b = Store::open_with(metered.clone(), Some(policy)).expect("reopen metered");
    let (ca, cb) = (contents(&a), contents(&b));
    assert!(!ca.is_empty());
    assert_eq!(ca, cb);
    // Byte-identical files underneath.
    let files = bare.list().expect("list");
    assert_eq!(files, metered.inner().list().expect("list"));
    for f in &files {
        assert_eq!(
            bare.read(f).unwrap(),
            metered.inner().read(f).unwrap(),
            "{f}"
        );
    }
    let counts = metered.counts();
    assert!(counts.append.calls > 0 && counts.read.calls > 0);
    assert!(
        counts.read_range.calls > 0,
        "spilled runs are read by range"
    );
    assert!(!tracer.spans().is_empty());
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(compact.contains(&format!("\"name\":\"{}\"", w.name())));
    }
    let entries = compact.matches("\"name\":").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}

/// The recorded `real_allvsall` result is what the programs produce
/// without the engine.  Kernel-heavy: run with `cargo test --release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "kernel-heavy; run with --release")]
fn real_reference_is_the_engine_free_result() {
    use bioopera_darwin::{DatasetConfig, PamFamily, SequenceDb};
    use bioopera_workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
    use perfbench::allvsall::{oracle, render_buckets, REAL_REFERENCE};
    let pam = Arc::new(PamFamily::default());
    let db = Arc::new(SequenceDb::generate(&DatasetConfig::small(800, 38), &pam));
    let setup = AllVsAllSetup::real(
        db,
        pam,
        AllVsAllConfig {
            teus: 25,
            ..Default::default()
        },
    );
    let wb = oracle(&setup).expect("oracle");
    assert_eq!(
        wb.get("match_count").and_then(|v| v.as_int()),
        Some(REAL_REFERENCE.match_count)
    );
    assert_eq!(
        wb.get("digest").and_then(|v| v.as_str()),
        Some(REAL_REFERENCE.digest)
    );
    assert_eq!(
        render_buckets(wb.get("pam_buckets")),
        REAL_REFERENCE.pam_buckets
    );
}
