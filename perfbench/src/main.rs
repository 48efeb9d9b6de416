//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one `# perfbench {...}` line recording the host and mode, then,
//! as the last line, the result object (a failed output check reads
//! `"correct": false` there).  Exits 2, printing no result, on bad
//! arguments.  The engine's tuning variables ([`PINNED_ENV`]) are cleared
//! before anything runs.

use perfbench::workload::{Options, Workload};
use perfbench::{json_str, measure, write_spans, PINNED_ENV};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    scratch: PathBuf,
    spans_out: Option<PathBuf>,
    rev: String,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--short] [--scratch <dir>] [--spans-out <file>] [--rev <revision>]",
        names.join("|")
    )
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = Args {
        workload: Workload::Sp38Nonshared,
        seed: 0,
        seconds: 0.0,
        trace: false,
        short: false,
        scratch: PathBuf::from("perfbench-scratch"),
        spans_out: None,
        rev: "unknown".into(),
    };
    while let Some(flag) = it.next() {
        if flag == "--short" {
            args.short = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            "--scratch" => args.scratch = PathBuf::from(value),
            "--spans-out" => args.spans_out = Some(PathBuf::from(value)),
            "--rev" => args.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("missing --workload")?;
    args.seed = seed.ok_or("missing --seed")?;
    args.seconds = seconds.ok_or("missing --seconds")?;
    args.trace = trace.ok_or("missing --trace")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The engine reads its tuning variables when it builds a store or a
    // runtime; clearing them before any of that (and before any thread
    // starts) pins every run to the engine's defaults.
    for var in PINNED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: clearing {var}: the benchmark pins the engine's defaults");
            std::env::remove_var(var);
        }
    }
    let opts = Options {
        seed: args.seed,
        short: args.short,
        scratch: args.scratch.clone(),
    };
    let report = measure(args.workload, &opts, args.seconds, args.trace);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench {{\"workload\": {}, \"seed\": {}, \"cores\": {cores}, \"rev\": {}, \
         \"simd\": {}, \"mode\": {}, \"trace\": {}, \"iterations\": {}, \
         \"steps_per_iteration\": {}, \"step_tail_pct\": {}, \"host_factor\": {:.4}, \
         \"long_factor\": {:.4}}}",
        json_str(args.workload.name()),
        args.seed,
        json_str(&args.rev),
        json_str(bioopera_darwin::simd::detect().name()),
        json_str(if args.short { "short" } else { "full" }),
        u8::from(args.trace),
        report.iterations,
        report.steps_per_iteration,
        report.tail_pct,
        report.host_factor,
        report.long_factor,
    );
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    if let (Some(tracer), Some(path)) = (&report.tracer, &args.spans_out) {
        if let Err(e) = write_spans(tracer, path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir(&args.scratch);
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
