#!/usr/bin/env python3
"""Build and run the BioOpera end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, path-dependent on
the repository's crates) in release mode under `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it.  The binary clears the engine's
tuning variables before it runs anything (`PINNED_ENV` in
perfbench/src/lib.rs), so every run measures the engine's defaults.  It
prints a `# perfbench {...}` line recording host cores, revision, SIMD
level and mode, and as its last line the result object.  Spans of a
traced run are written under the target directory.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Sources whose content identifies the measured program when the checkout
# is not a git repository.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "src", "perfbench")

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in SOURCES:
        p = ROOT / top
        if p.is_file():
            files = [p]
        elif p.is_dir():
            files = sorted(
                f for f in p.rglob("*") if f.is_file() and "target" not in f.relative_to(ROOT).parts
            )
        else:
            continue
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def arg_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [
        str(target / "release" / "perfbench"),
        *args,
        "--scratch",
        str(target / "perfbench-scratch"),
        "--rev",
        revision(),
    ]
    if arg_value(args, "--trace") == "1":
        name = f"{arg_value(args, '--workload')}-seed{arg_value(args, '--seed')}.jsonl"
        cmd += ["--spans-out", str(target / "perfbench-spans" / name)]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 4
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
