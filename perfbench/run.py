#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the switched-current simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tran_table2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 1 \
        --out results.jsonl

The first call configures and builds `si_perfbench` (a Release build of
the library under src/ plus the driver in perfbench/src) into
`.bench_build/`; later calls rebuild incrementally.  Build output goes to
`.bench_build/build.log`, so the last line of standard output is always
the run's result object (or nothing, when the build or the run failed).

`--out FILE` appends one JSON record per run (host stamp, commit, source
digest, workload metrics and the result object) for perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "si_perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ["tran_table2", "tran_large", "sweep_yield", "serve_mixed"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the driver; exits nonzero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "si_perfbench"],
    ]
    with open(BUILD / "build.log", "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed: {' '.join(cmd)} (see {BUILD / 'build.log'})")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py", ".json"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, result object)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--repo", str(ROOT), "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: si_perfbench exited with {proc.returncode}")
    return lines, json.loads(lines[-1])


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + ": "):
            return json.loads(line[len(tag) + 2:])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append one JSON record per run to this file")
    args = ap.parse_args()

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        lines, result = run_one(w, args.seed, args.seconds, args.trace)
        results[w] = result
        if args.workload == "all":
            lines = [f"== {w}"] + lines
        print("\n".join(lines), flush=True)
        if args.out:
            record = {"workload": w, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "commit": commit(), "source_digest": source_digest(),
                      "host": tagged(lines, "host"), "detail": tagged(lines, "detail"),
                      "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")
    if args.workload == "all":
        # One summary line over every workload; metric names get the
        # workload as a prefix.
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))


if __name__ == "__main__":
    main()
