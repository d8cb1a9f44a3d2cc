#!/usr/bin/env python3
"""Build and run one workload of the libernn benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

The first run configures and builds the benchmark package (perfbench/,
which compiles libernn from src/) in Release mode under .bench_build/;
later runs only rebuild what changed. The workload then runs in its own
process. Its standard output is passed through; the last line is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, where a layer the workload never
calls reports 0, and the span trace is written to .bench_build/traces/.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("asr_offline", "asr_stream", "serve_bimodal", "train_circulant")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; a lock keeps concurrent
    runs in one checkout from building over each other."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       check=True, stdout=sys.stderr)
    return BUILD / "ernn_perfbench"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the checkout carries no commit id."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src"):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny geometry: checks names, not speed")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    traces = ROOT / ".bench_build" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(traces),
           "--commit", commit_id(), "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {proc.returncode}")
        return proc.returncode or 4
    result = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        log(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        return 5
    for m in declared:
        if m["name"] in metrics:
            if metrics[m["name"]]["unit"] != m["unit"]:
                log(f"{m['name']}: unit {metrics[m['name']]['unit']} "
                    f"!= declared {m['unit']}")
                return 5
        elif args.trace:
            # A layer this workload never calls: no time spent in it.
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            log(f"end-to-end metric {m['name']} missing")
            return 5
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
