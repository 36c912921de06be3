#!/usr/bin/env python3
"""The repository benchmark: build relcheck from source, run one workload
in a fresh process, print its metrics.

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. `--workload all` runs every workload both
ways and ends with one JSON object keyed by workload. See
perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold-mix", "deep-search", "daemon-edit-loop")
# knobs that change what the program does; a run under any of them would
# not measure the defaults
REFUSED_ENV = ("RLCHECK_JOBS", "RLCHECK_WS_MIN", "RLCHECK_PAR_CUTOFF", "RLCHECK_GC", "RLCHECK_FAULT")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache", "disabled", "./perfbench/rlbench.exe", "./bin/rlcheckd.exe"]
    try:
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        fail("build failed")
    exe = root / BUILD_DIR / "default"
    return exe / "perfbench" / "rlbench.exe", exe / "bin" / "rlcheckd.exe"


def revision(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def expected_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(root, exes, workload, seed, seconds, trace):
    """One workload in a fresh process; returns (exit code, result)."""
    rlbench, rlcheckd = exes
    rundir = root / BUILD_DIR / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    out = rundir / "result.json"
    cmd = [str(rlbench), workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out), "--rlcheckd", str(rlcheckd),
           "--rev", revision(root)]
    # its own process group, so a timeout also takes down the daemon child
    proc = subprocess.Popen(cmd, cwd=rundir, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(rundir, ignore_errors=True)
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    try:
        result = json.loads(out.read_text())
    except (OSError, ValueError):
        result = None
    shutil.rmtree(rundir, ignore_errors=True)
    if result is None:
        fail(f"{workload}: exited {code} without a result")
    want = expected_metrics(root, trace)
    got = result["metrics"]
    if set(got) != set(want) or any(got[k]["unit"] != u for k, u in want.items()):
        fail(f"{workload}: metrics do not match BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for k, m in got.items():
        if not math.isfinite(m["value"]) or m["value"] < 0:
            fail(f"{workload}: measurement error: {k} = {m['value']}")
    return code, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for v in REFUSED_ENV:
        if v in os.environ:
            fail(f"refusing to run with {v} set: it changes what is measured")
    root = pathlib.Path.cwd()
    for need in ("dune-project", "lib", "bin", "perfbench/dune", "BENCHMARK.json"):
        if not (root / need).exists():
            fail(f"run from the root of a relcheck checkout ({need} is missing)")
    exes = build(root)
    sys.stdout.flush()
    if args.workload != "all":
        code, result = run_workload(root, exes, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        sys.exit(code)
    summary, worst = {}, 0
    for w in WORKLOADS:
        for trace in (0, 1):
            code, result = run_workload(root, exes, w, args.seed, args.seconds, trace)
            summary.setdefault(w, {})["per_layer" if trace else "end_to_end"] = result
            worst = max(worst, code)
    print(json.dumps(summary))
    sys.exit(worst)


if __name__ == "__main__":
    main()
