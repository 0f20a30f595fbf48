#!/usr/bin/env python3
"""pdmwire benchmark: one workload per run, as a closed loop in a fresh process.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: certify, converge, render, explore (see bench/README.md).  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Set-up time is the median over several fresh
interpreter start-ups of the time to the first timed op.  BLAS and OpenMP
thread counts are pinned to 1 in every process this starts.  The program
is imported from src/ beside this directory; without it the run fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("certify", "converge", "render", "explore")
#: set-up-only start-ups per run; the workload process adds one more sample
SETUP_STARTS = 6
#: a worker that outlives this is killed and the run fails
WORKER_TIMEOUT_S = 150
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
                  "NUMEXPR_NUM_THREADS": "1"}


def start_worker(args, setup_only: bool):
    """Start a worker; return it and the seconds until it reported ready."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED_THREADS)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def wait(proc, timeout: float) -> str:
    """Stdout of a worker run to its end; killed and an error past timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError(f"worker exceeded {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pdmwire" / "__init__.py").is_file():
        print(f"bench: no pdmwire source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setup = []
        for _ in range(0 if args.trace else SETUP_STARTS):
            proc, ready = start_worker(args, True)
            wait(proc, WORKER_TIMEOUT_S)
            setup.append(ready)
        proc, ready = start_worker(args, False)
        result = json.loads(wait(proc, WORKER_TIMEOUT_S).strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(f"bench: {args.workload} rounds={result['rounds']} ops={result['ops_timed']} "
          f"loop={result['loop_wall_s']:.2f}s wall_s={result['metrics']['wall_s']!r}",
          file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
    else:
        setup_s = statistics.median([ready] + setup)
        units = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mib": "MiB"}
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update({name: {"value": value, "unit": units[name]}
                        for name, value in result["metrics"].items()})
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
