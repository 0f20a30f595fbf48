"""One workload in one fresh process: a closed loop of ops, one at a time.

Started by run.py.  It imports pdmwire from the checkout's src/, draws the
seeded inputs, prints "ready" (the end of set-up), and then runs whole
rounds of ops until --seconds have passed.  Each op is timed alone; its
checks run after it, outside the timed span.  The last line of stdout is a
JSON object with the op latencies' summary, or, with --setup-only, nothing
follows "ready".
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports pdmwire

    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=tmp_parent)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        return run_loop(workload, tracer, args.seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass


def run_loop(workload, tracer, seconds: float) -> int:
    latencies, round_walls, errors = [], [], []
    attempted = failed = rounds = 0
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds:
        round_wall = 0.0
        for op in workload.round(rounds):
            attempted += 1
            start = time.perf_counter()
            try:
                output = workload.run(op)
            except Exception as exc:  # a failed op is counted, and the run goes on
                failed += 1
                print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                output = None
            elapsed = time.perf_counter() - start
            round_wall += elapsed
            if tracer is not None:
                tracer.fold()
            if output is None:
                continue
            latencies.append(elapsed)
            errors += workload.check(op, output)
            if tracer is not None:
                tracer.clear()          # calls made by the check are not the op's
        round_walls.append(round_wall)
        rounds += 1
    loop_wall = time.perf_counter() - loop_start
    # ru_maxrss is in KiB on Linux; read it before the scipy checks load scipy
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors += workload.finish()
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    tail = workload.tail_percentile
    metrics = {
        "wall_s": statistics.median(round_walls),
        "op_p50_s": statistics.median(latencies),
        # below 40 ops a run has no tail: the median stands in (see README)
        "op_tail_s": (statistics.quantiles(latencies, n=100, method="inclusive")[tail - 1]
                      if tail else statistics.median(latencies)),
        "peak_rss_mib": peak_rss_mib,
    }
    if tail and sum(x > metrics["op_tail_s"] for x in latencies) < 10:
        print(f"warning: fewer than 10 ops beyond p{tail}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "rounds": rounds, "ops_timed": len(latencies), "loop_wall_s": loop_wall,
              "metrics": metrics}
    if tracer is not None:
        result["layers"] = tracer.metrics(rounds, workload.out_bytes)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
