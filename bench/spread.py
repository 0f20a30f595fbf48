#!/usr/bin/env python3
"""Run workloads on several seeds and report each metric's median and spread.

    python3 bench/spread.py --workloads certify,render --seeds 1-10 --seconds 20

For every workload × metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json.  The raw result
line of every run is appended to .bench_results/<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="certify,converge,render,explore")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)

    for workload in args.workloads.split(","):
        runs, durations = [], []
        for seed in seeds_from(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            durations.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            # the stderr summary carries wall_s in traced runs too: the
            # tracing overhead is traced minus untraced wall_s
            summary = proc.stderr.strip().splitlines()[-1]
            result["metrics"].setdefault(
                "wall_s", {"value": float(summary.rpartition("wall_s=")[2]), "unit": "s"})
            with open(out_dir / f"{workload}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(dict(result, seed=seed, trace=args.trace,
                                         run_s=durations[-1])) + "\n")
            runs.append(result)
        failed_share = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed shares={sorted(failed_share)}, run time "
              f"{min(durations):.1f}-{max(durations):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values):
                print(f"  {name:34s} absent")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}" + (f"  bound {bound}" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
