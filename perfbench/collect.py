"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads train,translate --seeds 1-10 \
        --seconds 10 --trace 0 --out .perfbench/summary.json

Runs perfbench/run.py once per (workload, seed), one at a time, from the
repository root.  For each metric it reports the median, the quartiles
(statistics.quantiles, n=4) and the spread: the distance between the
quartiles as a share of the median.  Failed operations and output digests
are kept per run, so two commits can be compared for identical outputs.
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


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    digests = next((json.loads(line[len("digests "):]) for line in lines
                    if line.startswith("digests ")), {})
    return json.loads(lines[-1]), digests, wall_s


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="train,translate,tune,style")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, digests, wall_s = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output checks failed")
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "digests": digests, "wall_s": wall_s,
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed} ({wall_s:.0f} s, {result['failed']} failed): " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        names = runs[0]["metrics"]
        summary[workload] = {
            "metrics": {n: summarise([r["metrics"][n] for r in runs]) for n in names},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "runs": runs,
        }
        for n, s in summary[workload]["metrics"].items():
            print(f"  {workload:10} {n:24} median {s['median']:.5g}  spread {s['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
