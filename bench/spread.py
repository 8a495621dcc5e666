#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and report, for every
end-to-end metric, the median, the quartiles and the spread: the distance
between the quartiles as a share of the median. Each spread is compared
with the metric's bound in BENCHMARK.json (setup_s is exempt from the
spread test, as its bound covers only the shift of its median).

    python3 bench/spread.py --seeds 1-10
    python3 bench/spread.py --workloads noisy-replay --seeds 101-105 --out spread.json

Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds) for seed in seeds]
        if not all(r["correct"] for r in runs):
            print(f"{workload}: a run reported incorrect output", file=sys.stderr)
            steady = False
        stats = {name: quartiles([r["metrics"][name]["value"] for r in runs])
                 for name in bounds}
        report["workloads"][workload] = stats
        for name, s in stats.items():
            ok = name == "setup_s" or s["spread"] < bounds[name] / 3
            steady &= ok
            print(f"{workload:15s} {name:15s} median {s['median']:12.6g} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]} {'ok' if ok else 'WIDE'}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
