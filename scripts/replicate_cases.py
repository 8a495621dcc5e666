#!/usr/bin/env python3
"""Replay the four benchmark oracle pairs under calibrated noise.

For each case and each pair-testing circuit: the exact ideal distribution,
the exact noisy distribution under the bundled table2 calibration, a
finite-shot sample from it, and the statistical fidelity of the sampled
counts against the ideal distribution with a bootstrap error bar.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pairdeutsch import (  # noqa: E402
    B1,
    B2,
    C1,
    C2,
    PromisePair,
    run_noisy,
    sample_shots,
    statistical_fidelity,
)
from pairdeutsch.algorithms import ALGORITHMS, run  # noqa: E402
from pairdeutsch.cli import UsageError, _integer_flag, _load_noise  # noqa: E402
from pairdeutsch.noise import MAX_SHOTS, NotCovered  # noqa: E402

CASES = [
    ("case-1", PromisePair(B1, B1)),
    ("case-2", PromisePair(B1, B2)),
    ("case-3", PromisePair(C1, C1)),
    ("case-4", PromisePair(C1, C2)),
]
PAIR_ALGORITHMS = [name for name, entry in ALGORITHMS.items() if entry.takes_pair]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", default="8192")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--noise", default="table2", help="table2 | config path")
    parser.add_argument("--csv", type=Path, help="also write rows to this file")
    args = parser.parse_args()
    try:  # the CLI's rules and messages for the same flags
        shots = _integer_flag("--shots", args.shots, 1, MAX_SHOTS)
        seed = _integer_flag("--seed", args.seed, 0)
        model = _load_noise(args.noise)
    except UsageError as exc:
        parser.error(str(exc))

    rows = []
    lines = [f"{'case':8} {'algorithm':16} {'fidelity':>10} {'stderr':>9}  outcomes"]
    for algorithm in PAIR_ALGORITHMS:
        for name, pair in CASES:
            ideal = run(algorithm, pair).final_distribution
            try:
                noisy = run_noisy(algorithm, pair, model)
            except NotCovered as exc:  # before any line is printed, as the CLI words it
                parser.error(f"--noise config {args.noise}: {exc}")
            counts = sample_shots(noisy, shots, seed)
            report = statistical_fidelity(counts, ideal, seed=seed)
            top = sorted(counts, key=counts.get, reverse=True)[:2]
            summary = ", ".join(f"{k}:{counts[k]}" for k in top)
            lines.append(
                f"{name:8} {algorithm:16} {report.fidelity:10.4f} "
                f"{report.stderr:9.4f}  {summary}"
            )
            rows.append(
                {
                    "case": name,
                    "algorithm": algorithm,
                    "pair": pair.label(),
                    "shots": shots,
                    "fidelity": report.fidelity,
                    "stderr": report.stderr,
                }
            )
    print("\n".join(lines))
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
