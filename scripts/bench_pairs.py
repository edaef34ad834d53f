#!/usr/bin/env python3
"""Alternating benchmark pairs: a base ref against the working tree.

    python3 scripts/bench_pairs.py BASE_REF --workload structured-pipeline --seed 0 --pairs 10

Checks BASE_REF out with ``git worktree add --detach`` in a temporary
directory and runs ``perfbench/run.py --trace 0`` once on each side per
pair, the side that goes first alternating from pair to pair.  Then it
prints, for each end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles and the number of pairs the working tree won, ties counting
for neither side.  The worktree is removed afterwards.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, args) -> dict[str, float]:
    """One benchmark run in checkout: its end-to-end metrics by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: {result['failed']} of {result['attempted']} operations failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> str:
    """Median [first quartile, third quartile]."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{q2:10.4g} [{q1:.4g}, {q3:.4g}]"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git ref to compare the working tree against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35.0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict[str, float]]] = {"base": [], "tree": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base), args.base],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            for i in range(args.pairs):
                sides = [("base", base), ("tree", ROOT)]
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    runs[side].append(run(checkout, args))
                base_ops, tree_ops = (runs[s][-1]["throughput_ops_s"] for s in ("base", "tree"))
                print(f"pair {i + 1}: throughput_ops_s base {base_ops:.4g} tree {tree_ops:.4g}",
                      flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                           cwd=ROOT, check=False)
    print(f"{'metric':18} {'base median [q1, q3]':>30} {'tree median [q1, q3]':>30}  tree won")
    for name, direction in better.items():
        b = [r[name] for r in runs["base"]]
        t = [r[name] for r in runs["tree"]]
        wins = sum(tv > bv if direction == "higher" else tv < bv for bv, tv in zip(b, t))
        print(f"{name:18} {spread(b):>30} {spread(t):>30}  {wins}/{len(b)}")


if __name__ == "__main__":
    main()
