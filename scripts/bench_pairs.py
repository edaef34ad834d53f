#!/usr/bin/env python3
"""Alternating benchmark pairs: a base ref against the working tree.

    python3 scripts/bench_pairs.py BASE_REF --workload structured-pipeline --seed 0 --pairs 10

Extracts BASE_REF's committed files with ``git archive`` into a temporary
directory and runs ``perfbench/run.py --trace 0`` once on each side per
pair, the side that goes first alternating from pair to pair.  Then it
prints, for each end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles and the number of pairs the working tree won, ties counting
for neither side; and, against the metric's bound, the relative change of
the tree's median and one verdict: ``worse beyond bound``; ``unresolved``
when the base's interquartile range, as a share of its median, exceeds the
bound and not every tree run beats every base run; or ``within bound``.
The directory is removed afterwards.
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


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def spread(values: list[float]) -> str:
    """Median [first quartile, third quartile]."""
    q1, q2, q3 = quartiles(values)
    return f"{q2:10.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(base: list[float], tree: list[float], higher: bool, bound: float) -> tuple[float, str]:
    """The tree median's change relative to the base median, and whether
    it is worse beyond bound, unresolved or within bound."""
    q1, median, q3 = quartiles(base)
    change = statistics.median(tree) / median - 1
    if (-change if higher else change) > bound:
        return change, "worse beyond bound"
    beats_all = min(tree) > max(base) if higher else max(tree) < min(base)
    if (q3 - q1) / median > bound and not beats_all:
        return change, "unresolved"
    return change, "within bound"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git ref to compare the working tree against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35.0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs: dict[str, list[dict[str, float]]] = {"base": [], "tree": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as base:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        for i in range(args.pairs):
            sides = [("base", Path(base)), ("tree", ROOT)]
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                runs[side].append(run(checkout, args))
            base_ops, tree_ops = (runs[s][-1]["throughput_ops_s"] for s in ("base", "tree"))
            print(f"pair {i + 1}: throughput_ops_s base {base_ops:.4g} tree {tree_ops:.4g}",
                  flush=True)
    columns = {m["name"]: ([r[m["name"]] for r in runs["base"]],
                           [r[m["name"]] for r in runs["tree"]]) for m in metrics}
    print(f"{'metric':18} {'base median [q1, q3]':>30} {'tree median [q1, q3]':>30}  tree won")
    for m in metrics:
        b, t = columns[m["name"]]
        higher = m["better"] == "higher"
        wins = sum(tv > bv if higher else tv < bv for bv, tv in zip(b, t))
        print(f"{m['name']:18} {spread(b):>30} {spread(t):>30}  {wins}/{len(b)}")
    print(f"{'metric':18} {'change':>8} {'bound':>7}  verdict")
    for m in metrics:
        change, said = verdict(*columns[m["name"]], m["better"] == "higher", m["bound"])
        print(f"{m['name']:18} {change:+8.1%} {m['bound']:7.0%}  {said}")


if __name__ == "__main__":
    main()
