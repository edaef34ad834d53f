#!/usr/bin/env python3
"""Write one bench file: every workload, end to end and layer by layer.

    python3 scripts/write_bench.py BENCH_<n>.json

Runs ``perfbench/run.py`` on each workload of ``BENCHMARK.json`` at seed 0
and its default run length, once with ``--trace 0`` (the end-to-end
metrics) and once with ``--trace 1`` (each layer's time, calls and
candidate checks), and writes
the two result objects per workload to the named JSON file, with the line
count of ``src/catkit/*.py`` as ``wc -l`` counts it, the commit measured
(and whether the tree differed from it), the Python version and the number
of processors.  It adds no workload and changes nothing it runs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> dict:
    """The result object ``perfbench/run.py`` prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def src_lines() -> dict[str, int]:
    """The newlines of each src/catkit/*.py, and their total, as ``wc -l``."""
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((ROOT / "src" / "catkit").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="the JSON file to write, relative to the current directory")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for w in (entry["name"] for entry in spec["workloads"]):
        workloads[w] = {f"trace{t}": run(w, t) for t in (0, 1)}
        print(f"{w}: done", flush=True)
    bench = {
        "command": "perfbench/run.py --workload W --seed 0 --trace T,"
                   " for each workload W and T in 0, 1",
        "commit": git("rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
