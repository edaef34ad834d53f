#!/usr/bin/env python3
"""catkit benchmark: seeded closed-loop workloads with oracle-checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py                          # every workload, one process each
    python3 perfbench/run.py --workload documents --seed 3 --seconds 35 --trace 0

One client runs one operation at a time in a single thread, the next only
after the previous returned (a closed loop), repeating whole passes over the
workload's operation list; ``--seconds`` sets how many (see NOMINAL_PASS_S).
Every output is checked by oracles outside the timed region.

An operation's latency is the fastest of all runs of its input in the run:
one per pass, or several where the pass repeats an input.  On a shared host
the speed of a core changes for seconds at a time with what other tenants
run; that only ever adds time, so the fastest of runs spread over the whole
run is the steady estimate of what the operation costs.  The percentiles and
throughput are taken over the operation list of one pass with these
latencies.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run (see ``layers.py``).  Lines above it say the same for a reader.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

from layers import WORKLOADS, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
# Seconds one pass takes on the reference machine (2 vCPU Linux VM, Python
# 3.11).  ``--seconds`` sets the number of passes from these, so a faster
# program finishes sooner instead of doing more.  A run on a host slowed by
# other tenants stops starting passes once ``--seconds`` have gone by.
NOMINAL_PASS_S = {"structured-pipeline": 3.3, "documents": 2.35, "skeletal-cli": 1.15}
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest of PERCENTILES with at least ten samples beyond it (the
    median when there are too few), by nearest rank: ``(percentile, value)``."""
    ordered = sorted(samples)
    n = len(ordered)
    p = next((p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= 10), 50)
    return p, ordered[math.ceil(p / 100 * n) - 1]


class Loop:
    """The closed loop: runs passes, times each operation, keeps the fastest
    time of each input (an ``Op`` the pass lists more than once is one input),
    and checks each distinct output once with the oracles."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.verdicts: dict[tuple[int, str], list[str]] = {}
        self.fastest = {id(op): math.inf for op in ops}
        self.failures: list[str] = []
        self.attempted = 0

    def run_pass(self) -> float:
        """One pass over the operation list; returns its operation time."""
        spent = 0.0
        for i, op in enumerate(self.ops):
            args = op.prepare()
            tracer = self.tracer
            if tracer is not None:
                tracer.op = self.attempted
                tracer.enabled = True
            error = None
            t0 = time.perf_counter()
            try:
                out = op.call(*args)
            except Exception as exc:  # an unexpected raise is a failed operation
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
            self.attempted += 1
            self.fastest[id(op)] = min(self.fastest[id(op)], t1 - t0)
            spent += t1 - t0
            problems = [error] if error else self.verdict(i, op, args, out)
            if problems:
                self.failures.append(f"{op.label}: {'; '.join(problems)}")
        return spent

    def latencies(self) -> list[float]:
        """The latency of each operation of a pass: its input's fastest."""
        return [self.fastest[id(op)] for op in self.ops]

    def verdict(self, i, op, args, out) -> list[str]:
        try:
            key = (i, op.fingerprint(out))
        except Exception as exc:
            return [f"output unreadable: {type(exc).__name__}: {exc}"]
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(args, out)
            except Exception as exc:  # an oracle that cannot read the output rejects it
                self.verdicts[key] = [f"oracle raised {type(exc).__name__}: {exc}"]
        return self.verdicts[key]


def describe(ops) -> list[str]:
    ladder = sorted({op.morphisms for op in ops})
    non_skeletal = sum(not op.skeletal for op in ops) / len(ops)
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "catkit").glob("*.py"))
    return [
        f"  operations per pass: {len(ops)}; non-skeletal inputs: {100 * non_skeletal:.0f}%",
        f"  morphism-count ladder: {' '.join(map(str, ladder))}",
        f"  src/catkit lines: {src_lines}; python {platform.python_version()}; nproc {os.cpu_count()}",
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    os.environ.pop("CATKIT_MAX_SEARCH", None)
    warnings.simplefilter("ignore")
    t0 = time.perf_counter()
    import catkit.cli  # noqa: F401  (set-up includes importing the package)
    import_s = time.perf_counter() - t0
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{name}-") as tmp:
        builds = []
        for r in range(SETUP_REPEATS):
            workdir = os.path.join(tmp, f"setup{r}")
            os.mkdir(workdir)
            t0 = time.perf_counter()
            ops = workloads.build(name, seed, workdir)
            builds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(builds)

        loop = Loop(ops)
        start = time.perf_counter()
        first = loop.run_pass()
        passes = max(1, round(seconds / NOMINAL_PASS_S[name]))
        lines = [f"workload {name}, seed {seed}, trace {int(trace)}"] + describe(ops)
        if not trace:
            done = 1
            while done < passes and time.perf_counter() - start < seconds:
                loop.run_pass()
                done += 1
            metrics = end_to_end(loop, setup_s, done, lines)
        else:
            metrics = traced_run(loop, name, seed, first, max(1, passes // 2), lines)
    print("\n".join(lines))
    for msg in loop.failures[:10]:
        print(f"  FAILED {msg}", file=sys.stderr)
    failed = len(loop.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(loop: Loop, setup_s: float, passes: int, lines: list[str]) -> dict:
    n = loop.attempted
    failed = len(loop.failures)
    latencies = loop.latencies()
    p, tail = tail_percentile(latencies)
    per_pass = (f"{len(latencies)} operations on {len(loop.fastest)} inputs, "
                f"fastest of {passes} passes")
    values = [
        ("throughput_ops_s", len(latencies) / sum(latencies) * (n - failed) / n, "1/s", per_pass),
        ("latency_p50_ms", 1e3 * statistics.median(latencies), "ms", per_pass),
        ("latency_tail_ms", 1e3 * tail, "ms", f"p{p:g} of {per_pass}"),
        ("failed_share", failed / n, "ratio", f"{failed} of {n}"),
        ("setup_s", setup_s, "s", f"import + median of {SETUP_REPEATS} input builds"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
    ]
    for name, value, unit, note in values:
        lines.append(f"  {name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    # failed_share is reported above and through "failed"/"attempted"; it is
    # zero when the program is right, so it is not a gated metric
    return {name: {"value": value, "unit": unit}
            for name, value, unit, _ in values if name != "failed_share"}


def traced_run(loop: Loop, name: str, seed: int, untraced_s: float, passes: int,
               lines: list[str]) -> dict:
    import tracing
    from catkit import core

    n_untraced = len(loop.ops)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    loop.tracer = tracer
    if name == "structured-pipeline":
        # the library runs without a budget; an unreachable cap makes it count
        core.set_search_budget(10**18)
    traced_s = sum(loop.run_pass() for _ in range(passes))
    n_traced = passes * len(loop.ops)
    values = tracing.summarize(tracer.spans, n_traced, passes)
    values["trace.overhead"] = (n_traced / traced_s) / (n_untraced / untraced_s)
    tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.json")
    lines.append(f"  traced passes: {passes}; spans: {len(tracer.spans)}")
    metrics = {}
    for metric, unit, _ in per_layer_metrics():
        metrics[metric] = {"value": values[metric], "unit": unit}
        lines.append(f"  {metric} {values[metric]:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="operation time to measure on the reference machine, "
                         "rounded to whole passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "catkit" / "__init__.py").is_file():
        print(f"perfbench: no catkit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for w in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
