"""In-memory span recorder for the traced run.

Spans are recorded around calls into catkit's modules by replacing each
declared function at every ``catkit.*`` module attribute that refers to it,
so callers that imported the name see the wrapper too.  Nothing is wrapped
unless :func:`install` runs, and it runs in the traced process only.

Candidate checks are read from the search-budget counter in
``catkit.core``; that private read is the only one the benchmark makes.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

from layers import SPANS

# span record fields
NAME, START, END, PARENT, OP, CHECKS_IN, CHECKS_OUT, FOUND = range(8)


def _budget_used() -> int:
    from catkit import core

    return getattr(core._budget, "used", 0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int = -1
        self.enabled = False

    def wrap(self, name: str, fn, count_found: bool = False):
        spans, stack, clock, used = self.spans, self.stack, time.perf_counter, _budget_used

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, used(), 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if count_found and out is not None:
                    rec[FOUND] = len(out) if isinstance(out, dict) else 1
                return out
            finally:
                rec[CHECKS_OUT] = used()
                rec[END] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        """Write every span as ``[name, start, end, parent, op]``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([r[:OP + 1] for r in self.spans], fh)


def install(tracer: Tracer) -> None:
    """Wrap every declared span target in the loaded catkit modules."""
    from catkit import lifting

    modules = [m for n, m in list(sys.modules.items()) if n == "catkit" or n.startswith("catkit.")]
    for span in SPANS:
        owner, attr = span.target
        if owner == "KINDS":
            kind = lifting.KINDS[attr]
            lifting.KINDS[attr] = dataclasses.replace(kind, check=tracer.wrap(span.name, kind.check))
            continue
        fn = getattr(sys.modules[f"catkit.{owner}"], attr)
        wrapped = tracer.wrap(span.name, fn, count_found=".find." in span.name)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


def summarize(spans: list[list], n_ops: int, n_passes: int) -> dict[str, float]:
    """Per-layer metrics from the span list.

    Times, calls and candidate checks are per operation; self values are a
    span's own total minus that of its direct children.  ``topos_gaps``
    reports the checks spent under it, children included, because its own
    work is the searches it starts.  ``search.candidate_checks`` is the
    total over one pass of the workload's operation list.
    """
    self_s: dict[str, float] = {}
    self_checks: dict[str, int] = {}
    incl_checks: dict[str, int] = {}
    calls: dict[str, int] = {}
    found: dict[str, int] = {}
    child_s = [0.0] * len(spans)
    child_checks = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] += rec[END] - rec[START]
            child_checks[rec[PARENT]] += rec[CHECKS_OUT] - rec[CHECKS_IN]
    for i, rec in enumerate(spans):
        name = rec[NAME]
        checks = rec[CHECKS_OUT] - rec[CHECKS_IN]
        self_s[name] = self_s.get(name, 0.0) + (rec[END] - rec[START]) - child_s[i]
        self_checks[name] = self_checks.get(name, 0) + checks - child_checks[i]
        incl_checks[name] = incl_checks.get(name, 0) + checks
        calls[name] = calls.get(name, 0) + 1
        found[name] = found.get(name, 0) + rec[FOUND]

    out: dict[str, float] = {}
    for span in SPANS:
        n = span.name
        for stat in span.stats:
            if stat == "self_ms":
                value = 1e3 * self_s.get(n, 0.0) / n_ops
            elif stat == "calls":
                value = calls.get(n, 0) / n_ops
            elif stat == "candidate_checks":
                table = incl_checks if n == "classifier.topos_gaps" else self_checks
                value = table.get(n, 0) / n_ops
            else:  # found_per_check
                checks = self_checks.get(n, 0)
                value = found.get(n, 0) / checks if checks else 0.0
            out[f"{n}.{stat}"] = value
    top_level = sum(r[CHECKS_OUT] - r[CHECKS_IN] for r in spans if r[PARENT] < 0)
    out["search.candidate_checks"] = top_level / n_passes
    return out
