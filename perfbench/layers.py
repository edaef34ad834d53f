"""Declared spans and per-layer metrics of the traced run.

A span is a timed call into one catkit module, recorded from the benchmark's
own files by wrapping the function at every module attribute its callers look
it up by.  Each span names the workloads it must fire in and the end-to-end
metrics a change to that layer should move (written down before measuring, so
a later change can be held to it).
"""
from __future__ import annotations

from dataclasses import dataclass

SP, DOC, SKEL = "structured-pipeline", "documents", "skeletal-cli"
WORKLOADS = (SP, DOC, SKEL)

# kind -> (module that owns its witnesses, suffix of its verb functions)
KINDS = {
    "terminal": ("limits", "terminal"),
    "products": ("limits", "binary_products"),
    "equalizers": ("limits", "equalizers"),
    "pullbacks": ("limits", "pullbacks"),
    "exponentials": ("exponentials", "exponentials"),
    "classifier": ("classifier", "subobject_classifier"),
    "pnno": ("nno", "pnno"),
}
VERB_PREFIX = {
    "find": "find_",
    "transfer": "transfer_",
    "preserves": "preserves_",
    "lift": "lift_preservation_",
}


@dataclass(frozen=True)
class Span:
    """``target`` is ``(module, attribute)`` for a module-level function, or
    ``("KINDS", kind)`` for the ``check`` entry of ``lifting.KINDS``."""

    name: str
    target: tuple[str, str]
    fires_in: tuple[str, ...]
    stats: tuple[str, ...]
    moves: str


def _spans() -> list[Span]:
    out = []
    for fn in ("validate_category", "category_to_json"):
        out.append(Span(f"interchange.{fn}", ("interchange", fn), (DOC, SKEL), ("self_ms",),
                        "latency_p50_ms on documents and skeletal-cli"))
    for fn in ("functor_from_json", "structure_from_json", "structure_to_json"):
        out.append(Span(f"interchange.{fn}", ("interchange", fn), (SKEL,), ("self_ms",),
                        "latency_p50_ms on documents and skeletal-cli"))
    out.append(Span("core.check_category_tables", ("core", "check_category_tables"),
                    WORKLOADS, ("self_ms", "calls"),
                    "latency_tail_ms on documents; setup_s on every workload"))
    out.append(Span("core.iso_classes", ("core", "iso_classes"), WORKLOADS, ("self_ms",),
                    "throughput_ops_s on structured-pipeline"))
    out.append(Span("core.is_weak_equivalence", ("core", "is_weak_equivalence"), WORKLOADS,
                    ("self_ms",), "throughput_ops_s on structured-pipeline"))
    out.append(Span("core.check_weak_equivalence_cert", ("core", "check_weak_equivalence_cert"),
                    (SP, SKEL), ("self_ms", "calls"),
                    "throughput_ops_s on structured-pipeline"))
    out.append(Span("completion.skeletize", ("completion", "skeletize"), WORKLOADS, ("self_ms",),
                    "latency_p50_ms on documents; throughput_ops_s on structured-pipeline"))
    out.append(Span("completion.factor_through", ("completion", "factor_through"), (SP, SKEL),
                    ("self_ms",),
                    "latency_p50_ms on documents; throughput_ops_s on structured-pipeline"))
    out.append(Span("completion.skeletality", ("completion", "skeletality"), WORKLOADS,
                    ("self_ms", "calls"),
                    "latency_p50_ms on documents; throughput_ops_s on structured-pipeline"))
    for kind, (module, suffix) in KINDS.items():
        carried_in = (SP, SKEL) if kind != "classifier" else (SKEL,)
        out.append(Span(f"{module}.find.{kind}", (module, f"find_{suffix}"), (SP, SKEL),
                        ("self_ms", "candidate_checks", "found_per_check"),
                        "throughput_ops_s and latency_tail_ms on structured-pipeline; "
                        "latency_p50_ms on skeletal-cli"))
        out.append(Span(f"{module}.check.{kind}", ("KINDS", kind), (SKEL,), ("self_ms",),
                        "latency_p50_ms on skeletal-cli"))
        for verb in ("transfer", "preserves", "lift"):
            stats = ("self_ms", "calls") if verb == "transfer" else ("self_ms",)
            out.append(Span(f"{module}.{verb}.{kind}",
                            (module, f"{VERB_PREFIX[verb]}{suffix}"), carried_in, stats,
                            "throughput_ops_s and latency_tail_ms on structured-pipeline"))
    out.append(Span("classifier.topos_gaps", ("classifier", "topos_gaps"), (SKEL,),
                    ("self_ms", "calls", "candidate_checks"), "latency_p50_ms on skeletal-cli"))
    for fn in ("complete_structured", "factor_structured"):
        out.append(Span(f"lifting.{fn}", ("lifting", fn), (SP, SKEL), ("self_ms",),
                        "orchestration overhead: near zero on every workload"))
    for cmd, where in (("validate", DOC), ("analyze", SKEL), ("complete", DOC),
                       ("factor", SKEL), ("demo", SKEL)):
        out.append(Span(f"cli.{cmd}", ("cli", f"cmd_{cmd}"), (where,), ("self_ms",),
                        "latency_p50_ms on documents and skeletal-cli"))
    return out


SPANS: tuple[Span, ...] = tuple(_spans())

# stat -> (unit, better)
STAT_UNITS = {
    "self_ms": ("ms", "lower"),
    "calls": ("count", "lower"),
    "candidate_checks": ("count", "lower"),
    "found_per_check": ("ratio", "higher"),
}

# Metrics of the whole traced run rather than of one span.
RUN_METRICS = (
    ("search.candidate_checks", "count", "lower"),
    ("trace.overhead", "ratio", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for span in SPANS:
        for stat in span.stats:
            unit, better = STAT_UNITS[stat]
            out.append((f"{span.name}.{stat}", unit, better))
    out.extend(RUN_METRICS)
    return out
