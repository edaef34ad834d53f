"""Command-line front door.

Subcommands: validate, analyze, complete, factor, demo, export-dot.  Exit
codes: 0 success, 1 validation failure, 2 requested structure absent or
search budget exhausted, 3 IO or parse error, 4 internal failure (two
routes that must agree disagreed, or an unexpected exception; always a bug
worth reporting).  A report that cannot be written, because the reader
closed standard output, exits 3; an error report keeps its own code.

CATKIT_MAX_SEARCH caps brute-force candidate checks (default 10^7; 0 lifts
the cap), the validation of every loaded document included: its
associativity check counts one candidate per composable triple whose middle
morphism is in the generating set it walks.  The cap applies to CLI runs
only, never to library use.

``main(argv)`` may be called any number of times in one process.  The
argument parser is built once, on the first call, and each call looks its
handler ``cmd_<command>`` up on this module, so a replaced handler is the
one that runs.  ``python -m catkit`` runs ``main`` as the ``catkit``
command does.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field

from .classifier import gaps_from_found, topos_gaps
from .completion import skeletize
from .core import FinCat, Functor, set_search_budget
from .errors import (
    CatkitError,
    DanglingReference,
    DependencyMissing,
    MalformedInput,
    OracleDisagreement,
    PreconditionViolation,
    SearchBudgetExceeded,
)
from .generators import (
    delooping,
    finset_fragment,
    heyting_chain,
    hvalued_sets,
    identity_monad,
    karoubi_envelope,
    kleisli,
    preorder_cat,
    setoid_groupoid,
    walking_iso,
)
from .interchange import (
    category_to_json,
    functor_from_json,
    functor_to_json,
    structure_from_json,
    structure_to_json,
    validate_category,
)
from .lifting import KIND_ORDER, complete_structured, factor_structured, find_bag, with_dependencies

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ABSENT = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# CLI structure tokens; "omega" is the user-facing name of the classifier
TOKEN_TO_KIND = {
    "terminal": "terminal",
    "products": "products",
    "equalizers": "equalizers",
    "pullbacks": "pullbacks",
    "exponentials": "exponentials",
    "omega": "classifier",
    "pnno": "pnno",
}
KIND_TO_TOKEN = {v: k for k, v in TOKEN_TO_KIND.items()}


@dataclass
class RunReport:
    """Machine- and human-readable renderings agree on the status fields by
    construction: both read from the same dict."""

    command: str
    status: dict[str, str] = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "payload": self.payload,
            "warnings": self.warnings,
            "seconds": round(self.seconds, 3),
        }

    def to_text(self) -> str:
        lines = [f"catkit {self.command}"]
        for check, outcome in self.status.items():
            lines.append(f"  {check}: {outcome}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        lines.append(f"  elapsed: {self.seconds:.3f}s")
        return "\n".join(lines)


def _load_json(path: str) -> dict:
    """The JSON document at path.  A key repeated in one object with a
    different value raises MalformedInput at a pointer to it, the first
    such object in document order; a repeat with the same value is
    dropped, as a repeated structure entry is."""
    repeats: list[_Repeated] = []

    def build(pairs: list) -> dict:
        out = dict(pairs)
        if len(out) != len(pairs):
            key = _different_repeat(pairs)
            if key is not None:
                out = _Repeated(out)
                out.key = key
                repeats.append(out)
        return out

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, object_pairs_hook=build)
    if repeats:
        pointer, key = _first_repeat(doc, "")
        raise MalformedInput(f"key {key!r} is repeated with a different value", pointer=pointer)
    return doc


class _Repeated(dict):
    """A JSON object that repeats ``key`` with a different value."""

    key: str


def _different_repeat(pairs: list) -> str | None:
    """The first key of pairs repeated with a value unlike its first one."""
    first: dict = {}
    for k, v in pairs:
        if k in first and json.dumps(first[k], sort_keys=True) != json.dumps(v, sort_keys=True):
            return k
        first.setdefault(k, v)
    return None


def _first_repeat(doc, path: str) -> tuple[str, str] | None:
    """The pointer to the first repeated key in doc, with the key."""
    if isinstance(doc, _Repeated):
        return f"{path}/{doc.key}", doc.key
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        found = _first_repeat(v, f"{path}/{k}")
        if found is not None:
            return found
    return None


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_tokens(raw: str | None) -> list[str]:
    if raw is None:
        return list(TOKEN_TO_KIND)
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    for t in tokens:
        if t not in TOKEN_TO_KIND:
            raise PreconditionViolation(
                f"unknown structure {t!r}; choose from {', '.join(TOKEN_TO_KIND)}"
            )
    return tokens


def cmd_validate(args) -> tuple[RunReport, int]:
    report = RunReport(f"validate {args.path}")
    C = validate_category(_load_json(args.path))
    report.status["category"] = "valid"
    report.status["objects"] = str(C.n_objects)
    report.status["morphisms"] = str(C.n_morphisms)
    sk = skeletality_line(C)
    report.status["skeletality"] = sk
    report.payload["name"] = C.name
    return report, EXIT_OK


def skeletality_line(C: FinCat) -> str:
    from .completion import skeletality

    rep = skeletality(C)
    if rep.is_gaunt:
        return "gaunt"
    if rep.is_skeletal:
        return "skeletal, not gaunt"
    return "not skeletal"


def cmd_analyze(args) -> tuple[RunReport, int]:
    report = RunReport(f"analyze {args.path}")
    C = validate_category(_load_json(args.path))
    requested = _parse_tokens(args.structure)
    bag = find_bag(C, with_dependencies([TOKEN_TO_KIND[t] for t in requested]))
    for t in requested:
        report.status[t] = "found" if TOKEN_TO_KIND[t] in bag else "absent"
    report.status["skeletality"] = skeletality_line(C)
    report.payload = structure_to_json(C, bag)
    report.payload["gaps"] = gaps_from_found(bag) if args.structure is None else []
    missing = args.structure is not None and any(
        TOKEN_TO_KIND[t] not in bag for t in requested
    )
    return report, (EXIT_ABSENT if missing else EXIT_OK)


def cmd_complete(args) -> tuple[RunReport, int]:
    report = RunReport(f"complete {args.path}")
    C = validate_category(_load_json(args.path))
    res = skeletize(C)
    out_doc = category_to_json(res.completed)
    if args.carry_structure:
        # the bag complete_structured would carry, found on the completion alone
        bag = find_bag(res.completed, KIND_ORDER)
        out_doc.update(structure_to_json(res.completed, bag))
        report.status["carried"] = ", ".join(KIND_TO_TOKEN[k] for k in bag) or "nothing"
    report.status["objects"] = f"{C.n_objects} -> {res.completed.n_objects}"
    report.status["morphisms"] = f"{C.n_morphisms} -> {res.completed.n_morphisms}"
    report.status["fidelity"] = res.fidelity
    if res.fidelity != "exact":
        report.warnings.append(
            "SkeletalApproximation: source has nontrivial automorphisms; "
            "the completion is skeletal but not gaunt"
        )
    out_doc["eta"] = functor_to_json(res.eta)
    report.payload["result"] = out_doc
    if args.out:
        _write_json(args.out, out_doc)
        report.status["written"] = args.out
    return report, EXIT_OK


def cmd_factor(args) -> tuple[RunReport, int]:
    report = RunReport(
        f"factor --source {args.source} --functor {args.functor} --target {args.target}"
    )
    C = validate_category(_load_json(args.source))
    tdoc = _load_json(args.target)
    E = validate_category(tdoc)
    F = _functor_between(_load_json(args.functor), C, E)
    tokens = _parse_tokens(args.structures)
    kinds = with_dependencies([TOKEN_TO_KIND[t] for t in tokens])
    target_bag = structure_from_json(tdoc, E)
    sc = complete_structured(C, kinds=kinds)
    sf = factor_structured(
        sc, F, target_witnesses={k: w for k, w in target_bag.items() if k in kinds}
    )
    H = sf.factorization.functor
    report.status["factorization"] = "H after eta is isomorphic to F"
    for name in sc.kinds:
        report.status[KIND_TO_TOKEN[name]] = "preserved and lifted"
    report.payload["completed"] = category_to_json(sc.result.completed)
    report.payload["H"] = functor_to_json(H)
    report.payload["alpha"] = {
        C.objects[x]: E.mor_labels[sf.factorization.alpha.components[x].fwd]
        for x in range(C.n_objects)
    }
    if args.out:
        _write_json(args.out, report.payload)
        report.status["written"] = args.out
    return report, EXIT_OK


def _functor_between(fdoc, C: FinCat, E: FinCat) -> Functor:
    """The functor document with its source resolved to C and its target to
    E by role: the two may share a name ("unnamed" when they carry none)."""
    ends = {"source": C, "target": E}
    if isinstance(fdoc, dict):
        fdoc = dict(fdoc)
        for end, cat in ends.items():
            if isinstance(fdoc.get(end), str):   # other values fail the loader's type check
                if fdoc[end] != cat.name:
                    raise DanglingReference(f"{end} {fdoc[end]!r} is not {cat.name!r}", f"/{end}")
                fdoc[end] = end
    return functor_from_json(fdoc, ends)


def preorder6_spec() -> tuple[list[str], set[tuple[str, str]]]:
    """Six elements, two two-element cycles: 0 and 1 dominate each other, as
    do 2 and 3; the classes form a chain under a top element 4, with 5 off to
    the side."""
    elements = [str(i) for i in range(6)]
    pairs = {(a, a) for a in elements}
    for a in ("0", "1"):
        for b in ("0", "1", "2", "3", "4"):
            pairs.add((a, b))
    for a in ("2", "3"):
        for b in ("2", "3", "4"):
            pairs.add((a, b))
    return elements, pairs


def _demo_specs():
    def walking():
        C = walking_iso()
        res = skeletize(C)
        lines = [
            "Two distinct but isomorphic objects; the completion collapses them.",
            f"completed category has {res.completed.n_objects} object "
            f"and {res.completed.n_morphisms} morphism: the terminal category",
            f"fidelity: {res.fidelity}",
        ]
        return C, res.completed, lines

    def preorder():
        C = preorder_cat(*preorder6_spec(), name="preorder6")
        res = skeletize(C)
        lines = [
            "A non-antisymmetric preorder: 0 and 1 dominate each other, as do 2 and 3.",
            f"the completion is its posetal quotient: {res.completed.n_objects} objects",
            f"fidelity: {res.fidelity}",
        ]
        return C, res.completed, lines

    def setoid():
        C = setoid_groupoid(5, [(0, 1), (1, 2), (3, 4)])
        res = skeletize(C)
        lines = [
            "A setoid as a groupoid: morphisms witness equivalence of elements.",
            f"two equivalence classes, so the completion has {res.completed.n_objects} objects",
            f"fidelity: {res.fidelity}",
        ]
        return C, res.completed, lines

    def karoubi():
        C = delooping([[0, 1], [1, 1]], name="M")
        K, _ = karoubi_envelope(C)
        res = skeletize(K)
        lines = [
            "A monoid with a non-split idempotent; its envelope splits it.",
            f"envelope has {K.n_objects} objects and {K.n_morphisms} morphisms",
            f"the completion of the envelope is the Cauchy completion; fidelity: {res.fidelity}",
        ]
        return K, res.completed, lines

    def kleisli_demo():
        C = finset_fragment(2)
        K, _ = kleisli(C, identity_monad(C))
        lines = [
            "Kleisli construction over the identity monad: same tables as the base.",
            f"{K.n_objects} objects, {K.n_morphisms} morphisms",
        ]
        return C, K, lines

    def finset2():
        C = finset_fragment(2)
        gaps = topos_gaps(C)
        lines = [
            "Sets of size at most 2 with all functions.",
            "terminal: the singleton; every parallel pair has an equalizer;",
            "omega: the two-element set classifies the eight monos.",
            "missing for a topos: " + "; ".join(gaps),
        ]
        return C, C, lines

    def hvalued():
        C = hvalued_sets(heyting_chain(3), max_carrier=1)
        res = skeletize(C)
        lines = [
            "Sets valued in the 3-chain Heyting algebra, carriers of size at most 1.",
            f"{C.n_objects} objects collapse to {res.completed.n_objects}; "
            f"fidelity: {res.fidelity}",
        ]
        return C, res.completed, lines

    return {
        "walking-iso": walking,
        "preorder": preorder,
        "setoid": setoid,
        "karoubi": karoubi,
        "kleisli": kleisli_demo,
        "finset2": finset2,
        "hvalued": hvalued,
    }


def cmd_demo(args) -> tuple[RunReport, int]:
    specs = _demo_specs()
    if args.name not in specs:
        raise PreconditionViolation(
            f"unknown demo {args.name!r}; choose from {', '.join(sorted(specs))}"
        )
    report = RunReport(f"demo {args.name}")
    source, result, lines = specs[args.name]()
    for i, line in enumerate(lines):
        report.status[f"note{i}"] = line
    report.payload["category"] = category_to_json(source)
    if result is not source:
        report.payload["completed"] = category_to_json(result)
    return report, EXIT_OK


def _dot_quote(label: str) -> str:
    """label as a DOT quoted string: backslash and double quote escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_export_dot(args) -> tuple[RunReport, int]:
    from .core import iso_classes

    C = validate_category(_load_json(args.path))
    lines = [f"digraph {_dot_quote(C.name)} {{", "  rankdir=LR;"]
    for i, cls in enumerate(iso_classes(C)):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append('    style=dashed; color=gray; label="iso class";')
        for x in sorted(cls):
            lines.append(f"    {_dot_quote(C.objects[x])};")
        lines.append("  }")
    for f in range(C.n_morphisms):
        if C.is_identity(f):
            continue
        src, dst = (_dot_quote(C.objects[x]) for x in (C.mor_src[f], C.mor_dst[f]))
        lines.append(f"  {src} -> {dst} [label={_dot_quote(C.mor_labels[f])}];")
    lines.append("}")
    dot = "\n".join(lines) + "\n"
    report = RunReport(f"export-dot {args.path}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
        report.status["written"] = args.out
    else:
        report.payload["dot"] = dot
    report.status["nodes"] = str(C.n_objects)
    return report, EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call to main."""
    parser = argparse.ArgumentParser(
        prog="catkit",
        description="Finite-category engine: completions, structure transfer, certified factorizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a category file")
    p.add_argument("path")

    p = sub.add_parser("analyze", help="search a category for chosen structure")
    p.add_argument("path")
    p.add_argument("--structure", help="comma-separated: terminal,products,equalizers,pullbacks,exponentials,omega,pnno")

    p = sub.add_parser("complete", help="skeletal completion, optionally carrying structure")
    p.add_argument("path")
    p.add_argument("--carry-structure", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("factor", help="factor a structured functor through the completion")
    p.add_argument("--source", required=True)
    p.add_argument("--functor", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--structures", help="comma-separated structure list")
    p.add_argument("--out")

    p = sub.add_parser("demo", help="run a named example end to end")
    p.add_argument("name")

    p = sub.add_parser("export-dot", help="emit a DOT graph with iso-class clusters")
    p.add_argument("path")
    p.add_argument("--out")

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    raw_cap = os.environ.get("CATKIT_MAX_SEARCH", "")
    try:
        cap = int(raw_cap) if raw_cap else 10_000_000
    except ValueError:
        cap = -1
    if cap < 0:   # only 0 lifts the cap
        print(f"CATKIT_MAX_SEARCH must be an integer >= 0, got {raw_cap!r}", file=sys.stderr)
        return EXIT_IO
    set_search_budget(cap if cap > 0 else None)
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report, code = handler(args)
        report.warnings.extend(str(w.message) for w in caught)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(args, "io", str(exc), None, EXIT_IO)
    except OracleDisagreement as exc:
        return _fail(args, type(exc).__name__, str(exc), exc.pointer, EXIT_INTERNAL)
    except (SearchBudgetExceeded, PreconditionViolation, DependencyMissing) as exc:
        return _fail(args, type(exc).__name__, str(exc), exc.pointer, EXIT_ABSENT)
    except CatkitError as exc:
        return _fail(args, type(exc).__name__, str(exc), exc.pointer, EXIT_INVALID)
    except Exception as exc:   # anything else is an engine bug: report it, no traceback
        return _fail(args, type(exc).__name__, str(exc), None, EXIT_INTERNAL)
    finally:
        set_search_budget(None)
    report.seconds = time.perf_counter() - t0
    if getattr(args, "json", False):
        # compact, so json uses its C encoder; files written by --out stay indented
        written = _emit(json.dumps(report.to_json(), sort_keys=True), sys.stdout)
    elif "dot" in report.payload:
        # bare dot text so the output can be piped straight into graphviz
        written = _emit(report.payload["dot"], sys.stdout, end="")
    else:
        written = _emit(report.to_text(), sys.stdout)
    return code if written else EXIT_IO


def _fail(args, kind: str, message: str, pointer: str | None, code: int) -> int:
    if getattr(args, "json", False):
        err = {"error": {"type": kind, "message": message}}
        if pointer:
            err["error"]["pointer"] = pointer
        _emit(json.dumps(err, sort_keys=True), sys.stdout)
    else:
        _emit(f"error [{kind}]: {message}", sys.stderr)
    return code   # whether or not the report could be written


def _emit(text: str, stream, end: str = "\n") -> bool:
    """Write and flush text; False when the reader has closed the stream,
    whose descriptor then points at the null device for the flush at exit."""
    try:
        print(text, file=stream, end=end, flush=True)
    except OSError:   # BrokenPipeError, or any other failed write
        with contextlib.suppress(OSError, ValueError):   # a stream without a descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
