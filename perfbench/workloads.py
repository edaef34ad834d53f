"""Seeded inputs, operations and output oracles of the three workloads.

A workload is one pass: a list of operations that is a function of the seed
alone.  The runner repeats whole passes in a closed loop.  Seeds choose the
order of copy counts, set-up documents, small corpus members and the order of
the pass; the cost ladder of each pass is fixed, which keeps the median and
the tail on the same operations, and so the figures steady, from seed to
seed.

Each operation fetches the catkit entry point from its module when it runs,
so a traced run sees the wrapped function.  Oracles use the names imported
here, and run outside the timed region.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from catkit import cli, lifting
from catkit.completion import Factorization, check_factorization, inflate, skeletize
from catkit.core import FinCat, Functor, Iso, NatIso, compose_functors, find_iso
from catkit.core import is_weak_equivalence, table_isomorphic
from catkit.generators import (
    chain_poset,
    discrete,
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    heyting_from_leq,
    hvalued_sets,
    product_category,
    random_category,
    setoid_groupoid,
)
from catkit.interchange import category_to_json, functor_from_json
from catkit.interchange import structure_from_json, structure_to_json, validate_category
from catkit.lifting import KIND_ORDER, KINDS

TOKEN = {k: ("omega" if k == "classifier" else k) for k in KIND_ORDER}


@dataclass(frozen=True)
class Expect:
    """Hand-written outcome for an input family: the structure kinds it
    carries (None where the workload runs no search), the skeletality line
    of ``catkit validate`` and the fidelity of its completion."""

    kinds: frozenset | None
    skeletality: str
    fidelity: str


ALL = frozenset(KIND_ORDER)
HEYTING = ALL - {"classifier"}  # finite Heyting algebras: cartesian closed, no classifier
TOPOS_FRAGMENT = frozenset({"terminal", "equalizers", "classifier"})
FAMILIES = {
    "heyting-poset": Expect(HEYTING, "gaunt", "exact"),
    "inflated-heyting": Expect(HEYTING, "not skeletal", "exact"),
    "finset3": Expect(TOPOS_FRAGMENT, "skeletal, not gaunt", "skeletal-approximation"),
    "inflated-finset3": Expect(TOPOS_FRAGMENT, "not skeletal", "skeletal-approximation"),
    "discrete": Expect(frozenset({"equalizers", "pullbacks"}), "gaunt", "exact"),
    "setoid": Expect(None, "not skeletal", "exact"),
    "hsets-carrier1": Expect(HEYTING, "gaunt", "exact"),
    "hsets-chain2-carrier2": Expect(TOPOS_FRAGMENT, "skeletal, not gaunt", "skeletal-approximation"),
    "product-with-setoid": Expect(None, "not skeletal", "exact"),
    "product-with-finset2": Expect(None, "skeletal, not gaunt", "skeletal-approximation"),
}

# demo name -> (objects, morphisms) of the shown category and of its result
DEMOS = {
    "walking-iso": ((2, 4), (1, 1)),
    "preorder": ((6, 18), (4, 7)),
    "setoid": ((5, 13), (2, 2)),
    "karoubi": ((2, 5), (2, 5)),
    "kleisli": ((3, 11), (3, 11)),
    "finset2": ((3, 11), None),
    "hvalued": ((4, 11), (3, 6)),
}


@dataclass
class Op:
    """One operation.  ``prepare`` builds fresh arguments outside the timed
    region, ``call`` is the timed region, ``check`` lists what the oracles
    reject in an output, and ``fingerprint`` names an output so equal outputs
    are checked once."""

    label: str
    morphisms: int
    skeletal: bool
    prepare: Callable[[], tuple]
    call: Callable[..., object]
    check: Callable[[tuple, object], list[str]]
    fingerprint: Callable[[object], str]


def _digest(doc) -> str:
    return hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _fresh(C: FinCat) -> FinCat:
    """A new instance on the same tables, with no per-instance cache."""
    return dataclasses.replace(C)


def _check_bag(C: FinCat, bag: dict, kinds, where: str) -> list[str]:
    problems = []
    for k in kinds:
        if k not in bag:
            problems.append(f"{where}: {k} missing")
            continue
        try:
            KINDS[k].check(C, bag)
        except Exception as exc:  # any failure of a witness is a rejection
            problems.append(f"{where}: {k} rejected: {exc}")
    return problems


def _diamond() -> FinCat:
    return dataclasses.replace(heyting_category(heyting_diamond()), name="diamond")


# ---------------------------------------------------------------------------
# structured-pipeline: the library path


def _pipeline_op(base: FinCat, copies: list[int]) -> Op:
    C0, proj0 = inflate(base, copies)

    def prepare():
        C, E = _fresh(C0), _fresh(base)
        return C, E, Functor(C, E, proj0.obj_map, proj0.mor_map, proj0.name)

    def call(C, E, proj):
        sc = lifting.complete_structured(C)
        return sc, lifting.factor_structured(sc, proj)

    def check(args, out):
        C, E, proj = args
        sc, sf = out
        want = tuple(k for k in KIND_ORDER if k in FAMILIES["inflated-heyting"].kinds)
        problems = [] if sc.kinds == want else [f"carried {sc.kinds}, expected {want}"]
        problems += _check_bag(C, sc.source, want, "source")
        problems += _check_bag(sc.result.completed, sc.completed, want, "completed")
        problems += _check_bag(E, sf.target, want, "target")
        if table_isomorphic(sc.result.completed, base) is None:
            problems.append("completion is not isomorphic to the base")
        try:
            check_factorization(sc.result, proj, sf.factorization)
        except Exception as exc:
            problems.append(f"factorization rejected: {exc}")
        return problems

    def fingerprint(out):
        sc, sf = out
        fac = sf.factorization
        return _digest([
            sc.kinds,
            structure_to_json(sc.result.source, sc.source),
            structure_to_json(sc.result.completed, sc.completed),
            structure_to_json(fac.functor.target, sf.target),
            fac.functor.obj_map, fac.functor.mor_map,
            [(c.fwd, c.inv) for c in fac.alpha.components],
        ])

    label = f"pipeline {base.name}{copies}"
    return Op(label, C0.n_morphisms, False, prepare, call, check, fingerprint)


def _bases() -> dict[str, FinCat]:
    return {"chain3": chain_poset(3), "chain4": chain_poset(4), "chain5": chain_poset(5),
            "diamond": _diamond()}


# (base, copy counts, operations per pass).  The seed permutes the counts
# over the base's objects, which keeps the morphism count.  Forty operations
# keep ten beyond the 75th percentile.  The median falls inside the diamond
# band, whose copy counts no seed changes, and the 75th percentile inside the
# band of 41 morphisms.  Inputs stop at 161 morphisms and most are small, so
# a pass is short and a run repeats each input many times.
PIPELINE_SLOTS = [
    ("chain4", (3, 4, 4, 5), 1),     # 161 morphisms
    ("chain4", (2, 3, 3, 3), 3),     # 76
    ("chain5", (1, 1, 2, 2, 2), 2),  # 39
    ("chain4", (1, 2, 2, 3), 12),    # 41
    ("diamond", (2, 2, 2, 2), 22),   # 36
]


def structured_pipeline(rng: random.Random, workdir: str) -> list[Op]:
    """One seeded input per slot, run as many times per pass as the slot
    says: the runner takes the fastest of all runs of an input."""
    bases = _bases()
    ops = []
    for base, copies, count in PIPELINE_SLOTS:
        ops += [_pipeline_op(bases[base], rng.sample(copies, len(copies)))] * count
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# CLI operations shared by documents and skeletal-cli


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_fingerprint(out) -> str:
    code, text = out
    try:
        report = json.loads(text)
        report.pop("seconds", None)
    except ValueError:
        report = text
    return _digest([code, report])


def _report(out, want_code: int) -> tuple[dict, list[str]]:
    code, text = out
    problems = [] if code == want_code else [f"exit code {code}, expected {want_code}"]
    try:
        report = json.loads(text)
    except ValueError:
        return {}, problems + ["output is not a JSON report"]
    if not isinstance(report, dict):
        return {}, problems + ["output is not a JSON report"]
    return report, problems


def _status_problems(report: dict, want: dict) -> list[str]:
    got = report.get("status")
    return [] if got == want else [f"status {got}, expected {want}"]


def _cli_op(label, family, C, argv, check) -> Op:
    skeletal = FAMILIES[family].skeletality != "not skeletal"
    return Op(label, C.n_morphisms, skeletal, lambda: (argv,), _run_cli, check, _cli_fingerprint)


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# documents: validate and complete on category documents


def _setoid_classes(n: int, pairs) -> int:
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[root(a)] = root(b)
    return len({root(x) for x in range(n)})


def _document_ops(label, family, C, skeleton, path) -> list[Op]:
    """``validate`` and ``complete`` on one document; ``skeleton`` is a
    category the completion must be isomorphic to."""
    want = FAMILIES[family]

    def check_validate(args, out):
        report, problems = _report(out, 0)
        return problems + _status_problems(report, {
            "category": "valid", "objects": str(C.n_objects),
            "morphisms": str(C.n_morphisms), "skeletality": want.skeletality,
        })

    def check_complete(args, out):
        report, problems = _report(out, 0)
        problems += _status_problems(report, {
            "objects": f"{C.n_objects} -> {skeleton.n_objects}",
            "morphisms": f"{C.n_morphisms} -> {skeleton.n_morphisms}",
            "fidelity": want.fidelity,
        })
        try:
            doc = report["payload"]["result"]
            D = validate_category(doc)
            if table_isomorphic(D, skeleton) is None:
                problems.append("completion is not isomorphic to the expected skeleton")
            eta = functor_from_json(doc["eta"], {C.name: _fresh(C), D.name: D})
            if is_weak_equivalence(eta) is None:
                problems.append("eta is not a weak equivalence")
        except Exception as exc:
            problems.append(f"completion rejected: {exc}")
        return problems

    return [
        _cli_op(f"validate {label}", family, C, ["validate", path, "--json"], check_validate),
        _cli_op(f"complete {label}", family, C, ["complete", path, "--json"], check_complete),
    ]


# (base, copy counts, documents, listings per pass): 641, 361, 161 and 41
# morphisms.  The largest stops at 641, where validating takes about 0.4 s:
# other tenants of a shared host can slow a longer operation on every run of
# it, so it cannot be timed steadily.  Documents of at most 41 morphisms take
# a few milliseconds; each of their operations is listed SMALL_REPEATS times
# per pass, so a run times them often enough to find their cost, and the
# median, which falls among them, stays steady.  Setoids and products are
# small too.  The documents of 161 morphisms are listed twice, for the same
# reason: a pass holds 130 operations, thirteen beyond the 90th percentile,
# which falls among their completions.
SMALL_REPEATS = 4
DOCUMENT_SLOTS = [
    ("chain4", (7, 8, 8, 9), 1, 1),
    ("chain4", (5, 6, 6, 7), 2, 1),
    ("chain4", (3, 4, 4, 5), 4, 2),
    ("chain4", (1, 2, 2, 3), 3, SMALL_REPEATS),
    ("diamond", (2, 2, 2, 2), 1, SMALL_REPEATS),
]
SETOID_DOCUMENTS = 6
PRODUCTS = [
    ("chain3 x setoid3", lambda: (chain_poset(3), setoid_groupoid(3, {(0, 1)})),
     lambda: (chain_poset(3), discrete(2)), "product-with-setoid"),
    ("diamond x setoid2", lambda: (_diamond(), setoid_groupoid(2, {(0, 1)})),
     lambda: (_diamond(), discrete(1)), "product-with-setoid"),
    ("finset2 x chain2", lambda: (finset_fragment(2), chain_poset(2)),
     lambda: (finset_fragment(2), chain_poset(2)), "product-with-finset2"),
]


def documents(rng: random.Random, workdir: str) -> list[Op]:
    inputs = []  # (label, family, category, skeleton, listings per pass)
    bases = _bases()
    for base, copies, count, repeats in DOCUMENT_SLOTS:
        for _ in range(count):
            order = rng.sample(copies, len(copies))
            inputs.append((f"{base}{order}", "inflated-heyting",
                           inflate(bases[base], order)[0], bases[base], repeats))
    for i in range(SETOID_DOCUMENTS):
        n = rng.randint(8, 12)
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(3, 6))}
        S = setoid_groupoid(n, pairs, name=f"setoid{i}")
        inputs.append((f"setoid{n}", "setoid", S, discrete(_setoid_classes(n, pairs)),
                       SMALL_REPEATS))
    F3 = finset_fragment(3)
    inputs.append(("finset3", "finset3", F3, F3, 1))
    # fixed copy counts: the cost of this inflation depends on which objects
    # are copied, by a factor of three, so a seeded order would spread the runs
    copies = [1, 2, 2, 1]
    inputs.append((f"finset3{copies}", "inflated-finset3", inflate(F3, copies)[0], F3, 1))
    for label, make, make_skeleton, family in PRODUCTS:
        inputs.append((label, family, product_category(*make()),
                       product_category(*make_skeleton()), SMALL_REPEATS))

    ops = []
    for i, (label, family, C, skeleton, repeats) in enumerate(inputs):
        path = _write(workdir, f"doc{i}.json", category_to_json(C))
        ops += _document_ops(label, family, C, skeleton, path) * repeats
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# skeletal-cli: analyze, factor and demo on skeletal inputs


def _expected_gaps(kinds) -> list[str]:
    """What ``topos_gaps`` reports for a category carrying ``kinds``."""
    gaps = [name for kind, name in (("terminal", "terminal"), ("products", "binary products"),
                                    ("equalizers", "equalizers"), ("pullbacks", "pullbacks"))
            if kind not in kinds]
    if "products" not in kinds:
        gaps.append("exponentials (products missing)")
    elif "exponentials" not in kinds:
        gaps.append("exponentials")
    if "terminal" not in kinds:
        gaps.append("subobject classifier (terminal missing)")
    elif "classifier" not in kinds:
        gaps.append("subobject classifier")
    return gaps


def _grid(a: int, b: int) -> FinCat:
    """The product of the a-chain and the b-chain, a distributive lattice."""
    cells = [f"{i}{j}" for i in range(a) for j in range(b)]
    leq = {(f"{i}{j}", f"{k}{l}") for i in range(a) for j in range(b)
           for k in range(i, a) for l in range(j, b)}
    return dataclasses.replace(heyting_category(heyting_from_leq(cells, leq)), name=f"grid{a}x{b}")


def _skeletal_inputs(rng: random.Random) -> list[tuple[str, FinCat, str]]:
    """``(family, category, ops)``: a fixed catalog, then seeded corpus
    members.  ``ops`` is "all" (analyze, every absent kind, factor),
    "absent" (analyze, every absent kind), "one" (analyze, one seeded absent
    kind, factor) or "analyze" (analyze, one seeded absent kind).

    The catalog carries the work, so the work per pass stays the same from
    seed to seed.  The seeded members are small: their operations join the
    cluster of cheapest operations that holds the median, and barely move
    it.  ``finset_fragment(3)`` is not factored: that one operation took two
    fifths of a pass, and other tenants of a shared host slow so long an
    operation unevenly from run to run; ``hsets-chain2-2`` carries the same
    kinds through ``factor``."""
    out = [("finset3", finset_fragment(3), "absent")]
    fixed = [
        ("heyting-poset", dataclasses.replace(heyting_category(heyting_chain(5)), name="chain5")),
        ("heyting-poset", _diamond()),
        ("heyting-poset", _grid(2, 3)),
        ("heyting-poset", _grid(3, 3)),
        ("hsets-chain2-carrier2",
         dataclasses.replace(skeletize(hvalued_sets(heyting_chain(2), max_carrier=2)).completed,
                             name="hsets-chain2-2")),
        ("discrete", skeletize(setoid_groupoid(5, {(0, 1), (2, 3)}, name="setoid5")).completed),
    ]
    out += [(family, C, "all") for family, C in fixed]
    # random_category setoids with two or more classes: discrete skeletons
    while len(out) < len(fixed) + 3:
        C = random_category(rng.randrange(10**6))
        if C.name.split(":", 1)[1].startswith("setoid"):
            S = skeletize(C).completed
            if S.n_objects > 1:
                out.append(("discrete", S, "one"))
    H = rng.choice([heyting_chain(2), heyting_chain(3)])
    S = skeletize(hvalued_sets(H, max_carrier=1)).completed
    out.append(("hsets-carrier1", dataclasses.replace(S, name=f"hsets-{H.n}-1"), "analyze"))
    return out


def _analyze_ops(rng, label, family, C, path, every_absent: bool) -> list[Op]:
    """Default ``analyze``, plus ``analyze --structure`` for each absent kind
    (one seeded absent kind unless ``every_absent``)."""
    want = FAMILIES[family]

    def check_all(args, out):
        report, problems = _report(out, 0)
        status = {TOKEN[k]: ("found" if k in want.kinds else "absent") for k in KIND_ORDER}
        status["skeletality"] = want.skeletality
        problems += _status_problems(report, status)
        payload = report.get("payload", {})
        try:
            bag = structure_from_json(payload, C)
            problems += _check_bag(C, bag, [k for k in KIND_ORDER if k in want.kinds], "analyze")
        except Exception as exc:
            problems.append(f"witnesses unreadable: {exc}")
        if payload.get("gaps") != _expected_gaps(want.kinds):
            problems.append(f"gaps {payload.get('gaps')}, expected {_expected_gaps(want.kinds)}")
        return problems

    ops = [_cli_op(f"analyze {label}", family, C, ["analyze", path, "--json"], check_all)]
    absent = [TOKEN[k] for k in KIND_ORDER if k not in want.kinds]
    for token in absent if every_absent else rng.sample(absent, min(1, len(absent))):

        def check_absent(args, out, token=token):
            report, problems = _report(out, 2)
            return problems + _status_problems(
                report, {token: "absent", "skeletality": want.skeletality})

        argv = ["analyze", path, "--structure", token, "--json"]
        ops.append(_cli_op(f"analyze --structure {token} {label}", family, C, argv, check_absent))
    return ops


def _factor_op(label, family, C, path, workdir, index) -> Op:
    """``factor`` of the unit of C's completion through that completion,
    against a target document written by ``complete --carry-structure``."""
    kinds = [k for k in KIND_ORDER if k in FAMILIES[family].kinds]
    target = os.path.join(workdir, f"target{index}.json")
    code, _ = _run_cli(["complete", path, "--carry-structure", "--out", target, "--json"])
    if code != 0:
        raise RuntimeError(f"set-up: complete --carry-structure failed on {label}")
    with open(target, encoding="utf-8") as fh:
        tdoc = json.load(fh)
    fpath = _write(workdir, f"eta{index}.json", tdoc["eta"])
    tokens = ",".join(TOKEN[k] for k in kinds)
    argv = ["factor", "--source", path, "--functor", fpath, "--target", target,
            "--structures", tokens, "--json"]

    def check(args, out):
        report, problems = _report(out, 0)
        status = {"factorization": "H after eta is isomorphic to F"}
        status.update({TOKEN[k]: "preserved and lifted" for k in kinds})
        problems += _status_problems(report, status)
        try:
            src = _fresh(C)
            E = validate_category(tdoc)
            F = functor_from_json(tdoc["eta"], {src.name: src, E.name: E})
            cr = skeletize(src)
            payload = report["payload"]
            H = functor_from_json(payload["H"], {cr.completed.name: cr.completed, E.name: E})
            comps = []
            for x in range(src.n_objects):
                fwd = E.morphism_index(payload["alpha"][src.objects[x]])
                iso = find_iso(E, fwd)
                if iso is None:
                    raise ValueError(f"alpha at {src.objects[x]} is not invertible")
                comps.append(Iso(fwd, iso.inv))
            alpha = NatIso(compose_functors(cr.eta, H), F, tuple(comps))
            check_factorization(cr, F, Factorization(H, alpha))
        except Exception as exc:
            problems.append(f"factorization rejected: {exc}")
        return problems

    return _cli_op(f"factor {label}", family, C, argv, check)


def _demo_op(name: str) -> Op:
    shown, result = DEMOS[name]

    def check(args, out):
        report, problems = _report(out, 0)
        payload = report.get("payload", {})
        for key, want in (("category", shown), ("completed", result)):
            if want is None:
                if key in payload:
                    problems.append(f"unexpected {key}")
                continue
            try:
                D = validate_category(payload[key])
                if (D.n_objects, D.n_morphisms) != want:
                    problems.append(f"{key} has {D.n_objects} objects and "
                                    f"{D.n_morphisms} morphisms, expected {want}")
            except Exception as exc:
                problems.append(f"{key} rejected: {exc}")
        if not report.get("status"):
            problems.append("no notes")
        return problems

    return Op(f"demo {name}", shown[1], True, lambda: (["demo", name, "--json"],),
              _run_cli, check, _cli_fingerprint)


# Operations on categories of at most SMALL_SKELETAL morphisms take a few
# milliseconds; like the small documents, each is listed SMALL_REPEATS times
# per pass, so the median, which falls among them, stays steady.  A pass
# holds 132 operations: thirteen beyond the 90th percentile.
SMALL_SKELETAL = 11


def skeletal_cli(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for i, (family, C, which) in enumerate(_skeletal_inputs(rng)):
        path = _write(workdir, f"cat{i}.json", category_to_json(C))
        every_absent = which in ("all", "absent")
        ops += _analyze_ops(rng, C.name, family, C, path, every_absent=every_absent)
        if which in ("all", "one"):
            ops.append(_factor_op(C.name, family, C, path, workdir, i))
    ops += [_demo_op(name) for name in DEMOS]
    ops = [op for op in ops
           for _ in range(SMALL_REPEATS if op.morphisms <= SMALL_SKELETAL else 1)]
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "structured-pipeline": structured_pipeline,
    "documents": documents,
    "skeletal-cli": skeletal_cli,
}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The operation list of one pass; a function of the seed alone."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)
