"""Guards of the keyed-limit shape table: the pair enumerations, the witness
choices, the terminal object as the limit of the empty diagram, the
benchmark's span targets, and each kind's lifted preservation against its
transport through alpha."""
import hashlib
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from catkit import classifier, exponentials, limits, nno
from catkit.completion import factor_through, inflate, inflate_section, skeletize
from catkit.core import Iso, fincat, functor, identity_functor, is_weak_equivalence
from catkit.errors import InvalidCert, PreconditionViolation, ReflectionFails
from catkit.generators import (
    chain_poset,
    delooping,
    finset_fragment,
    heyting_category,
    heyting_diamond,
    random_category,
    setoid_groupoid,
)
from catkit.interchange import structure_to_json
from catkit.lifting import KIND_ORDER, KINDS, complete_structured, factor_structured
from catkit.limits import (
    EQUALIZERS,
    PRODUCTS,
    PULLBACKS,
    TERMINAL,
    ChosenTerminal,
    cospan_pairs,
    find_equalizers,
    find_limit,
    find_pullbacks,
    find_terminal,
    lift_preservation_terminal,
    parallel_pairs,
    partial_table,
    preserves_terminal,
    reflect,
    to_terminal,
    transfer_terminal,
)

from completion_helpers import shifted_copies, twisted_equalizers
from lift_oracles import (
    classifier_transport,
    exponential_transport,
    limit_transport,
    pnno_transport,
)

ROOT = Path(__file__).resolve().parent.parent


def _pair_corpus():
    yield from (random_category(seed) for seed in range(40))
    yield inflate(chain_poset(4), [1, 2, 2, 3])[0]
    yield inflate(heyting_category(heyting_diamond()), [2, 2, 2, 2])[0]


def test_pair_lists_equal_the_double_loop_definition():
    for C in _pair_corpus():
        m = range(C.n_morphisms)
        cospans = [(f, g) for f in m for g in m if C.mor_dst[f] == C.mor_dst[g]]
        parallel = [(f, g) for f, g in cospans if C.mor_src[f] == C.mor_src[g]]
        assert parallel_pairs(C) == parallel, C.name
        assert cospan_pairs(C) == cospans, C.name


# sha1 of the sorted JSON of each witness table, recorded before the keyed
# limits were moved onto one shape table: a change here is a changed choice
PINNED = {
    "finset2": "7bd223fa06a7d35547d3d20816f180d77e0190cb",
    "random0": "ceb8a3eb03e4e44c458db3f4c6a4b61a5d5b7b4c",
    "random1": "2cd40af8f76372c978ab108aa20b1c7a34e0c6e4",
    "random2": "1aa6eec4287e077fd1ba72eb37a94a98de10f66a",
    "random3": "2cd40af8f76372c978ab108aa20b1c7a34e0c6e4",
    "random4": "993706fd8bdbae4a0114365cfe135184bedfb4b5",
    "random5": "ceb8a3eb03e4e44c458db3f4c6a4b61a5d5b7b4c",
    "random6": "0f70fdaf8d59ba345976dcd9f6e7e68a172d623c",
    "random7": "08bc9530b3d063368ac4497a1f8a057cb8528439",
    "random8": "993706fd8bdbae4a0114365cfe135184bedfb4b5",
    "random9": "2c1b141cc4c9d040528635bc343427bcbe29face",
    "random10": "29b02d16c10a0005037643b5227f7d866f7f0c27",
    "random11": "da8e2ecceeebfb84c30332a3e865803e3d98b953",
    "random12": "18d83aa5b9d6bf72bbfa3e9ba799b5693cfef520",
    "random13": "ea7fd19f777a4d3bdb638d83647b79c7cbe4072b",
    "random14": "2cd40af8f76372c978ab108aa20b1c7a34e0c6e4",
    "random15": "fc48498ca62f9eea07cc89b95f145d375afad349",
    "random16": "af5543707dbe8ab433b0270d35c47d2ead6d0c4f",
    "random17": "ceb8a3eb03e4e44c458db3f4c6a4b61a5d5b7b4c",
    "random18": "fc48498ca62f9eea07cc89b95f145d375afad349",
    "random19": "dc9b400b68ef9d26a57ed25505b2a5a3cff71396",
    "chain4-1223.source": "01d9c4c0c14b9c46cc9aa11709c4994d57aabcbb",
    "chain4-1223.completed": "9fcb47cc23202d993725dcd57d0cb935089c192e",
}


def _digest(C, bag):
    doc = structure_to_json(C, {k: v for k, v in bag.items() if v is not None})
    return hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", [n for n in PINNED if not n.startswith("chain4")])
def test_keyed_limit_choices_are_pinned(name):
    C = finset_fragment(2) if name == "finset2" else random_category(int(name[len("random"):]))
    bag = {
        "products": partial_table(PRODUCTS, C),
        "equalizers": find_equalizers(C),
        "pullbacks": find_pullbacks(C),
    }
    assert _digest(C, bag) == PINNED[name]


def test_structured_completion_choices_are_pinned():
    C, _ = inflate(chain_poset(4), [1, 2, 2, 3])
    sc = complete_structured(C)
    assert _digest(C, sc.source) == PINNED["chain4-1223.source"]
    assert _digest(sc.result.completed, sc.completed) == PINNED["chain4-1223.completed"]


def test_benchmark_span_targets_resolve(monkeypatch):
    """The traced benchmark wraps each span target by name; a target renamed
    away would only show when the benchmark runs."""
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)   # dataclasses look it up
    spec.loader.exec_module(layers)
    for span in layers.SPANS:
        owner, attr = span.target
        if owner == "KINDS":
            continue
        fn = getattr(importlib.import_module(f"catkit.{owner}"), attr, None)
        assert callable(fn), span.name


# ---------------------------------------------------------------------------
# the terminal object is the limit of the empty diagram


def _terminals(C):
    """Every terminal object, by the definition."""
    return [t for t in range(C.n_objects)
            if all(len(C.hom(x, t)) == 1 for x in range(C.n_objects))]


def test_find_terminal_is_the_lowest_terminal_by_definition():
    for C in _pair_corpus():
        found = find_terminal(C)
        expected = _terminals(C)
        assert (found and found.t) == (expected[0] if expected else None), C.name


def _unique_arrow(C, x, y):
    (u,) = C.hom(x, y)
    return u


def test_preserves_terminal_certifies_by_the_unique_arrows():
    for C in _pair_corpus():
        terminals = _terminals(C)
        if not terminals:
            continue
        infl, proj = inflate(C, 2)
        sec = inflate_section(proj)
        cases = [(identity_functor(C), t, u) for t in terminals for u in terminals]
        cases += [(sec, terminals[0], u) for u in _terminals(infl)]
        for F, t, u in cases:
            D, ft = F.target, F.obj_map[t]
            cert = preserves_terminal(F, ChosenTerminal(t), ChosenTerminal(u))
            assert cert.mu[()] == Iso(_unique_arrow(D, u, ft), _unique_arrow(D, ft, u))
        # an image that is not terminal is not preserved
        for x in set(range(C.n_objects)) - set(terminals):
            F = identity_functor(C)
            assert preserves_terminal(F, ChosenTerminal(x), ChosenTerminal(terminals[0])) is None


LIMIT_SHAPES = {"terminal": TERMINAL, "products": PRODUCTS, "equalizers": EQUALIZERS,
                "pullbacks": PULLBACKS}
POINT_TRANSPORTS = {"pnno": pnno_transport, "classifier": classifier_transport}


def _lift_cases():
    """(structured completion, functor to factor) pairs: the corpus's
    inflations and an inflated fragment, which carries the classifier, once
    with the found witnesses and once with automorphism-twisted equalizers,
    each through its projection and through the automorphism shifting its
    copies.  Along the shift, the image of each chosen witness is not the
    chosen one of its diagram, so the comparisons are not identities, and
    alpha is not the identity."""
    for C in _pair_corpus():
        infl, proj = inflate(C, 2)
        yield complete_structured(infl), proj
    infl, proj = inflate(finset_fragment(2), [1, 1, 2])
    twisted, n = twisted_equalizers(infl)
    assert n > 0
    yield complete_structured(infl), proj
    yield complete_structured(infl, kinds=("equalizers",), witnesses={"equalizers": twisted}), proj


@pytest.mark.filterwarnings("ignore:target")
def test_lifted_preservation_equals_the_transport_through_alpha():
    """Each lift decides the factored functor H directly; transporting F's
    comparisons through alpha (``lift_oracles``) must build exactly the
    certificate it returns, and every transport square must commute (the
    limit route raises otherwise).  Every kind meets an alpha that is not
    the identity and comparisons that are not identities."""
    seen, twisted_alpha, moved = set(), set(), set()
    cases = ((sc, F) for sc, proj in _lift_cases() for F in (proj, shifted_copies(proj)))
    for sc, F in cases:
        fact = factor_structured(sc, F)
        E, H, alpha = F.target, fact.factorization.functor, fact.factorization.alpha
        cert = sc.result.cert
        args = (cert, F, H, alpha, sc.source, fact.target, fact.functor_certs, sc.completed)
        for name in sc.kinds:
            lifted = fact.lifted_certs[name]
            assert lifted.functor is H
            shape = LIMIT_SHAPES.get(name)
            if shape is not None:
                table = sc.completed[name] if shape.n_key else {(): sc.completed[name]}
                built = limit_transport(shape, cert, F, H, alpha, fact.functor_certs[name], table)
                assert lifted.source == table
                got = {key: iso.fwd for key, iso in lifted.mu.items()}
            elif name == "exponentials":
                built = exponential_transport(*args)
                got = {key: iso.fwd for key, iso in lifted.comparison.items()}
            else:
                built = {(): POINT_TRANSPORTS[name](*args)}
                got = {(): lifted.comparison.fwd}
            assert got == built, (sc.result.source.name, F.name, name)
            if any(not E.is_identity(u) for u in got.values()):
                moved.add(name)
        seen |= set(sc.kinds)
        if any(not E.is_identity(c.fwd) for c in alpha.components):
            twisted_alpha |= set(sc.kinds)
    assert seen == twisted_alpha == moved == set(KIND_ORDER)


@pytest.mark.filterwarnings("ignore:target")
def test_terminal_verbs_reject_bad_input_as_before():
    C = chain_poset(3)
    infl, proj = inflate(C, [2, 1, 2])
    cert = is_weak_equivalence(inflate_section(proj))
    with pytest.raises(InvalidCert):
        transfer_terminal(cert, ChosenTerminal(0))
    with pytest.raises(InvalidCert, match="terminal witness is not terminal"):
        KINDS["terminal"].check(C, {"terminal": ChosenTerminal(0)})
    with pytest.raises(InvalidCert, match="apex c0 admits 0 mediators from c2"):
        to_terminal(C, ChosenTerminal(0), 2)
    # the top has no arrow down to the bottom
    with pytest.raises(InvalidCert):
        preserves_terminal(identity_functor(C), ChosenTerminal(2), ChosenTerminal(0))
    res = skeletize(infl)
    fac = factor_through(res, proj)
    tD = transfer_terminal(res.cert, find_terminal(infl))
    with pytest.raises(PreconditionViolation):
        lift_preservation_terminal(
            res.cert, identity_functor(infl), fac.functor, fac.alpha, tD, find_terminal(C)
        )
    pt = delooping([[0]], name="pt")
    crush = functor(chain_poset(2), pt, [0, 0], [0, 0, 0], name="crush")
    with pytest.raises(PreconditionViolation):
        reflect(TERMINAL, crush, ChosenTerminal(0))
    with pytest.raises(PreconditionViolation):
        reflect(TERMINAL, proj, ChosenTerminal(0))
    # only a wrong fully-faithfulness decision lets the reflection itself fail
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "is_fully_faithful", lambda F: True)
        with pytest.raises(ReflectionFails):
            reflect(TERMINAL, crush, ChosenTerminal(0))


def test_reflect_refuses_a_witness_out_of_range_before_imaging_it():
    """A field of -1 would be imaged as the last object or morphism, and one
    past the end would not be imaged at all: both are bad input."""
    C, proj = inflate(chain_poset(3), [1, 2, 1])
    w = find_limit(PRODUCTS, C, (0, 0))
    for bad, shape in ((w._replace(pi1=w.pi1 - C.n_morphisms), PRODUCTS),
                       (ChosenTerminal(-1), TERMINAL), (ChosenTerminal(99), TERMINAL)):
        with pytest.raises(InvalidCert, match=f"source {shape.name} witness .* is out of range"):
            reflect(shape, proj, bad)
    assert reflect(PRODUCTS, proj, w) == w


def _split_idempotent():
    """t is terminal and x has exactly one global point p, but x is not
    terminal: its endomorphism e = ! ; p is not the identity."""
    return fincat(
        "split idempotent", ["t", "x"], ["id_t", "id_x", "p", "!", "e"],
        [0, 1, 0, 1, 1], [0, 1, 1, 0, 1], [0, 1],
        {(2, 3): 0, (3, 2): 4, (4, 4): 4, (4, 3): 3, (2, 4): 2},
    )


def test_preserves_terminal_rejects_an_invalid_target():
    C = chain_poset(3)
    with pytest.raises(InvalidCert, match="terminal witness is not terminal"):
        preserves_terminal(identity_functor(C), ChosenTerminal(0), ChosenTerminal(0))
    # the image is terminal and the target has one arrow from it, not an iso
    S = _split_idempotent()
    with pytest.raises(InvalidCert, match="terminal witness is not terminal"):
        preserves_terminal(identity_functor(S), ChosenTerminal(0), ChosenTerminal(1))
    assert preserves_terminal(identity_functor(S), ChosenTerminal(0), ChosenTerminal(0))
    assert preserves_terminal(identity_functor(S), ChosenTerminal(1), ChosenTerminal(0)) is None


@pytest.mark.filterwarnings("ignore:target")
def test_pipeline_reaches_the_limit_verbs_through_the_module(monkeypatch):
    """The traced benchmark wraps each kind's verbs on its module; a registry
    that held on to the function objects would bypass the wrappers.  The
    codiscrete groupoid carries every kind, so one pipeline reaches them all."""
    calls = Counter()
    limit_verbs = ("find_", "transfer_", "preserves_", "lift_preservation_")
    names = [(limits, prefix + suffix)
             for suffix in ("terminal", "binary_products", "equalizers", "pullbacks")
             for prefix in limit_verbs]
    names += [(module, prefix + suffix)
              for module, suffix in ((exponentials, "exponentials"),
                                     (classifier, "subobject_classifier"), (nno, "pnno"))
              for prefix in ("check_",) + limit_verbs]
    for module, name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    S = setoid_groupoid(3, {(0, 1), (1, 2)})
    C, proj = inflate(S, [2, 1, 2])
    sc = complete_structured(C)
    assert sc.kinds == KIND_ORDER
    # sc's bags are not checked again; supplying the target's bag reaches
    # every check_ through kind.check
    factor_structured(sc, proj, target_witnesses=complete_structured(S).source)
    assert set(calls) == {name for _, name in names}
