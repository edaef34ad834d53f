"""The counting kernel, ``limits._counted_universal``, against the loops over
cones in ``limit_oracles``, on categories that are not thin: the same
verdict, with one tick, on every typed, commuting candidate cone, and on
entries corrupted so that one half of the kernel fails: legs that are not
jointly monic, an apex one arrow short, a cone that factors twice, and
legs swapped.  The corpus is the non-thin members of
``test_limit_routes``'s corpus (the finset fragments of 2 and 3 and the
H-valued sets over the diamond among them) with the deloopings of Z/3 and
Z/4, two products built from deloopings, and inflations.  Every key of a
category up to ``EVERY_KEY`` morphisms is tried, and a spread of keys of
the larger ones."""
import itertools
from collections import Counter
from functools import cache

import limit_oracles
from catkit import core, limits
from catkit.completion import inflate
from catkit.generators import (
    chain_poset,
    delooping,
    finset_fragment,
    heyting_category,
    heyting_diamond,
    product_category,
)
from test_limit_routes import corpus as routes_corpus

SHAPES = (limits.TERMINAL, limits.PRODUCTS, limits.EQUALIZERS, limits.PULLBACKS)
EVERY_KEY = 120
SPREAD = 4   # keys per shape of a larger category


def _cyclic(n: int):
    return delooping([[(i + j) % n for j in range(n)] for i in range(n)], name=f"Z{n}")


@cache
def corpus():
    z3c3 = product_category(_cyclic(3), chain_poset(3))
    extra = [
        _cyclic(3), _cyclic(4), z3c3, inflate(z3c3, [2, 3, 2])[0],
        product_category(_cyclic(2), heyting_category(heyting_diamond())),
        inflate(finset_fragment(2), [1, 2, 2])[0],
    ]
    return tuple(C for C in (*routes_corpus(), *extra) if C.down_sets is None)


def _keys(shape, C):
    keys = shape.keys(C)
    if C.n_morphisms <= EVERY_KEY:
        return keys
    return keys[:: max(1, len(keys) // SPREAD)]


def _candidates(shape, C, key):
    """(apex, legs) of every typed cone over key that satisfies the
    shape's equations, by apex, then legs."""
    feet = shape.feet(C, key)
    for apex in range(C.n_objects):
        for legs in itertools.product(*[C.hom(apex, x) for x in feet]):
            if shape.commutes is None or shape.commutes(C, key, legs):
                yield apex, legs


def _kernel(C, shape, key, apex, legs):
    """The kernel's verdict and the ticks it took."""
    core.set_search_budget(10**18)
    try:
        return limits._counted_universal(limits._Counts(C), shape, key, apex, legs), core._budget.used
    finally:
        core.set_search_budget(None)


def _oracle(C, shape, key, apex, legs) -> bool:
    return limit_oracles.CONE_LOOPS[shape.name](C, shape.witness(*key, apex, *legs))


def _half_failing(C, apex, legs, cones) -> str:
    """Which half of the kernel fails on the cone, given the count of the
    cones over its key, if any."""
    us = C.into[apex]
    if len(us) > cones:
        return "factors twice"
    monic = limits._jointly_monic(C, apex, legs)
    if len(us) == cones:
        return "limit" if monic else "not jointly monic"
    return "one arrow short" if monic and len(us) == cones - 1 else "short"


@cache
def verdicts():
    """(category, shape, key, apex, legs, kernel run, oracle verdict, what
    fails) for every candidate."""
    out = []
    for C in corpus():
        for shape in SHAPES:
            for key in _keys(shape, C):
                cones = shape.cones(limits._Counts(C), key)
                for apex, legs in _candidates(shape, C, key):
                    out.append((C, shape, key, apex, legs, _kernel(C, shape, key, apex, legs),
                                _oracle(C, shape, key, apex, legs),
                                _half_failing(C, apex, legs, cones)))
    return tuple(out)


def test_the_corpus_is_not_thin_and_holds_the_named_categories():
    names = {C.name for C in corpus()}
    assert {"Z3", "Z4", "finset<=2", "finset<=3", "hsets(4)"} <= names, names
    assert len(corpus()) > 50


def test_every_candidate_gets_the_oracles_verdict_with_one_tick():
    seen = Counter()
    for C, shape, key, apex, legs, got, want, what in verdicts():
        assert got == (want, 1), (C.name, shape.name, key, apex, legs)
        assert want == (what == "limit"), (C.name, shape.name, key, apex, legs, what)
        seen[shape.name, want] += 1
    # every shape meets limits and cones that are not
    assert {(shape.name, v) for shape in SHAPES for v in (True, False)} <= set(seen), seen


def test_each_half_of_the_kernel_fails_somewhere():
    """A cone with the right count whose legs are not jointly monic, one
    with jointly monic legs and an apex one arrow short, and one through
    which some cone factors twice, each refused as the oracle refuses it."""
    seen = {what for *_, what in verdicts()}
    assert {"limit", "not jointly monic", "one arrow short", "factors twice"} <= seen, seen


def test_swapped_legs_get_the_oracles_verdict():
    """The limit found at a pair key with its two legs swapped, through the
    public check and, where the swapped cone is still typed and commutes,
    through the kernel."""
    seen = Counter()
    for C in corpus():
        for shape in (limits.PRODUCTS, limits.PULLBACKS):
            k = shape.n_key
            for key in _keys(shape, C):
                w = limits.find_limit(shape, C, key)
                if w is None:
                    continue
                bad = shape.witness(*key, w[k], w[k + 2], w[k + 1])
                want = limit_oracles.CONE_LOOPS[shape.name](C, bad)
                assert shape.is_limit(C, bad) == want, (C.name, shape.name, key)
                typed = (w[k], bad[k + 1:]) in set(_candidates(shape, C, key))
                if typed:
                    assert _kernel(C, shape, key, w[k], bad[k + 1:]) == (want, 1), (
                        C.name, shape.name, key)
                seen[shape.name, typed, want] += 1
    # swapped legs that are still typed and commute, here a limit again,
    # and swapped legs the public check refuses, for both shapes
    assert {(name, typed, typed) for name in ("product", "pullback")
            for typed in (True, False)} <= set(seen), seen
