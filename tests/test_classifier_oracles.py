"""The one route of each classifier decision against the second routes kept
in ``classifier_oracles`` and ``limit_oracles``: ``is_mono`` against left
cancellation and the kernel-pair square walked by the loop over cones, each
chi table against the one the loops over cones build, the chi table a carry
searches against the one transported through the equivalence, and
``preserves_subobject_classifier`` against the image pair classifying."""
from functools import cache

import limit_oracles
from catkit import core

from catkit.classifier import (
    carry_subobject_classifier,
    find_subobject_classifier,
    is_mono,
    is_subobject_classifier,
    preserves_subobject_classifier,
)
from catkit.completion import (
    full_subcategory,
    inflate,
    inflate_section,
    skeletize,
    skeleton_inclusion,
)
from catkit.core import functor, identity_functor, is_weak_equivalence
from catkit.generators import finset_fragment, finset_function, random_category, setoid_groupoid
from catkit.limits import find_terminal
from classifier_oracles import (
    image_pair_classifies,
    mono_by_cancellation,
    mono_by_pullback,
    transported_chi,
)


def _codiscrete(n):
    return setoid_groupoid(n, {(i, i + 1) for i in range(n - 1)}, name=f"codisc{n}")


# (base, copies per object) of the inflations in the corpus
INFLATIONS = ((finset_fragment(2), [1, 2, 2]), (_codiscrete(3), [2, 1, 2]))


@cache
def corpus():
    out = [random_category(seed) for seed in range(120)]
    out += [finset_fragment(k) for k in range(4)]
    out += [inflate(base, copies)[0] for base, copies in INFLATIONS]
    return tuple(out)


def _bag(C):
    """The terminal and classifier the searches find on C, or None when
    either is missing."""
    term = find_terminal(C)
    if term is None:
        return None
    soc = find_subobject_classifier(C, {"terminal": term})
    return None if soc is None else {"terminal": term, "classifier": soc}


def _constant_at_terminal(C, bag):
    t = bag["terminal"].t
    return functor(C, C, [t] * C.n_objects, [C.identity[t]] * C.n_morphisms, name="const_1")


@cache
def equivalences():
    """Weak equivalences between categories with a classifier, both ways:
    eta and the inclusion of each skeleton, and the projection and section
    of each inflation."""
    out = []
    for C in corpus():
        if _bag(C) is not None:
            res = skeletize(C)
            out += [res.cert, skeleton_inclusion(res)]
    for base, copies in INFLATIONS:
        proj = inflate(base, copies)[1]
        out += [is_weak_equivalence(proj), is_weak_equivalence(inflate_section(proj))]
    return tuple(out)


def test_is_mono_agrees_with_cancellation():
    for C in corpus():
        for f in range(C.n_morphisms):
            assert mono_by_cancellation(C, f) == (is_mono(C, f) is not None), (C.name, f)


def _ticks(call):
    """What call returns and the budget ticks it took."""
    core.set_search_budget(10**18)
    try:
        return call(), core._budget.used
    finally:
        core.set_search_budget(None)


def test_is_mono_takes_one_tick_and_agrees_with_the_kernel_pair_walk():
    seen = set()
    for C in corpus():
        for f in range(C.n_morphisms):
            got, used = _ticks(lambda: is_mono(C, f))
            assert used == 1, (C.name, f)
            assert (got is not None) == mono_by_pullback(C, f) == mono_by_cancellation(C, f), (
                C.name, f)
            seen.add(got is not None)
    assert seen == {True, False}


def test_each_chi_table_is_the_one_the_loops_over_cones_build():
    """For every point tau of every omega: the same chi table, or the same
    refusal, and where a table is built, one tick per candidate chi past
    the terminal check and the mono list; and the same classifier found."""
    verdicts = set()
    for C in corpus():
        term = find_terminal(C)
        if term is None:
            continue
        C.down_sets
        for omega in range(C.n_objects):
            for tau in C.hom(term.t, omega):
                got, used = _ticks(lambda: is_subobject_classifier(C, term, omega, tau))
                want = limit_oracles.chi_by_pullback(C, term.t, omega, tau)
                assert (got and got.chi) == want, (C.name, omega, tau)
                if got is not None:
                    candidates = sum(len(C.hom(C.mor_dst[m], omega)) for m in got.chi)
                    # the terminal check, one tick per arrow for the mono
                    # list, then one per candidate chi of each mono
                    assert used == 1 + C.n_morphisms + candidates, (C.name, omega, tau)
                verdicts.add(got is not None)
        bag = {"terminal": term}
        assert find_subobject_classifier(C, bag) == limit_oracles.find_subobject_classifier(
            C, bag), C.name
    assert verdicts == {True, False}


def test_carried_chi_equals_the_transported_chi():
    for cert in equivalences():
        src = _bag(cert.functor.source)
        # the first terminal of the target, not necessarily the image of the source's
        dst = {"terminal": find_terminal(cert.functor.target)}
        soc = carry_subobject_classifier(cert, src, dst)
        assert soc.chi == transported_chi(cert, src), cert.functor.name


def test_preservation_agrees_with_the_image_pair_classifying():
    functors = [cert.functor for cert in equivalences()]
    for C in corpus():
        if (bag := _bag(C)) is not None:
            functors += [identity_functor(C), _constant_at_terminal(C, bag)]
    functors.append(full_subcategory(finset_fragment(3), [0, 1, 2])[1])
    verdicts = []
    for F in functors:
        src, dst = _bag(F.source), _bag(F.target)
        preserved = preserves_subobject_classifier(F, src, dst) is not None
        assert preserved == image_pair_classifies(F, src, dst), F.name
        verdicts.append(preserved)
    assert True in verdicts and False in verdicts


def test_constant_functor_at_the_terminal_does_not_preserve_the_classifier():
    # it preserves the terminal and sends omega = 2 to 1, whose truth arrow
    # id_1 is classified by the point p0, not an iso
    C = finset_fragment(2)
    bag = _bag(C)
    F = _constant_at_terminal(C, bag)
    assert bag["classifier"].chi[C.identity[1]] == finset_function(C, 1, 2, (0,))
    assert preserves_subobject_classifier(F, bag, bag) is None
    assert not image_pair_classifies(F, bag, bag)
