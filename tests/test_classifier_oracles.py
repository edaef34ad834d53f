"""The one route of each classifier decision against the second route kept in
``classifier_oracles``: ``is_mono`` against left cancellation, the chi table
a carry searches against the one transported through the equivalence, and
``preserves_subobject_classifier`` against the image pair classifying."""
from functools import cache

from catkit.classifier import (
    carry_subobject_classifier,
    find_subobject_classifier,
    is_mono,
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
from classifier_oracles import image_pair_classifies, mono_by_cancellation, transported_chi


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
        preserved = preserves_subobject_classifier(F, src, dst, {}) is not None
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
    assert preserves_subobject_classifier(F, bag, bag, {}) is None
    assert not image_pair_classifies(F, bag, bag)
