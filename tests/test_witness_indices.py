"""Witness checkers read morphism fields as indices into the tables.  A field
outside ``range(n_morphisms)`` must be rejected: a negative one would alias
a morphism counted from the end, and a too-large one names nothing."""
import dataclasses

import pytest

from catkit.classifier import find_subobject_classifier, subobject_classifier_cert
from catkit.core import FinCat
from catkit.errors import InvalidCert
from catkit.exponentials import find_exponential, is_exponential
from catkit.generators import chain_poset, finset_fragment, heyting_category, heyting_chain
from catkit.lifting import complete_structured
from catkit.limits import (
    EqualizerW,
    find_binary_product,
    find_binary_products,
    find_equalizer,
    find_equalizers,
    find_pullback,
    find_terminal,
    is_binary_product,
    is_equalizer,
    is_pullback,
)
from catkit.nno import find_pnno, is_pnno


def _moved_last(C: FinCat, j: int) -> tuple[FinCat, list[int]]:
    """C with morphism j renumbered to the last index, and the renumbering."""
    order = [f for f in range(C.n_morphisms) if f != j] + [j]
    new = [0] * C.n_morphisms
    for i, f in enumerate(order):
        new[f] = i
    D = FinCat(
        name=C.name,
        objects=C.objects,
        mor_labels=tuple(C.mor_labels[f] for f in order),
        mor_src=tuple(C.mor_src[f] for f in order),
        mor_dst=tuple(C.mor_dst[f] for f in order),
        identity=tuple(new[i] for i in C.identity),
        comp_table=tuple(
            tuple(None if C.comp_table[f][g] is None else new[C.comp_table[f][g]] for g in order)
            for f in order
        ),
    )
    return D, new


def _renumbered(w, new, fields):
    return dataclasses.replace(w, **{f: new[getattr(w, f)] for f in fields})


def _lattice_bag(C):
    return {"terminal": find_terminal(C), "products": find_binary_products(C)}


def _renumbered_bag(bag, new):
    out = dict(bag)
    if "products" in bag:
        out["products"] = {
            k: _renumbered(p, new, ("pi1", "pi2")) for k, p in bag["products"].items()
        }
    return out


def _classifier_accepts(C, bag, w):
    try:
        return subobject_classifier_cert(C, bag["terminal"], w.omega, w.tau) is not None
    except InvalidCert:
        return False


CHAIN = chain_poset(3)
HEYTING = heyting_category(heyting_chain(3))
FRAGMENT = finset_fragment(2)

# checker name -> (category, bag, a valid witness, its morphism fields, whether
# the checker accepts a witness)
CHECKERS = {
    "is_binary_product": (
        CHAIN, {}, find_binary_product(CHAIN, 0, 1), ("pi1", "pi2"),
        lambda C, bag, w: is_binary_product(C, w),
    ),
    "is_equalizer": (
        CHAIN, {}, find_equalizer(CHAIN, 3, 3), ("f", "g", "arrow"),
        lambda C, bag, w: is_equalizer(C, w),
    ),
    "is_pullback": (
        CHAIN, {}, find_pullback(CHAIN, 4, 2), ("f", "g", "p1", "p2"),
        lambda C, bag, w: is_pullback(C, w),
    ),
    "is_exponential": (
        HEYTING, _lattice_bag(HEYTING),
        find_exponential(HEYTING, find_binary_products(HEYTING), 1, 0), ("ev",),
        lambda C, bag, w: is_exponential(C, bag["products"], w),
    ),
    "is_pnno": (
        CHAIN, _lattice_bag(CHAIN), find_pnno(CHAIN, _lattice_bag(CHAIN)), ("z", "s"),
        lambda C, bag, w: is_pnno(C, bag["terminal"], bag["products"], w.N, w.z, w.s)
        is not None,
    ),
    "subobject_classifier_cert": (
        FRAGMENT, {"terminal": find_terminal(FRAGMENT)},
        find_subobject_classifier(FRAGMENT, {"terminal": find_terminal(FRAGMENT)}), ("tau",),
        _classifier_accepts,
    ),
}


@pytest.mark.parametrize(
    "checker, field",
    [(name, f) for name, case in CHECKERS.items() for f in case[3]],
)
def test_checkers_reject_morphism_fields_out_of_range(checker, field):
    C, bag, w, fields, accepts = CHECKERS[checker]
    D, new = _moved_last(C, getattr(w, field))
    bag, w = _renumbered_bag(bag, new), _renumbered(w, new, fields)
    m = D.n_morphisms
    assert getattr(w, field) == m - 1
    assert accepts(D, bag, w)
    # -1 is morphism m - 1 read from the end; m is past the end
    for bad in (-1, m):
        assert not accepts(D, bag, dataclasses.replace(w, **{field: bad})), bad


def test_complete_structured_rejects_an_aliased_equalizer_arrow():
    last = CHAIN.n_morphisms - 1
    eqs = find_equalizers(CHAIN)
    w = eqs[(last, last)]
    assert w.arrow == last
    eqs[(last, last)] = EqualizerW(w.f, w.g, w.obj, -1)
    with pytest.raises(InvalidCert):
        complete_structured(CHAIN, kinds=["equalizers"], witnesses={"equalizers": eqs})
