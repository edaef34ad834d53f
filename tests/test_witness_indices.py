"""Witness checkers read morphism fields as indices into the tables.  A field
outside ``range(n_morphisms)`` must be rejected: a negative one would alias
a morphism counted from the end, and a too-large one names nothing."""

import pytest

from catkit.classifier import find_subobject_classifier, subobject_classifier_cert
from catkit.core import FinCat, identity_functor
from catkit.errors import InvalidCert
from catkit.exponentials import find_exponential, is_exponential
from catkit.generators import chain_poset, finset_fragment, heyting_category, heyting_chain
from catkit.lifting import complete_structured
from catkit.limits import (
    EQUALIZERS,
    PRODUCTS,
    PULLBACKS,
    EqualizerW,
    find_binary_products,
    find_equalizers,
    find_limit,
    find_terminal,
    is_binary_product,
    is_equalizer,
    is_pullback,
    preserves_binary_products,
)
from catkit.nno import find_pnno, is_pnno

from colimit_oracles import (
    find_binary_coproduct_direct,
    find_coequalizer_direct,
    is_binary_coproduct_direct,
    is_coequalizer_direct,
)


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
    return w._replace(**{f: new[getattr(w, f)] for f in fields})


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
        CHAIN, {}, find_limit(PRODUCTS, CHAIN, (0, 1)), ("pi1", "pi2"),
        lambda C, bag, w: is_binary_product(C, w),
    ),
    "is_equalizer": (
        CHAIN, {}, find_limit(EQUALIZERS, CHAIN, (3, 3)), ("f", "g", "arrow"),
        lambda C, bag, w: is_equalizer(C, w),
    ),
    "is_pullback": (
        CHAIN, {}, find_limit(PULLBACKS, CHAIN, (4, 2)), ("f", "g", "p1", "p2"),
        lambda C, bag, w: is_pullback(C, w),
    ),
    "is_binary_coproduct_direct": (
        CHAIN, {}, find_binary_coproduct_direct(CHAIN, 0, 1), ("in1", "in2"),
        lambda C, bag, w: is_binary_coproduct_direct(C, w),
    ),
    "is_coequalizer_direct": (
        CHAIN, {}, find_coequalizer_direct(CHAIN, 3, 3), ("f", "g", "arrow"),
        lambda C, bag, w: is_coequalizer_direct(C, w),
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
        assert not accepts(D, bag, w._replace(**{field: bad})), bad


def test_complete_structured_rejects_an_aliased_equalizer_arrow():
    last = CHAIN.n_morphisms - 1
    eqs = find_equalizers(CHAIN)
    w = eqs[(last, last)]
    assert w.arrow == last
    eqs[(last, last)] = EqualizerW(w.f, w.g, w.obj, -1)
    with pytest.raises(InvalidCert):
        complete_structured(CHAIN, kinds=["equalizers"], witnesses={"equalizers": eqs})


@pytest.mark.parametrize("shape", [PRODUCTS, EQUALIZERS, PULLBACKS])
def test_find_limit_finds_nothing_for_a_key_read_from_the_end(shape):
    """The search tests candidates with the universal property alone, so
    the key is range-checked once: -1 would alias the last object or
    morphism, whose own key has a limit."""
    last = (CHAIN.n_objects if shape is PRODUCTS else CHAIN.n_morphisms) - 1
    key = (last, last) if shape is not PULLBACKS else (last, CHAIN.identity[-1])
    assert find_limit(shape, CHAIN, key) is not None
    assert find_limit(shape, CHAIN, (-1, key[1])) is None


@pytest.mark.parametrize("bad", [99, -1])
def test_preserves_rejects_a_source_leg_out_of_range(bad):
    """A source leg is imaged by index: 99 names no morphism and -1 would be
    read as the last one, so both are refused, naming the key."""
    P = find_binary_products(CHAIN)
    broken = {**P, (2, 2): P[(2, 2)]._replace(pi2=bad)}
    with pytest.raises(InvalidCert, match=r"entry \(2, 2\) is out of range"):
        preserves_binary_products(identity_functor(CHAIN), broken, P)
