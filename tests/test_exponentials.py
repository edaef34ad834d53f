"""Exponential objects relative to chosen products."""
import re

import pytest

from catkit.completion import factor_through, inflate, inflate_section, skeletize
from catkit.core import functor, identity_functor, is_weak_equivalence
from catkit.errors import InvalidCert, NotACone
from catkit.lifting import KINDS, find_bag
from catkit.exponentials import (
    ExponentialW,
    find_exponential,
    find_exponentials,
    is_exponential,
    lift_preservation_exponentials,
    preserves_exponentials,
    transfer_exponentials,
)
from catkit.generators import (
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    setoid_groupoid,
)
from catkit.limits import (
    PRODUCTS,
    BinProductW,
    find_binary_products,
    lift_preservation_binary_products,
    partial_table,
    preserves_binary_products,
    transfer_binary_products,
)
import limit_oracles
from limit_oracles import check_exp_preservation, curry, exponential_comparison


def _chain_functor(src, dst, obj_map, name):
    mor_map = [
        dst.hom(obj_map[src.mor_src[f]], obj_map[src.mor_dst[f]])[0]
        for f in range(src.n_morphisms)
    ]
    return functor(src, dst, obj_map, mor_map, name=name)


def test_heyting_exponentials_are_implications():
    for H in (heyting_chain(3), heyting_diamond()):
        C = heyting_category(H)
        exps = find_exponentials(C, {"products": find_binary_products(C)})
        assert exps is not None
        for (x, y), w in exps.items():
            assert w.obj == H.imp[x][y]


def test_wrong_object_is_not_exponential():
    H = heyting_chain(3)
    C = heyting_category(H)
    prods = find_binary_products(C)
    # 1 => 0 is 0; the top is merely a cone carrier, not an exponential
    ev_hom = C.hom(prods[(2, 1)].apex, 0)
    assert not ev_hom or not is_exponential(
        C, prods, ExponentialW(1, 0, 2, ev_hom[0])
    )
    good = find_exponential(C, prods, 1, 0)
    assert good.obj == 0


def test_fragment1_exponential_cardinalities():
    # |hom(1, y^x)| must equal |y|^|x| with cardinalities 0 and 1
    C = finset_fragment(1)
    exps = find_exponentials(C, {"products": find_binary_products(C)})
    assert {k: w.obj for k, w in exps.items()} == {
        (0, 0): 1,
        (0, 1): 1,
        (1, 0): 0,
        (1, 1): 1,
    }


def test_fragment2_exponentials_partial():
    """The fragment is not thin, so it has no products (Freyd) and no bag
    of products and exponentials: over its partial products table no pair
    gets an exponential, not even (1, 2), whose loop over curried forms
    passes with obj 2, and no candidate passes the check."""
    C = finset_fragment(2)
    assert C.down_sets is None
    prods = partial_table(PRODUCTS, C)
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            assert find_exponential(C, prods, x, y) is None
            for obj in range(C.n_objects):
                entry = prods.get((obj, x))
                for ev in C.hom(entry.apex, y) if entry else ():
                    assert not is_exponential(C, prods, ExponentialW(x, y, obj, ev))
    assert find_exponentials(C, {"products": prods}) is None
    assert any(limit_oracles.is_exponential(C, prods, ExponentialW(1, 2, 2, ev))
               for ev in C.hom(prods[(2, 1)].apex, 2))


def test_curry_is_a_bijection():
    H = heyting_diamond()
    C = heyting_category(H)
    prods = find_binary_products(C)
    exps = find_exponentials(C, {"products": prods})
    for (x, y), w in exps.items():
        for z in range(C.n_objects):
            src = prods[(z, x)].apex
            fs = C.hom(src, y)
            lams = {curry(C, prods, w, z, f) for f in fs}
            assert len(lams) == len(fs)
            assert lams <= set(C.hom(z, w.obj))
            assert len(fs) == len(C.hom(z, w.obj))


def test_exponential_comparison_connects_witnesses():
    S = setoid_groupoid(3, {(0, 1), (1, 2)})
    prods = find_binary_products(S)
    a = find_exponential(S, prods, 0, 1)
    # any object carries an exponential in a codiscrete groupoid
    alt_obj = (a.obj + 1) % 3
    entry = prods[(alt_obj, 0)]
    b = None
    for ev in S.hom(entry.apex, 1):
        cand = ExponentialW(0, 1, alt_obj, ev)
        if is_exponential(S, prods, cand):
            b = cand
            break
    assert b is not None
    iso = exponential_comparison(S, prods, a, b)
    assert S.compose(iso.fwd, iso.inv) == S.identity[a.obj]
    with pytest.raises(NotACone):
        exponential_comparison(S, prods, a, find_exponential(S, prods, 1, 1))


def test_transfer_exponentials_matches_direct_search():
    C = heyting_category(heyting_chain(3))
    infl, proj = inflate(C, [2, 1, 2])
    cert = is_weak_equivalence(inflate_section(proj))
    prodsC = find_binary_products(C)
    src = {"products": prodsC, "exponentials": find_exponentials(C, {"products": prodsC})}
    prodsD = transfer_binary_products(cert, prodsC)
    expsD = transfer_exponentials(cert, src, {"products": prodsD})
    assert set(expsD) == {(x, y) for x in range(infl.n_objects) for y in range(infl.n_objects)}
    for (x, y), w in expsD.items():
        assert is_exponential(infl, prodsD, w)
        direct = find_exponential(infl, prodsD, x, y)
        exponential_comparison(infl, prodsD, w, direct)
    muG = preserves_binary_products(cert.functor, prodsC, prodsD)
    dst = {"products": prodsD, "exponentials": expsD}
    pres = preserves_exponentials(cert.functor, src, dst, {"products": muG})
    check_exp_preservation(pres, prodsC, prodsD, muG)


def test_preserves_exponentials_negative():
    # collapsing 0 and 1 in the 3-chain keeps meets but moves 1 => 0 from
    # bottom to top, so implication is not preserved
    C3 = heyting_category(heyting_chain(3))
    C2 = heyting_category(heyting_chain(2))
    F = _chain_functor(C3, C2, [0, 0, 1], "collapse-low")
    prodsC = find_binary_products(C3)
    prodsD = find_binary_products(C2)
    muF = preserves_binary_products(F, prodsC, prodsD)
    assert muF is not None
    src = {"products": prodsC, "exponentials": find_exponentials(C3, {"products": prodsC})}
    dst = {"products": prodsD, "exponentials": find_exponentials(C2, {"products": prodsD})}
    assert preserves_exponentials(F, src, dst, {"products": muF}) is None


def test_preserves_exponentials_positive_identity():
    C = heyting_category(heyting_diamond())
    prods = find_binary_products(C)
    bag = {"products": prods, "exponentials": find_exponentials(C, {"products": prods})}
    muI = preserves_binary_products(identity_functor(C), prods, prods)
    cert = preserves_exponentials(identity_functor(C), bag, bag, {"products": muI})
    assert cert is not None
    for iso in cert.comparison.values():
        assert C.is_identity(iso.fwd)
    check_exp_preservation(cert, prods, prods, muI)


def test_lift_preservation_exponentials_through_completion():
    C = heyting_category(heyting_chain(3))
    infl, proj = inflate(C, [1, 3, 2])
    res = skeletize(infl)
    fac = factor_through(res, proj)
    src = {"products": find_binary_products(infl)}
    src["exponentials"] = find_exponentials(infl, src)
    dst = {"products": find_binary_products(C)}
    dst["exponentials"] = find_exponentials(C, dst)
    Fcerts = {"products": preserves_binary_products(proj, src["products"], dst["products"])}
    Fcerts["exponentials"] = preserves_exponentials(proj, src, dst, Fcerts)
    assert Fcerts["exponentials"] is not None
    carried = {"products": transfer_binary_products(res.cert, src["products"])}
    carried["exponentials"] = transfer_exponentials(res.cert, src, carried)
    Hcerts = {"products": lift_preservation_binary_products(
        res.cert, proj, fac.functor, fac.alpha, Fcerts["products"], carried["products"]
    )}
    lifted = lift_preservation_exponentials(
        res.cert, proj, fac.functor, fac.alpha, src, dst, Fcerts, carried, Hcerts
    )
    assert lifted.functor is fac.functor
    D = res.completed
    assert set(lifted.comparison) == {(x, y) for x in range(D.n_objects) for y in range(D.n_objects)}


def test_preserves_exponentials_rejects_an_invalid_target():
    # as preserves_binary_products does, an invalid target table raises
    # instead of reading as "not preserved"
    C = heyting_category(heyting_chain(3))
    F = identity_functor(C)
    bag = {"products": find_binary_products(C)}
    bag["exponentials"] = find_exponentials(C, bag)
    muI = preserves_binary_products(F, bag["products"], bag["products"])
    bad = {**bag, "exponentials": {**bag["exponentials"], (0, 0): ExponentialW(0, 0, 0, 0)}}
    with pytest.raises(InvalidCert):
        preserves_exponentials(F, bag, bad, {"products": muI})
    # the same kind of entry for products: (1, 1) on the apex below it
    le01 = C.hom(0, 1)[0]
    bad_prods = {**bag["products"], (1, 1): BinProductW(1, 1, 0, le01, le01)}
    with pytest.raises(InvalidCert):
        preserves_binary_products(F, bag["products"], bad_prods)


def test_preserves_exponentials_refuses_a_source_entry_out_of_range():
    """An evaluation of ev - m would be read from the end of F's map, one
    of m not at all, and a key part of -1 as the last object."""
    C = heyting_category(heyting_chain(3))
    b = find_bag(C, ("terminal", "products", "exponentials", "pnno"))
    F = identity_functor(C)
    certs = {}
    for k in ("terminal", "products"):
        certs[k] = KINDS[k].preserves(F, b, b, certs)
    exps, m = b["exponentials"], C.n_morphisms
    w = exps[(1, 2)]
    cases = [((1, 2), w._replace(ev=w.ev - m)), ((1, 2), w._replace(ev=m)),
             ((1, 2), w._replace(obj=-1)), ((-1, 1), exps[(2, 1)])]
    for key, bad in cases:
        src = {**b, "exponentials": {**exps, key: bad}}
        with pytest.raises(InvalidCert, match=re.escape(f"source exponential entry {key} is out")):
            preserves_exponentials(F, src, b, certs)
    assert preserves_exponentials(F, b, b, certs) is not None
