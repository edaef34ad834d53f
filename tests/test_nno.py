"""Parameterized natural-number objects and their transport."""

import pytest

from catkit.completion import factor_through, inflate, inflate_section, skeletize
from catkit.core import identity_functor, is_weak_equivalence
from catkit.errors import InvalidCert
from catkit.lifting import find_bag
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    random_category,
    setoid_groupoid,
)
from catkit.limits import (
    PRODUCTS,
    ChosenTerminal,
    find_binary_products,
    find_terminal,
    partial_table,
    transfer_binary_products,
    transfer_terminal,
)
from catkit.nno import (
    PNNOW,
    find_pnno,
    is_pnno,
    lift_preservation_pnno,
    preserves_pnno,
    reflect_pnno,
    transfer_pnno,
)

def _codiscrete(n):
    return setoid_groupoid(n, {(i, i + 1) for i in range(n - 1)}, name=f"codisc{n}")


def test_bounded_lattices_carry_the_degenerate_pnno():
    for C in (chain_poset(3), heyting_category(heyting_diamond())):
        term = find_terminal(C)
        w = find_pnno(C, {"terminal": term, "products": find_binary_products(C)})
        assert w is not None
        assert w.N == term.t
        assert C.is_identity(w.z) and C.is_identity(w.s)


def test_codiscrete_any_object_works():
    S = _codiscrete(3)
    term = find_terminal(S)
    prods = find_binary_products(S)
    w = find_pnno(S, {"terminal": term, "products": prods})
    assert w is not None and w.N == 0
    # every object admits some witness in a codiscrete groupoid
    for N in range(S.n_objects):
        z = S.hom(term.t, N)[0]
        s = S.hom(N, N)[0]
        assert is_pnno(S, term, prods, N, z, s) is not None


def test_fragment_has_no_pnno():
    C = finset_fragment(2)
    term = find_terminal(C)
    prods = partial_table(PRODUCTS, C)
    assert find_pnno(C, {"terminal": term, "products": prods}) is None
    # exhaustive: no candidate triple survives even with vacuous pairs
    for N in range(C.n_objects):
        for z in C.hom(term.t, N):
            for s in C.hom(N, N):
                assert is_pnno(C, term, prods, N, z, s) is None


def test_is_pnno_validates_what_find_returns():
    for seed in range(20):
        C = random_category(seed)
        term = find_terminal(C)
        if term is None:
            continue
        prods = partial_table(PRODUCTS, C)
        w = find_pnno(C, {"terminal": term, "products": prods})
        if w is not None:
            assert is_pnno(C, term, prods, w.N, w.z, w.s) is not None


def test_chain_rejects_nonterminal_candidates():
    C = chain_poset(3)
    term = find_terminal(C)
    prods = find_binary_products(C)
    # the only point of any N is forced; a successor that drops below top
    # cannot satisfy recursion for the identity data
    assert is_pnno(C, term, prods, 2, C.identity[2], C.identity[2]) is not None
    # no z exists into lower objects, so no other witness can be formed
    for N in (0, 1):
        assert C.hom(term.t, N) == ()


def test_is_pnno_refuses_a_chosen_terminal_that_is_not_terminal():
    """The bottom of the chain chosen as its terminal: every typed triple,
    and the search, raise rather than read the chain's tops as N."""
    C = chain_poset(3)
    bottom, prods = ChosenTerminal(0), find_binary_products(C)
    triples = [(N, z, s) for N in range(C.n_objects) for z in C.hom(0, N) for s in C.hom(N, N)]
    assert len(triples) == C.n_objects
    for N, z, s in triples:
        with pytest.raises(InvalidCert, match="terminal witness"):
            is_pnno(C, bottom, prods, N, z, s)
    with pytest.raises(InvalidCert, match="terminal witness"):
        find_pnno(C, {"terminal": bottom, "products": prods})


def test_transfer_pnno_matches_direct_search():
    S = _codiscrete(3)
    infl, proj = inflate(S, [2, 1, 2])
    cert = is_weak_equivalence(inflate_section(proj))
    src = {"terminal": find_terminal(S), "products": find_binary_products(S)}
    src["pnno"] = find_pnno(S, src)
    termD = transfer_terminal(cert, src["terminal"])
    prodsD = transfer_binary_products(cert, src["products"])
    dst = {"terminal": termD, "products": prodsD}
    wD = transfer_pnno(cert, src, dst)
    assert is_pnno(infl, termD, prodsD, wD.N, wD.z, wD.s) is not None
    pres = preserves_pnno(cert.functor, src, {**dst, "pnno": wD})
    assert pres.functor is cert.functor


def test_transfer_pnno_refuses_an_invalid_source_witness_as_an_invalid_certificate():
    S = chain_poset(3)
    cert = is_weak_equivalence(inflate_section(inflate(S, [1, 2, 1])[1]))
    src = {"terminal": find_terminal(S), "products": find_binary_products(S)}
    src["pnno"] = find_pnno(S, src)
    termD = transfer_terminal(cert, src["terminal"])
    prodsD = transfer_binary_products(cert, src["products"])
    dst = {"terminal": termD, "products": prodsD}
    # the zero runs out of the terminal into the top, so nothing else is N
    bad = PNNOW(0, src["pnno"].z, src["pnno"].s)
    with pytest.raises(InvalidCert, match="parameterized-N witness fails its defining property"):
        transfer_pnno(cert, {**src, "pnno": bad}, dst)


def test_reflect_pnno_along_equivalence():
    # reflect along the projection: a triple upstairs whose image downstairs
    # is a parameterized N is itself one
    S = _codiscrete(2)
    infl, proj = inflate(S, [2, 2])
    cert_sec = is_weak_equivalence(inflate_section(proj))
    cert_proj = is_weak_equivalence(proj)
    termS = find_terminal(S)
    prodsS = find_binary_products(S)
    termI = transfer_terminal(cert_sec, termS)
    prodsI = transfer_binary_products(cert_sec, prodsS)
    wI = find_pnno(infl, {"terminal": termI, "products": prodsI})
    back = reflect_pnno(cert_proj, termI, prodsI, termS, prodsS, wI.N, wI.z, wI.s)
    assert is_pnno(infl, termI, prodsI, back.N, back.z, back.s) is not None


def test_reflect_pnno_refuses_a_triple_out_of_range_before_imaging_it():
    S = chain_poset(3)
    infl, proj = inflate(S, [1, 2, 1])
    cert = is_weak_equivalence(proj)
    termI, prodsI = find_terminal(infl), find_binary_products(infl)
    termS, prodsS = find_terminal(S), find_binary_products(S)
    w = find_pnno(infl, {"terminal": termI, "products": prodsI})
    n, m = infl.n_objects, infl.n_morphisms
    for N, z, s in ((w.N - n, w.z, w.s), (w.N, w.z - m, w.s), (w.N, w.z, 999)):
        with pytest.raises(InvalidCert, match="source parameterized-N witness .* is out of range"):
            reflect_pnno(cert, termI, prodsI, termS, prodsS, N, z, s)
    # so is a chosen terminal of the source that names no object
    for t in (-1, 99):
        with pytest.raises(InvalidCert, match="source parameterized-N witness .* is out of range"):
            reflect_pnno(cert, ChosenTerminal(t), prodsI, termS, prodsS, w.N, w.z, w.s)
    assert reflect_pnno(cert, termI, prodsI, termS, prodsS, w.N, w.z, w.s) == w


def test_preserves_pnno_refuses_a_source_triple_out_of_range():
    """Fields of -n or -m would be read from the end of F's maps, as the
    triple they shift."""
    C = heyting_category(heyting_chain(3))
    b = find_bag(C, ("terminal", "products", "pnno"))
    F = identity_functor(C)
    w = b["pnno"]
    for bad in (w._replace(N=w.N - C.n_objects),
                w._replace(z=w.z - C.n_morphisms),
                w._replace(s=C.n_morphisms)):
        with pytest.raises(InvalidCert, match="source parameterized-N witness .* is out of range"):
            preserves_pnno(F, {**b, "pnno": bad}, b)
    assert preserves_pnno(F, b, b) is not None


def test_preserves_pnno_identity():
    C = chain_poset(3)
    bag = {"terminal": find_terminal(C), "products": find_binary_products(C)}
    bag["pnno"] = find_pnno(C, bag)
    pres = preserves_pnno(identity_functor(C), bag, bag)
    assert pres is not None
    assert C.is_identity(pres.comparison.fwd)


def test_lift_preservation_pnno_through_completion():
    S = _codiscrete(3)
    infl, proj = inflate(S, [1, 2, 2])
    res = skeletize(infl)
    with pytest.warns(UserWarning, match="not gaunt"):
        fac = factor_through(res, proj)
    src = {"terminal": find_terminal(infl), "products": find_binary_products(infl)}
    src["pnno"] = find_pnno(infl, src)
    dst = {"terminal": find_terminal(S), "products": find_binary_products(S)}
    dst["pnno"] = find_pnno(S, dst)
    assert preserves_pnno(proj, src, dst) is not None
    carried = {
        "terminal": transfer_terminal(res.cert, src["terminal"]),
        "products": transfer_binary_products(res.cert, src["products"]),
    }
    carried["pnno"] = transfer_pnno(res.cert, src, carried)
    lifted = lift_preservation_pnno(res.cert, proj, fac.functor, fac.alpha, carried, dst)
    assert lifted.functor is fac.functor
