"""Finite limits and colimits: search, validation, transfer, reflection."""
import re

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from catkit.completion import factor_through, inflate, inflate_section, skeletize
from catkit.core import (
    identity_functor,
    is_weak_equivalence,
    opposite,
    set_search_budget,
)
from catkit.errors import (
    InvalidCert,
    NotACone,
    PreconditionViolation,
    SearchBudgetExceeded,
)
from catkit.generators import (
    chain_poset,
    delooping,
    discrete,
    finset_fragment,
    finset_function,
    random_category,
    setoid_groupoid,
    walking_iso,
)
from catkit.limits import (
    EQUALIZERS,
    PRODUCTS,
    PULLBACKS,
    TERMINAL,
    BinProductW,
    ChosenTerminal,
    comparison,
    find_binary_coproduct,
    find_binary_products,
    find_coequalizer,
    find_equalizers,
    find_initial,
    find_limit,
    find_pullbacks,
    find_terminal,
    first_unpreserved,
    is_binary_product,
    is_equalizer,
    is_pullback,
    is_terminal,
    lift_preservation_binary_products,
    lift_preservation_terminal,
    mediating,
    mediator,
    parallel_pairs,
    partial_table,
    preserves,
    preserves_binary_products,
    preserves_terminal,
    reflect,
    to_terminal,
    transfer,
    transfer_binary_products,
    transfer_equalizers,
    transfer_pullbacks,
    transfer_terminal,
)

from colimit_oracles import find_binary_coproduct_direct, find_coequalizer_direct

seeds = st.integers(min_value=0, max_value=119)


def test_terminal_search():
    assert find_terminal(chain_poset(3)).t == 2
    assert find_terminal(finset_fragment(2)).t == 1
    assert find_terminal(discrete(2)) is None
    # any object of a codiscrete groupoid is terminal; search picks the least
    assert find_terminal(setoid_groupoid(3, {(0, 1), (1, 2)})).t == 0


def test_to_terminal_unique_arrow():
    C = chain_poset(3)
    term = find_terminal(C)
    for x in range(3):
        u = to_terminal(C, term, x)
        assert C.mor_src[u] == x and C.mor_dst[u] == term.t


def test_products_in_chain_are_minima():
    C = chain_poset(4)
    prods = find_binary_products(C)
    assert prods is not None
    for (x, y), w in prods.items():
        assert w.apex == min(x, y)


def test_product_witness_validation():
    C = chain_poset(3)
    good = find_limit(PRODUCTS, C, (1, 2))
    assert is_binary_product(C, good)
    bad = BinProductW(1, 2, 0, C.hom(0, 1)[0], C.hom(0, 2)[0])
    # apex 0 gives a cone but not a limiting one: the cone at 1 beats it
    assert not is_binary_product(C, bad)


def test_fragment_products_partial():
    C = finset_fragment(2)
    assert find_binary_products(C) is None
    partial = partial_table(PRODUCTS, C)
    missing = {(x, y) for x in range(3) for y in range(3)} - set(partial)
    assert missing == {(2, 2)}
    assert partial[(1, 2)].apex == 2
    assert partial[(2, 1)].apex == 2


def test_mediating_factors_cones():
    C = chain_poset(4)
    w = find_limit(PRODUCTS, C, (2, 3))
    g1, g2 = C.hom(1, 2)[0], C.hom(1, 3)[0]
    u = mediating(C, w, g1, g2)
    assert C.compose(u, w.pi1) == g1
    assert C.compose(u, w.pi2) == g2
    with pytest.raises(NotACone):
        mediating(C, w, C.hom(1, 2)[0], C.hom(0, 3)[0])


def test_product_comparison_connects_witnesses():
    # in a codiscrete groupoid any object is an apex for any pair
    S = setoid_groupoid(3, {(0, 1), (1, 2)})
    a = find_limit(PRODUCTS, S, (0, 1))
    b = BinProductW(0, 1, 2, S.hom(2, 0)[0], S.hom(2, 1)[0])
    assert is_binary_product(S, b)
    iso = comparison(PRODUCTS, S, a, b)
    assert S.compose(iso.fwd, b.pi1) == a.pi1
    assert S.compose(iso.fwd, b.pi2) == a.pi2


def test_equalizers_in_fragment():
    C = finset_fragment(2)
    eqs = find_equalizers(C)
    assert eqs is not None
    assert set(eqs) == set(parallel_pairs(C))
    # the equalizer of the two points of 2 is empty
    p0 = finset_function(C, 1, 2, (0,))
    p1 = finset_function(C, 1, 2, (1,))
    assert eqs[(p0, p1)].obj == 0
    # the equalizer of id and the swap is empty as well
    swap = finset_function(C, 2, 2, (1, 0))
    ident = finset_function(C, 2, 2, (0, 1))
    key = (ident, swap) if (ident, swap) in eqs else (swap, ident)
    assert eqs[key].obj == 0


def test_mediating_equalizer():
    C = finset_fragment(2)
    swap = finset_function(C, 2, 2, (1, 0))
    const0 = finset_function(C, 2, 2, (0, 0))
    w = find_limit(EQUALIZERS, C, (swap, const0))
    assert w is not None
    # maps equalizing swap and const0 land on 1, the only agreeing element
    h = finset_function(C, 1, 2, (1,))
    u = mediator(EQUALIZERS, C, w, C.mor_src[h], (h,))
    assert C.compose(u, w.arrow) == h


def test_equalizer_comparison_identity():
    C = finset_fragment(2)
    f, g = parallel_pairs(C)[0]
    w = find_limit(EQUALIZERS, C, (f, g))
    iso = comparison(EQUALIZERS, C, w, w)
    assert C.is_identity(iso.fwd)


def test_pullbacks_in_chain_are_minima():
    C = chain_poset(3)
    pbs = find_pullbacks(C)
    assert pbs is not None
    for (f, g), w in pbs.items():
        assert w.apex == min(C.mor_src[f], C.mor_src[g])
        assert is_pullback(C, w)


def test_mediating_pullback():
    C = finset_fragment(2)
    p0 = finset_function(C, 1, 2, (0,))
    const0 = finset_function(C, 2, 2, (0, 0))
    w = find_limit(PULLBACKS, C, (const0, p0))
    assert w is not None
    h1 = finset_function(C, 1, 2, (0,))
    h2 = C.identity[1]
    u = mediator(PULLBACKS, C, w, C.mor_src[h1], (h1, h2))
    assert C.compose(u, w.p1) == h1
    assert C.compose(u, w.p2) == h2


def test_pullback_comparison_identity():
    C = chain_poset(3)
    (f, g), w = next(iter(find_pullbacks(C).items()))
    iso = comparison(PULLBACKS, C, w, w)
    assert C.is_identity(iso.fwd)


def test_initial_and_duality_on_fragment():
    C = finset_fragment(2)
    init = find_initial(C)
    assert init is not None and init.i == 0
    assert find_terminal(opposite(C)).t == 0


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_coproducts_by_duality_match_direct_search(seed):
    C = random_category(seed)
    pairs = [(x, y) for x in range(C.n_objects) for y in range(C.n_objects)]
    for x, y in pairs[:8]:
        via_op = find_binary_coproduct(C, x, y)
        direct = find_binary_coproduct_direct(C, x, y)
        if via_op is None:
            assert direct is None
        else:
            assert direct is not None
            assert via_op == direct


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_coequalizers_by_duality_match_direct_search(seed):
    C = random_category(seed)
    for f, g in parallel_pairs(C)[:6]:
        via_op = find_coequalizer(C, f, g)
        direct = find_coequalizer_direct(C, f, g)
        assert (via_op is None) == (direct is None)
        if via_op is not None:
            assert via_op == direct


def _inflated_chain():
    C = chain_poset(3)
    infl, proj = inflate(C, [2, 3, 1])
    sec = inflate_section(proj)
    cert = is_weak_equivalence(sec)
    assert cert is not None
    return C, infl, proj, sec, cert


def test_transfer_terminal_matches_direct_search():
    C, infl, proj, sec, cert = _inflated_chain()
    tC = find_terminal(C)
    tD = transfer_terminal(cert, tC)
    assert is_terminal(infl, tD.t)
    assert preserves_terminal(cert.functor, tC, tD) is not None
    direct = find_terminal(infl)
    assert preserves_terminal(identity_functor(infl), tD, direct) is not None


def test_transfer_products_matches_direct_search():
    C, infl, proj, sec, cert = _inflated_chain()
    prodsC = find_binary_products(C)
    prodsD = transfer_binary_products(cert, prodsC)
    assert preserves_binary_products(cert.functor, prodsC, prodsD) is not None
    assert set(prodsD) == {(x, y) for x in range(infl.n_objects) for y in range(infl.n_objects)}
    for (x, y), w in prodsD.items():
        direct = find_limit(PRODUCTS, infl, (x, y))
        iso = comparison(PRODUCTS, infl, w, direct)
        assert infl.compose(iso.fwd, direct.pi1) == w.pi1
        assert infl.compose(iso.fwd, direct.pi2) == w.pi2


def test_transfer_equalizers_and_pullbacks():
    C, infl, proj, sec, cert = _inflated_chain()
    eqsD = transfer_equalizers(cert, find_equalizers(C))
    assert set(eqsD) == set(parallel_pairs(infl))
    for w in eqsD.values():
        assert is_equalizer(infl, w)
    pbsD = transfer_pullbacks(cert, find_pullbacks(C))
    for w in pbsD.values():
        assert is_pullback(infl, w)


def test_reflection_along_section():
    C, infl, proj, sec, cert = _inflated_chain()
    prodsD = transfer_binary_products(cert, find_binary_products(C))
    # proj is fully faithful, so limiting image cones reflect
    for w in find_binary_products(infl).values():
        img = BinProductW(
            proj.obj_map[w.x1],
            proj.obj_map[w.x2],
            proj.obj_map[w.apex],
            proj.mor_map[w.pi1],
            proj.mor_map[w.pi2],
        )
        assert is_binary_product(C, img)
        assert reflect(PRODUCTS, proj, w) == w
    t = find_terminal(infl)
    assert reflect(TERMINAL, proj, ChosenTerminal(t.t)).t == t.t


def test_reflection_requires_fully_faithful():
    C = chain_poset(2)
    T = delooping([[0]], name="pt")
    from catkit.core import functor

    collapse = functor(C, T, [0, 0], [0, 0, 0], name="crush")
    with pytest.raises(PreconditionViolation):
        reflect(TERMINAL, collapse, ChosenTerminal(0))


def test_preserves_binary_products_negative():
    # collapsing the diamond's midpoints onto the top of a chain is monotone
    # but destroys their meet
    from catkit.core import functor
    from catkit.generators import poset_from_pairs

    Dm = poset_from_pairs(
        ["b", "m1", "m2", "t"],
        {("b", "m1"), ("b", "m2"), ("b", "t"), ("m1", "t"), ("m2", "t")},
        name="diamond",
    )
    Ch = chain_poset(2)
    obj_map = [0, 1, 1, 1]
    mor_map = [
        Ch.hom(obj_map[Dm.mor_src[f]], obj_map[Dm.mor_dst[f]])[0]
        for f in range(Dm.n_morphisms)
    ]
    F = functor(Dm, Ch, obj_map, mor_map, name="squash")
    prodsC = find_binary_products(Dm)
    prodsD = find_binary_products(Ch)
    assert prodsC is not None and prodsD is not None
    assert preserves_binary_products(F, prodsC, prodsD) is None
    m1, m2 = 1, 2
    assert first_unpreserved(PRODUCTS, F, prodsC, prodsD) == (m1, m2)


def test_first_unpreserved_pair_raises_on_an_invalid_target_table():
    from catkit.generators import poset_from_pairs

    Dm = poset_from_pairs(
        ["b", "m1", "m2", "t"],
        {("b", "m1"), ("b", "m2"), ("b", "t"), ("m1", "t"), ("m2", "t")},
        name="diamond",
    )
    m1, t = 1, 3
    (u,) = Dm.hom(m1, t)
    prods = find_binary_products(Dm)
    bad = dict(prods)
    bad[(t, t)] = BinProductW(t, t, m1, u, u)
    F = identity_functor(Dm)
    with pytest.raises(InvalidCert, match="admits 0 mediators"):
        preserves_binary_products(F, prods, bad)
    with pytest.raises(InvalidCert, match="admits 0 mediators"):
        first_unpreserved(PRODUCTS, F, prods, bad)


def test_preserves_rejects_target_fields_out_of_range():
    # -1 would be read as morphism 5, counted from the end; 6 names nothing
    C = chain_poset(3)
    P = find_binary_products(C)
    assert C.n_morphisms == 6
    for bad in (-1, 6):
        T = {**P, (2, 2): P[(2, 2)]._replace(pi2=bad)}
        with pytest.raises(InvalidCert, match="out of range"):
            preserves_binary_products(identity_functor(C), P, T)


def test_preserves_rejects_source_key_parts_out_of_range():
    # a key part of -1 would be read from the end, as object 2 or morphism 5;
    # the last case's witness names the same key as its entry.  transfer,
    # which checks the table by check_table before carrying, refuses every
    # case too
    C = chain_poset(3)
    F = identity_functor(C)
    cert = is_weak_equivalence(F)
    P, E = find_binary_products(C), find_equalizers(C)
    assert (C.n_objects, C.n_morphisms) == (3, 6)
    g = next(f for f in range(C.n_morphisms) if not C.is_identity(f))
    cases = [(PRODUCTS, (-1, 0), P[(2, 0)], P), (PRODUCTS, (3, 0), P[(2, 0)], P),
             (EQUALIZERS, (-1, g), E[(g, g)], E), (EQUALIZERS, (g, 6), E[(g, g)], E),
             (PRODUCTS, (-1, 0), P[(2, 0)]._replace(x1=-1), P)]
    for shape, key, w, target in cases:
        with pytest.raises(InvalidCert, match=re.escape(f"source {shape.name} entry {key} is out")):
            preserves(shape, F, {key: w}, target)
        with pytest.raises(InvalidCert, match=f"{shape.name} table is wrong at "):
            transfer(shape, cert, {key: w})


def test_first_unpreserved_pair_none_for_identity():
    C = chain_poset(3)
    prods = find_binary_products(C)
    assert first_unpreserved(PRODUCTS, identity_functor(C), prods, prods) is None


def test_lift_preservation_through_completion():
    C, infl, proj, sec, cert_sec = _inflated_chain()
    res = skeletize(infl)
    fac = factor_through(res, proj)
    H, alpha = fac.functor, fac.alpha
    tD = transfer_terminal(res.cert, find_terminal(infl))
    # proj preserves the terminal; its lift through the completion must too
    assert preserves_terminal(proj, find_terminal(infl), find_terminal(C)) is not None
    lifted = lift_preservation_terminal(res.cert, proj, H, alpha, tD, find_terminal(C))
    assert lifted.functor is H
    prods_infl, prods_C = find_binary_products(infl), find_binary_products(C)
    assert preserves_binary_products(proj, prods_infl, prods_C) is not None
    pD = transfer_binary_products(res.cert, prods_infl)
    lifted_p = lift_preservation_binary_products(res.cert, proj, H, alpha, pD, prods_C)
    assert lifted_p.functor is H
    assert set(lifted_p.source) == {
        (x, y) for x in range(res.completed.n_objects) for y in range(res.completed.n_objects)
    }


def test_search_budget_caps_product_search():
    # chain_poset(7) is thin, with 49 keys, each of which ticks once
    set_search_budget(40)
    try:
        with pytest.raises(SearchBudgetExceeded):
            find_binary_products(chain_poset(7))
    finally:
        set_search_budget(None)


def test_products_are_refuted_on_a_category_that_is_not_thin():
    """hom(1, 2) of finset_fragment(2) holds two arrows, so it has no
    binary products (Freyd): one tick after the thinness scan."""
    C = finset_fragment(2)
    assert len(C.hom(1, 2)) == 2 and C.down_sets is None
    set_search_budget(1)
    try:
        assert find_binary_products(C) is None
    finally:
        set_search_budget(None)
    assert partial_table(PRODUCTS, C).keys() != set(PRODUCTS.keys(C))


def test_walking_iso_everything_is_terminal():
    W = walking_iso()
    assert is_terminal(W, 0) and is_terminal(W, 1)
    prods = find_binary_products(W)
    assert prods is not None
