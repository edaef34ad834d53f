"""Skeletization, its certificate, and factorization through it."""
from collections import Counter

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from catkit.completion import (
    Factorization,
    check_factorization,
    factor_through,
    factorization_unique,
    full_subcategory,
    inflate,
    inflate_section,
    skeletality,
    skeletize,
)
from catkit.core import (
    Functor,
    NatIso,
    check_weak_equivalence_cert,
    compose_functors,
    functor,
    functors_equal,
    identity_functor,
    is_weak_equivalence,
    iso_classes,
    isos_between,
    same_tables,
)
from catkit.errors import IllTypedImage, SourceMismatch, ZeroCopies
from catkit.generators import (
    chain_poset,
    delooping,
    discrete,
    finset_fragment,
    functor_category,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    hvalued_sets,
    random_category,
    setoid_groupoid,
    terminal_cat,
    walking_iso,
)
from completion_helpers import nat_isos_between, replete_image

seeds = st.integers(min_value=0, max_value=119)


def test_skeletality_report():
    assert skeletality(chain_poset(3)).is_gaunt
    r = skeletality(walking_iso())
    assert not r.is_skeletal
    assert r.fidelity == "skeletal-approximation"
    z2 = skeletality(delooping([[0, 1], [1, 0]], name="Z2"))
    assert z2.is_skeletal and not z2.is_gaunt


def _skeletality_corpus():
    yield from (random_category(seed) for seed in range(200))
    yield from (finset_fragment(n) for n in range(4))
    yield chain_poset(6)
    yield heyting_category(heyting_diamond())
    yield hvalued_sets(heyting_chain(2), 2)
    yield discrete(5)
    yield delooping([[0, 1], [1, 0]], name="Z2")
    for seed in range(30):
        C = random_category(seed)
        yield inflate(C, [1 + (seed + x) % 2 for x in range(C.n_objects)])[0]


def test_skeletality_matches_the_all_pairs_definition():
    """Gaunt means skeletal with at most one iso between any ordered pair of
    objects; skeletality asks only for the automorphisms."""
    verdicts = Counter()
    for C in _skeletality_corpus():
        n = range(C.n_objects)
        skeletal = all(len(c) == 1 for c in iso_classes(C))
        gaunt = skeletal and all(len(isos_between(C, x, y)) <= 1 for x in n for y in n)
        rep = skeletality(C)
        assert (rep.is_skeletal, rep.is_gaunt) == (skeletal, gaunt), C.name
        verdicts[skeletal, gaunt] += 1
    # every verdict is reached, so the parity is not vacuous
    assert set(verdicts) == {(False, False), (True, False), (True, True)}


def test_skeletize_walking_iso_gives_terminal():
    res = skeletize(walking_iso())
    assert same_tables(res.completed, terminal_cat())
    assert res.fidelity == "exact"
    check_weak_equivalence_cert(res.cert)


def test_skeletize_setoid_counts_classes():
    S = setoid_groupoid(6, {(0, 1), (2, 3), (3, 4)})
    res = skeletize(S)
    assert res.completed.n_objects == len(iso_classes(S))
    check_weak_equivalence_cert(res.cert)


def test_skeletize_picks_lowest_representatives():
    S = setoid_groupoid(5, {(1, 2), (3, 4)})
    res = skeletize(S)
    assert res.rep_objects == (0, 1, 3)
    for x in range(S.n_objects):
        assert res.representative[x] == min(x, *[r for r in res.rep_objects if res.eta.obj_map[x] == res.eta.obj_map[r]])


def test_skeletize_is_identity_on_skeletal_input():
    C = chain_poset(4)
    res = skeletize(C)
    assert same_tables(res.completed, C)
    assert functors_equal(res.eta, identity_functor(C))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_skeletize_corpus_idempotent_and_certified(seed):
    C = random_category(seed)
    res = skeletize(C)
    check_weak_equivalence_cert(res.cert)
    assert skeletality(res.completed).is_skeletal
    again = skeletize(res.completed)
    assert same_tables(again.completed, res.completed)
    assert is_weak_equivalence(res.eta) is not None


def test_inflate_section_splits_projection():
    C = chain_poset(3)
    infl, proj = inflate(C, [2, 1, 3])
    assert infl.n_objects == 6
    assert is_weak_equivalence(proj) is not None
    sec = inflate_section(proj)
    assert functors_equal(compose_functors(sec, proj), identity_functor(C))
    assert is_weak_equivalence(sec) is not None


def test_inflate_rejects_zero_copies():
    with pytest.raises(ZeroCopies):
        inflate(chain_poset(2), [1, 0])


@given(seeds, st.lists(st.integers(1, 3), min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_inflate_then_skeletize_recovers_base(seed, copies):
    C = random_category(seed)
    infl, proj = inflate(C, copies[: C.n_objects])
    res = skeletize(infl)
    # inflation never changes the number of iso classes
    assert res.completed.n_objects == len(iso_classes(C))
    assert is_weak_equivalence(compose_functors(inflate_section(proj), res.eta)) is not None


def test_factor_through_roundtrip():
    S = setoid_groupoid(4, {(0, 1), (2, 3)})
    res = skeletize(S)
    F = res.eta
    fac = factor_through(res, F)
    check_factorization(res, F, fac)
    # factoring eta itself through eta gives the identity up to iso
    conn = factorization_unique(res, F, fac, fac)
    assert all(res.completed.is_identity(c.fwd) for c in conn.components)


def test_factor_through_nontrivial_target():
    S = setoid_groupoid(5, {(0, 1), (1, 2)})
    res = skeletize(S)
    E = chain_poset(2)
    # collapse classes {0,1,2} -> 0 and {3,4} -> 1 in the chain
    obj_map = [0, 0, 0, 1, 1]
    mor_map = []
    for f in range(S.n_morphisms):
        x, y = obj_map[S.mor_src[f]], obj_map[S.mor_dst[f]]
        mor_map.append(E.hom(x, y)[0])
    F = functor(S, E, obj_map, mor_map, name="collapse")
    fac = factor_through(res, F)
    check_factorization(res, F, fac)


@pytest.mark.parametrize("image", [-1, 7])
def test_check_factorization_refuses_a_functor_with_an_image_out_of_range(image):
    """The identity of a thin inflation with its last image moved off the
    morphisms, and an alpha that ends at it: refused before alpha's squares
    are walked, for an index read from the end and one past the last."""
    C = inflate(chain_poset(2), [1, 2])[0]
    assert C.n_morphisms == 7
    res = skeletize(C)
    F = identity_functor(C)
    with pytest.warns(UserWarning, match="not gaunt"):
        fac = factor_through(res, F)
    bad = Functor(C, C, F.obj_map, F.mor_map[:-1] + (image,), "bad")
    alpha = NatIso(fac.alpha.source, bad, fac.alpha.components)
    with pytest.raises(IllTypedImage, match="out of range"):
        check_factorization(res, bad, Factorization(fac.functor, alpha))


def test_factor_through_rejects_wrong_source():
    res = skeletize(walking_iso())
    with pytest.raises(SourceMismatch):
        factor_through(res, identity_functor(chain_poset(2)))


def test_factorization_unique_connects_distinct_factors():
    S = setoid_groupoid(4, {(0, 1), (2, 3)})
    res = skeletize(S)
    E = setoid_groupoid(2, {(0, 1)})
    obj_map = [0, 1, 0, 1]
    mor_map = []
    for f in range(S.n_morphisms):
        x, y = obj_map[S.mor_src[f]], obj_map[S.mor_dst[f]]
        mor_map.append(E.hom(x, y)[0])
    F = functor(S, E, obj_map, mor_map, name="shuffle")
    with pytest.warns(UserWarning, match="not gaunt"):
        fac1 = factor_through(res, F)
    # build a second factorization by hand: swap the image objects
    H2_obj = [1 - fac1.functor.obj_map[y] for y in range(res.completed.n_objects)]
    H2_mor = []
    for g in range(res.completed.n_morphisms):
        y1, y2 = res.completed.mor_src[g], res.completed.mor_dst[g]
        H2_mor.append(E.hom(H2_obj[y1], H2_obj[y2])[0])
    H2 = functor(res.completed, E, H2_obj, H2_mor, name="swapped")
    etaH2 = compose_functors(res.eta, H2)
    alphas = nat_isos_between(etaH2, F)
    assert alphas, "swapped factor should still connect to F"
    from catkit.completion import Factorization

    fac2 = Factorization(H2, alphas[0])
    conn = factorization_unique(res, F, fac1, fac2)
    assert not functors_equal(fac1.functor, fac2.functor)
    assert len(conn.components) == res.completed.n_objects


def test_full_subcategory_and_replete_image():
    S = setoid_groupoid(4, {(0, 1)})
    sub, incl = full_subcategory(S, [0, 2])
    assert sub.n_objects == 2
    img = replete_image(incl)
    # the replete image of {0,2} also contains 1, which is isomorphic to 0
    assert img.n_objects == 3


def test_functor_category_skeletal_when_target_gaunt():
    A = walking_iso()
    C = chain_poset(2)
    FC, diagrams = functor_category(A, C)
    assert skeletality(FC).is_skeletal
    assert FC.n_objects == len(diagrams)
