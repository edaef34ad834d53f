"""The example-category corpus: fixed instances and random families."""
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from catkit.core import (
    check_category_tables,
    check_functor,
    is_fully_faithful,
    is_weak_equivalence,
    iso_classes,
    same_tables,
    table_isomorphic,
)
from catkit.completion import skeletality
from catkit.errors import AssociativityViolation, MalformedInput, MonadLawViolation
from catkit.generators import (
    MonadW,
    chain_poset,
    check_heyting,
    check_monad,
    delooping,
    discrete,
    finset_fragment,
    finset_function,
    functor_category,
    heyting_chain,
    heyting_diamond,
    hvalued_sets,
    identity_monad,
    idempotent_splits,
    karoubi_envelope,
    kleisli,
    preorder_cat,
    product_category,
    random_category,
    random_weak_equivalence,
    setoid_groupoid,
    terminal_cat,
    walking_iso,
)

seeds = st.integers(min_value=0, max_value=119)


def test_finset_fragment_hom_sizes():
    # objects 0, 1, 2; |hom(a, b)| = b^a with 0^0 = 1
    C = finset_fragment(2)
    assert C.n_objects == 3
    sizes = {(a, b): len(C.hom(a, b)) for a in range(3) for b in range(3)}
    assert sizes == {
        (0, 0): 1, (0, 1): 1, (0, 2): 1,
        (1, 0): 0, (1, 1): 1, (1, 2): 2,
        (2, 0): 0, (2, 1): 1, (2, 2): 4,
    }
    assert C.n_morphisms == 11


def test_finset_function_composes_pointwise():
    C = finset_fragment(2)
    f = finset_function(C, 1, 2, (1,))
    g = finset_function(C, 2, 2, (1, 0))
    assert C.compose(f, g) == finset_function(C, 1, 2, (0,))


def test_preorder_collapses_cycles_to_posetal_skeleton():
    P = preorder_cat(
        ["a", "b", "c"],
        {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "a"), ("b", "c"), ("a", "c")},
    )
    assert P.n_objects == 3
    r = skeletality(P)
    assert not r.is_skeletal
    from catkit.completion import skeletize

    assert skeletize(P).completed.n_objects == 2


def test_heyting_chain3_implication_table():
    H = heyting_chain(3)
    check_heyting(H)
    assert H.imp == ((2, 2, 2), (0, 2, 2), (0, 1, 2))
    assert (H.top, H.bottom) == (2, 0)


def test_heyting_diamond_distributes():
    H = heyting_diamond()
    check_heyting(H)
    assert H.n == 4
    # in the diamond, the incomparable pair meets at bottom and joins at top
    mids = [i for i in range(4) if i not in (H.top, H.bottom)]
    a, b = mids
    assert H.meet[a][b] == H.bottom
    assert H.join[a][b] == H.top
    assert H.imp[a][b] == b


def test_hvalued_sets_object_count():
    # carriers of size <= 1 over the 3-chain: the empty set plus one
    # singleton per extent
    H = heyting_chain(3)
    C = hvalued_sets(H, 1)
    check_category_tables(C)
    assert C.n_objects == 1 + H.n


def test_delooping_needs_monoid():
    M = delooping([[0, 1], [1, 0]], name="Z2")
    assert M.n_objects == 1 and M.n_morphisms == 2
    with pytest.raises(MalformedInput):
        delooping([[1, 0], [0, 0]])


def test_delooping_leaves_associativity_to_fincat():
    # unital, but (1*1)*2 = 1 while 1*(1*2) = 2
    with pytest.raises(AssociativityViolation, match=r"^\(m1, m1, m2\): associativity fails$"):
        delooping([[0, 1, 2], [1, 2, 1], [2, 1, 1]])


def test_kleisli_identity_monad_is_isomorphic_to_base():
    C = chain_poset(3)
    K, embed = kleisli(C, identity_monad(C))
    check_functor(embed)
    assert table_isomorphic(K, C)


def test_kleisli_nonidentity_monad():
    # on the 2-chain, T = const top with unit the unique maps is a monad
    C = chain_poset(2)
    from catkit.core import functor

    T = functor(C, C, [1, 1], [C.identity[1]] * C.n_morphisms, name="const-top")
    m = MonadW(T, (C.hom(0, 1)[0], C.identity[1]), (C.identity[1], C.identity[1]))
    check_monad(m)
    K, embed = kleisli(C, m)
    # hom_K(x, y) = hom(x, top) is a singleton everywhere: K is codiscrete
    assert all(len(K.hom(x, y)) == 1 for x in range(2) for y in range(2))


def test_check_monad_rejects_bad_unit():
    C = chain_poset(2)
    from catkit.core import functor, identity_functor

    bad = MonadW(identity_functor(C), (C.identity[1], C.identity[1]), tuple(C.identity))
    with pytest.raises(MonadLawViolation):
        check_monad(bad)


def test_karoubi_envelope_splits_idempotents():
    # the two-element monoid {1, e} with e*e = e has a non-split idempotent
    M = delooping([[0, 1], [1, 1]], name="walking-idempotent")
    e = 1
    assert idempotent_splits(M, e) is None
    K, embed = karoubi_envelope(M)
    check_functor(embed)
    assert is_fully_faithful(embed) is not None
    # in the envelope every idempotent splits
    for f in range(K.n_morphisms):
        if K.mor_src[f] == K.mor_dst[f] and K.compose(f, f) == f:
            assert idempotent_splits(K, f) is not None


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_karoubi_envelope_on_corpus(seed):
    C = random_category(seed)
    K, embed = karoubi_envelope(C)
    check_category_tables(K)
    assert is_fully_faithful(embed) is not None
    for f in range(K.n_morphisms):
        if K.mor_src[f] == K.mor_dst[f] and K.compose(f, f) == f:
            assert idempotent_splits(K, f) is not None


def test_functor_category_enumerates_diagrams():
    A = chain_poset(2)
    C = chain_poset(3)
    FC, diagrams = functor_category(A, C)
    # monotone maps 2 -> 3: pairs (i, j) with i <= j
    assert len(diagrams) == 6
    assert FC.n_objects == 6
    for F in diagrams:
        check_functor(F)


def test_functor_category_morphisms_are_natural():
    A = walking_iso()
    C = setoid_groupoid(2, {(0, 1)})
    FC, diagrams = functor_category(A, C)
    check_category_tables(FC)
    # diagrams valued in a codiscrete groupoid are all isomorphic
    assert len(iso_classes(FC)) == 1


def test_product_category_sizes():
    A, B = chain_poset(2), walking_iso()
    P = product_category(A, B)
    assert P.n_objects == A.n_objects * B.n_objects
    assert P.n_morphisms == A.n_morphisms * B.n_morphisms
    check_category_tables(P)


def test_discrete_and_terminal():
    assert discrete(3).n_morphisms == 3
    assert terminal_cat().n_objects == 1


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_random_category_is_seed_deterministic(seed):
    assert same_tables(random_category(seed), random_category(seed))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_random_weak_equivalence_certifies(seed):
    F = random_weak_equivalence(seed)
    cert = is_weak_equivalence(F)
    assert cert is not None


def test_random_corpus_mixes_shapes():
    kinds = set()
    for seed in range(40):
        C = random_category(seed)
        kinds.add(C.name.split(":")[1].rstrip("0123456789"))
    assert len(kinds) >= 4
