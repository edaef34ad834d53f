"""Table-level category validation, isos, functors, weak equivalences."""
import random
import threading
from collections import Counter
from dataclasses import replace

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from catkit import core
from catkit.completion import inflate
from catkit.core import (
    Functor,
    Iso,
    NatIso,
    budget_tick,
    check_category_tables,
    check_functor,
    check_nat_iso,
    check_weak_equivalence_cert,
    compose_functors,
    fincat,
    find_iso,
    functor,
    functors_equal,
    identity_functor,
    is_fully_faithful,
    is_essentially_surjective,
    is_weak_equivalence,
    iso_classes,
    isos_between,
    nat_iso,
    opposite,
    opposite_functor,
    same_tables,
    set_search_budget,
    table_isomorphic,
    tabulate,
)
from catkit.errors import (
    AssociativityViolation,
    CatkitError,
    DanglingReference,
    IllTypedComposite,
    IllTypedImage,
    MissingComposite,
    MissingIdentity,
    UnitLawViolation,
)
from catkit.generators import (
    chain_poset,
    delooping,
    finset_fragment,
    random_category,
    setoid_groupoid,
    terminal_cat,
    walking_iso,
)
from law_oracles import with_entry

seeds = st.integers(min_value=0, max_value=119)


def test_fincat_builds_and_validates():
    C = walking_iso()
    check_category_tables(C)
    assert C.n_objects == 2
    assert C.n_morphisms == 4


def test_identity_composites_inferred():
    # composition dict omits identity pairs entirely; unit laws fill them
    C = fincat(
        "two",
        ["a", "b"],
        ["id_a", "id_b", "f"],
        [0, 1, 0],
        [0, 1, 1],
        [0, 1],
        {},
    )
    assert C.compose(0, 2) == 2
    assert C.compose(2, 1) == 2


def test_conflicting_identity_composite_rejected():
    with pytest.raises(UnitLawViolation):
        fincat(
            "bad",
            ["a", "b"],
            ["id_a", "id_b", "f", "g"],
            [0, 1, 0, 0],
            [0, 1, 1, 1],
            [0, 1],
            {(0, 2): 3},
        )


def test_missing_composite_detected():
    with pytest.raises(MissingComposite):
        fincat(
            "gap",
            ["a", "b", "c"],
            ["id_a", "id_b", "id_c", "f", "g"],
            [0, 1, 2, 0, 1],
            [0, 1, 2, 1, 2],
            [0, 1, 2],
            {},
        )


def test_ill_typed_composite_detected():
    with pytest.raises(IllTypedComposite):
        fincat(
            "wrong",
            ["a", "b", "c"],
            ["id_a", "id_b", "id_c", "f", "g"],
            [0, 1, 2, 0, 1],
            [0, 1, 2, 1, 2],
            [0, 1, 2],
            {(3, 4): 3},
        )


def test_composite_past_the_last_morphism_is_ill_typed():
    C = chain_poset(2)
    m = C.n_morphisms
    with pytest.raises(IllTypedComposite, match=f"le_c0_c0;le_c0_c1 = {m + 5} is not a morphism"):
        check_category_tables(with_entry(C, 0, 1, m + 5))


def test_label_indices_name_the_first_occurrence():
    # built unchecked: a repeated label names what tuple.index finds first
    C = replace(walking_iso(), objects=("a", "a"), mor_labels=("i", "f", "f", "i"))
    assert C.object_indices == {"a": 0}
    assert C.morphism_indices == {"i": 0, "f": 1}
    for D in (C, finset_fragment(2)):
        assert [D.object_index(x) for x in D.objects] == [D.objects.index(x) for x in D.objects]
        assert [D.morphism_index(f) for f in D.mor_labels] == [
            D.mor_labels.index(f) for f in D.mor_labels
        ]


def test_negative_composite_is_ill_typed_not_an_associativity_failure():
    # -1 would alias the last morphism, f22_11, which is the right composite
    # of f21_00 then f12_1: only associativity would fail, at another triple
    C = finset_fragment(2)
    f, g = C.morphism_index("f21_00"), C.morphism_index("f12_1")
    assert C.comp_table[f][g] == C.n_morphisms - 1
    with pytest.raises(IllTypedComposite, match="f21_00;f12_1 = -1 is not a morphism index"):
        check_category_tables(with_entry(C, f, g, -1))


def test_associativity_checked():
    # delooping validates its table; a non-associative one must not survive
    with pytest.raises(AssociativityViolation):
        fincat(
            "nonassoc",
            ["x"],
            ["e", "a", "b"],
            [0, 0, 0],
            [0, 0, 0],
            [0],
            {(1, 1): 2, (1, 2): 0, (2, 1): 1, (2, 2): 1},
        )


def test_compose_is_diagrammatic():
    C = chain_poset(3)
    f = C.hom(0, 1)[0]
    g = C.hom(1, 2)[0]
    assert C.compose(f, g) == C.hom(0, 2)[0]
    with pytest.raises(IllTypedComposite):
        C.compose(g, f)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_corpus_validates_and_unit_laws(seed):
    C = random_category(seed)
    check_category_tables(C)
    for f in range(C.n_morphisms):
        assert C.compose(C.identity[C.mor_src[f]], f) == f
        assert C.compose(f, C.identity[C.mor_dst[f]]) == f


@given(seeds, st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_corpus_associativity_spot(seed, salt):
    C = random_category(seed)
    m = C.n_morphisms
    triples = [
        (f, g, h)
        for f in range(m)
        for g in range(m)
        if C.mor_dst[f] == C.mor_src[g]
        for h in range(m)
        if C.mor_dst[g] == C.mor_src[h]
    ]
    for f, g, h in triples[salt::8]:
        assert C.compose(C.compose(f, g), h) == C.compose(f, C.compose(g, h))


def test_find_iso_and_classes():
    C = walking_iso()
    f = C.hom(0, 1)[0]
    iso = find_iso(C, f)
    assert iso is not None
    assert C.compose(iso.fwd, iso.inv) == C.identity[0]
    assert C.compose(iso.inv, iso.fwd) == C.identity[1]
    assert iso_classes(C) == ((0, 1),)


def test_isos_between_counts_automorphisms():
    Z2 = delooping([[0, 1], [1, 0]], name="Z2")
    assert len(isos_between(Z2, 0, 0)) == 2


def test_iso_classes_on_setoid():
    S = setoid_groupoid(5, {(0, 1), (1, 2), (3, 4)})
    assert iso_classes(S) == ((0, 1, 2), (3, 4))


def test_functor_validation_catches_bad_images():
    C, T = walking_iso(), terminal_cat()
    with pytest.raises(IllTypedImage):
        functor(C, C, [0, 1], [0, 0, 2, 3])
    F = functor(C, T, [0, 0], [0, 0, 0, 0])
    check_functor(F)


def test_compose_functors_and_equality():
    C = walking_iso()
    I = identity_functor(C)
    assert functors_equal(compose_functors(I, I), I)
    swap = functor(C, C, [1, 0], [1, 0, 3, 2])
    assert not functors_equal(swap, I)
    assert functors_equal(compose_functors(swap, swap), I)


def test_nat_iso_validation():
    C = walking_iso()
    I = identity_functor(C)
    swap = functor(C, C, [1, 0], [1, 0, 3, 2])
    a = nat_iso(I, swap, [C.hom(0, 1)[0], C.hom(1, 0)[0]])
    check_nat_iso(a)


@pytest.mark.parametrize("end", ["source", "target"])
@pytest.mark.parametrize("images", ["last -1", "last past the end", "short"])
def test_nat_iso_refuses_a_functor_image_out_of_range_before_reading_it(end, images):
    """-1 would read the last morphism, one past the end would raise a bare
    IndexError, and a short map would leave a morphism without an image."""
    C = inflate(chain_poset(2), [1, 2])[0]
    F = identity_functor(C)
    m = C.n_morphisms
    mor_map = {"last -1": F.mor_map[:-1] + (-1,), "last past the end": F.mor_map[:-1] + (m,),
               "short": F.mor_map[:-1]}[images]
    G = Functor(C, C, F.obj_map, mor_map, "G")
    ids = tuple(Iso(C.identity[x], C.identity[x]) for x in range(C.n_objects))
    alpha = NatIso(F, G, ids) if end == "target" else NatIso(G, F, ids)
    with pytest.raises(IllTypedImage, match=f"{end} functor G has an image out of range"):
        check_nat_iso(alpha)
    check_nat_iso(NatIso(F, F, ids))


def test_weak_equivalence_certificate_roundtrip():
    S = setoid_groupoid(4, {(0, 1), (2, 3)})
    from catkit.completion import skeletize

    res = skeletize(S)
    cert = res.cert
    check_weak_equivalence_cert(cert)
    assert is_fully_faithful(cert.functor) is not None
    assert is_essentially_surjective(cert.functor) is not None
    # ff_inverse really inverts the hom-level bijection
    G = cert.functor
    for x in range(S.n_objects):
        for y in range(S.n_objects):
            for h in S.hom(x, y):
                assert cert.ff_inverse(x, y, G.mor_map[h]) == h


def _eta_cert():
    from catkit.completion import inflate, skeletize

    return skeletize(inflate(chain_poset(3), [2, 1, 2])[0]).cert


def test_a_recorded_certificate_cannot_be_altered():
    cert = _eta_cert()
    # eta is a functor by construction, not checked, so its certificate is
    # recorded once it passes the check
    assert cert not in core._accepted_certs
    check_weak_equivalence_cert(cert)
    assert cert in core._accepted_certs
    table = cert.ff_witness[(0, 0)]
    (h, f), = table.items()
    with pytest.raises(TypeError):
        table[h] = f + 1
    with pytest.raises(TypeError):
        cert.ff_witness[(0, 0)] = {}
    with pytest.raises(TypeError):
        cert.functor.mor_map[f] = h
    with pytest.raises(TypeError):
        cert.eso_witness[0] = cert.eso_witness[1]
    with pytest.raises(AttributeError):
        cert.eso_witness = cert.eso_witness[::-1]
    # a certificate built from outside is recorded with read-only copies of
    # its tables, so their owner cannot reach it once it passed
    ff = {k: dict(v) for k, v in cert.ff_witness.items()}
    copy = core.WeakEquivalenceCert(cert.functor, ff, cert.eso_witness)
    check_weak_equivalence_cert(copy)
    assert copy in core._accepted_certs
    ff[(0, 0)][h] = f + 1
    assert copy.ff_witness[(0, 0)][h] == f
    with pytest.raises(TypeError):
        copy.ff_witness[(0, 0)][h] = f + 1


def test_a_corrupted_copy_of_a_recorded_certificate_still_fails():
    cert = _eta_cert()
    check_weak_equivalence_cert(cert)
    F, eso = cert.functor, cert.eso_witness
    ff = {k: dict(v) for k, v in cert.ff_witness.items()}
    (x, y), table = next((k, v) for k, v in ff.items() if k[0] != k[1] and v)
    (h, f), = table.items()
    wrong = next(g for g in range(F.source.n_morphisms) if F.mor_map[g] != h)
    assert F.source.is_identity(0)
    bad_mor_map = (next(u for u in range(F.target.n_morphisms) if not F.target.is_identity(u)),
                   *F.mor_map[1:])
    copies = [
        replace(cert, eso_witness=(eso[1], eso[0], *eso[2:])),
        replace(cert, ff_witness={**ff, (x, y): {h: wrong}}),
        replace(cert, ff_witness={k: v for k, v in ff.items() if k != (x, y)}),
        replace(cert, functor=core.Functor(F.source, F.target, F.obj_map, bad_mor_map)),
    ]
    for bad in copies:
        with pytest.raises(CatkitError):
            check_weak_equivalence_cert(bad)
        assert bad not in core._accepted_certs


def test_is_weak_equivalence_records_only_a_checked_functors_certificate():
    cert = _eta_cert()
    F = cert.functor
    unchecked = core.Functor(F.source, F.target, F.obj_map, F.mor_map)
    fresh = is_weak_equivalence(unchecked)
    assert fresh not in core._accepted_certs
    check_weak_equivalence_cert(fresh)
    assert fresh in core._accepted_certs
    # maps held in lists can change, so a certificate over them is checked every time
    listed = core.Functor(F.source, F.target, list(F.obj_map), list(F.mor_map))
    check_functor(listed)
    again = is_weak_equivalence(listed)
    check_weak_equivalence_cert(again)
    assert again not in core._accepted_certs


def test_the_record_does_not_keep_a_certificate_alive():
    import gc
    import weakref

    ref = weakref.ref(_eta_cert())
    gc.collect()
    assert ref() is None


def test_non_equivalences_rejected():
    C = walking_iso()
    T = terminal_cat()
    collapse = functor(C, T, [0, 0], [0, 0, 0, 0])
    assert is_weak_equivalence(collapse) is not None
    two = fincat("2disc", ["a", "b"], ["id_a", "id_b"], [0, 1], [0, 1], [0, 1], {})
    incl = functor(T, two, [0], [0])
    assert is_fully_faithful(incl) is not None
    assert is_essentially_surjective(incl) is None
    assert is_weak_equivalence(incl) is None


def test_opposite_involution_and_homs():
    C = finset_fragment(2)
    op = opposite(C)
    assert same_tables(opposite(op), C)
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            assert sorted(op.hom(x, y)) == sorted(C.hom(y, x))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_opposite_preserves_weak_equivalence_status(seed):
    from catkit.generators import random_weak_equivalence

    F = random_weak_equivalence(seed)
    assert is_weak_equivalence(F) is not None
    assert is_weak_equivalence(opposite_functor(F)) is not None


def test_table_isomorphic_detects_relabeling():
    C = walking_iso()
    relabeled = fincat(
        "walking-iso-renamed",
        ["x", "y"],
        ["1x", "1y", "u", "v"],
        list(C.mor_src),
        list(C.mor_dst),
        list(C.identity),
        {
            (f, g): C.comp_table[f][g]
            for f in range(4)
            for g in range(4)
            if C.mor_dst[f] == C.mor_src[g] and C.comp_table[f][g] is not None
        },
    )
    assert table_isomorphic(C, relabeled)
    assert not table_isomorphic(C, terminal_cat())


def _relabeled(C, rng):
    """C with its objects and morphisms renumbered by random permutations,
    and the permutations."""
    objs, mors = list(range(C.n_objects)), list(range(C.n_morphisms))
    rng.shuffle(objs)
    rng.shuffle(mors)
    back = sorted(range(C.n_morphisms), key=mors.__getitem__)
    identity = [0] * C.n_objects
    for x in range(C.n_objects):
        identity[objs[x]] = mors[C.identity[x]]
    P = fincat(
        f"{C.name}-relabeled",
        [str(x) for x in range(C.n_objects)],
        [str(f) for f in range(C.n_morphisms)],
        [objs[C.mor_src[f]] for f in back],
        [objs[C.mor_dst[f]] for f in back],
        identity,
        {(mors[f], mors[g]): mors[c] for f, row in enumerate(C.comp_table)
         for g, c in enumerate(row) if c is not None},
    )
    return P, objs, mors


@pytest.mark.parametrize("seed", [38, 68])
def test_table_isomorphic_backtracks_past_a_composite_assigned_last(seed):
    # composites whose image is assigned after both factors are compared
    # only by the full check, which used to end the object permutation
    C = random_category(seed)
    P, objs, mors = _relabeled(C, random.Random(seed))
    functor(C, P, objs, mors)   # the relabelling is an isomorphism
    found = table_isomorphic(C, P)
    assert found is not None
    functor(C, P, *found)
    assert sorted(found[0]) == sorted(objs) and sorted(found[1]) == sorted(mors)


def _two_step(name, composite):
    """Objects 0, 1, 2 with four arrows 0 -> 1, four arrows 1 -> 2 and ten
    arrows 0 -> 2 indexed last; the composite of the i-th and j-th of the
    first two is the composite(i, j)-th of the ten."""
    src = [0, 1, 2] + [0] * 4 + [1] * 4 + [0] * 10
    dst = [0, 1, 2] + [1] * 4 + [2] * 4 + [2] * 10
    comp = {(3 + i, 7 + j): 11 + composite(i, j) for i in range(4) for j in range(4)}
    return fincat(name, "012", [str(f) for f in range(21)], src, dst, [0, 1, 2], comp)


def test_table_isomorphic_prunes_a_composite_assigned_last(monkeypatch):
    # equal hom sizes, but composition hits all ten composites in one and
    # seven in the other; a search that compared composites indexed after
    # both factors only at its leaves would visit up to 4! 4! 10! of them
    A = _two_step("onto", lambda i, j: (4 * i + j) % 10)
    B = _two_step("into", lambda i, j: i + j)
    calls = Counter()
    is_identity = core.FinCat.is_identity

    def counted(self, f):
        calls["n"] += 1
        if calls["n"] > 10 ** 6:
            raise AssertionError("table_isomorphic did not prune")
        return is_identity(self, f)

    monkeypatch.setattr(core.FinCat, "is_identity", counted)
    assert table_isomorphic(A, B) is None and table_isomorphic(B, A) is None
    assert table_isomorphic(A, A) is not None


def test_same_tables_is_strict():
    assert same_tables(walking_iso(), walking_iso())
    assert not same_tables(walking_iso(), terminal_cat())


# ---------------------------------------------------------------------------
# tabulate


def _z3(entries, identity="0"):
    """The cyclic group of order 3 on one object, its elements as the
    strings "0", "1", "2" listed in the given order."""
    return tabulate(
        "z3", ["*"], entries, [0] * len(entries), [0] * len(entries),
        [f"g{e}" for e in entries], [identity],
        lambda a, b: str((int(a) + int(b)) % 3),
    )


def test_tabulate_keeps_the_entries_order_as_indices():
    C, index = _z3(["2", "0", "1"])
    assert index == {"2": 0, "0": 1, "1": 2}
    assert C.mor_labels == ("g2", "g0", "g1")
    assert C.identity == (1,)
    # 2 + 2 = 1, 2 + 1 = 0, 1 + 1 = 2, each at its entry's index
    assert C.comp_table[0][0] == 2 and C.comp_table[0][2] == 1 and C.comp_table[2][2] == 0
    assert same_tables(C, _z3(["2", "0", "1"])[0])


def test_tabulate_composes_each_composable_pair_once():
    # the chain 0 <= 1 <= 2 as its pairs, listed out of order
    pairs = [(1, 2), (0, 0), (2, 2), (0, 2), (1, 1), (0, 1)]
    calls = Counter()

    def compose(ab, cd):
        calls[(ab, cd)] += 1
        return ab[0], cd[1]

    C, index = tabulate(
        "chain", ["c0", "c1", "c2"], pairs, [a for a, _ in pairs], [b for _, b in pairs],
        [f"{a}{b}" for a, b in pairs], [(0, 0), (1, 1), (2, 2)], compose,
    )
    assert calls == Counter({(p, q): 1 for p in pairs for q in pairs if p[1] == q[0]})
    assert same_tables(C, chain_poset(3)) is False  # other indices, same category
    assert table_isomorphic(C, chain_poset(3)) is not None
    assert C.comp_table[index[(0, 1)]][index[(1, 2)]] == index[(0, 2)]


def test_tabulate_leaves_the_laws_to_fincat():
    # "a" then "a" is "b", and "a", "b" otherwise act as in fincat's
    # non-associative example: refused with fincat's error
    table = {("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "a", ("b", "b"): "a"}
    with pytest.raises(AssociativityViolation):
        tabulate(
            "nonassoc", ["x"], ["e", "a", "b"], [0, 0, 0], [0, 0, 0], ["e", "a", "b"], ["e"],
            lambda s, t: t if s == "e" else s if t == "e" else table[(s, t)],
        )
    # an identity that is not one breaks the unit laws
    with pytest.raises(UnitLawViolation):
        _z3(["0", "1", "2"], identity="1")


@pytest.mark.parametrize("mor_src, mor_dst, identity, comp, error, message", [
    ([0], [0], [5], {}, MissingIdentity, "object a has no identity morphism"),
    ([0], [0], [-1], {}, MissingIdentity, "object a has no identity morphism"),
    ([3], [0], [0], {}, DanglingReference, "morphism f references a missing object"),
    ([0], [-2], [0], {}, DanglingReference, "morphism f references a missing object"),
    ([0, 0], [0], [0], {}, DanglingReference, "disagree in length"),
    ([0], [0], [0], {(0, 1): 0}, DanglingReference,
     r"composition entry \(0, 1\) names a missing morphism"),
    ([0], [0], [0], {(-1, 0): 0}, DanglingReference,
     r"composition entry \(-1, 0\) names a missing morphism"),
])
def test_fincat_refuses_an_index_out_of_range_before_filling_in_the_units(
        mor_src, mor_dst, identity, comp, error, message):
    with pytest.raises(error, match=message):
        fincat("x", ["a"], ["f"], mor_src, mor_dst, identity, comp)


def test_fincat_refuses_a_composition_key_it_would_write_to_another_row():
    """(-1, 0) would fill the last row, and the law check would then name an
    entry the caller never gave."""
    for key in ((0, 4), (-1, 0), (0, -1), (3, 0)):
        with pytest.raises(DanglingReference, match="names a missing morphism"):
            fincat("x", ["a", "b"], ["ida", "idb", "f"], [0, 1, 0], [0, 1, 1], [0, 1], {key: 0})


def test_tabulate_refuses_an_identity_or_a_composite_that_is_not_an_entry():
    with pytest.raises(MissingIdentity, match="has no identity morphism"):
        _z3(["0", "1", "2"], identity="3")
    with pytest.raises(DanglingReference, match="composite of entries 1 then 2 is not an entry"):
        tabulate("z3", ["x"], ["0", "1", "2"], [0, 0, 0], [0, 0, 0], ["g0", "g1", "g2"], ["0"],
                 lambda a, b: str(int(a) + int(b)))


# ---------------------------------------------------------------------------
# search budget


def test_a_new_thread_starts_uncapped_while_this_one_holds_a_cap():
    seen = []

    def probe():
        seen.append((core._budget.limit, core._budget.used))
        budget_tick(10)   # past this thread's cap, were it inherited
        seen.append((core._budget.limit, core._budget.used))

    try:
        set_search_budget(5)
        budget_tick(3)
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen == [(None, 0), (None, 0)]
        assert (core._budget.limit, core._budget.used) == (5, 3)
    finally:
        set_search_budget(None)
