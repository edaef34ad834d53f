"""Eight end-to-end acceptance checks, one test per criterion.

Each test is a complete scenario; a failing assert names the first property
that does not hold.  Criterion 2 checks the topos pieces finset_fragment(2)
has and carries its two-point classifier through the completion, asserts the
refutation of 2 x 2 (no object carries four global points; a finite category
with true != false is never a topos), and checks the full topos pipeline with
a logical eta on an inflated codiscrete groupoid, a degenerate finite topos.
"""
import time

import pytest

from catkit.classifier import (
    assemble_topos,
    find_subobject_classifier,
    is_logical_functor,
    is_mono,
    topos_gaps,
)
from catkit.cli import preorder6_spec
from catkit.completion import (
    check_factorization,
    factor_through,
    factorization_unique,
    inflate,
    inflate_section,
    skeletize,
)
from catkit.core import (
    check_category_tables,
    functor,
    is_weak_equivalence,
    opposite_functor,
    same_tables,
    table_isomorphic,
)
from catkit.generators import (
    discrete,
    finset_fragment,
    identity_monad,
    idempotent_splits,
    karoubi_envelope,
    kleisli,
    poset_from_pairs,
    preorder_cat,
    random_category,
    random_weak_equivalence,
    setoid_groupoid,
    terminal_cat,
    walking_iso,
)
from catkit.lifting import KIND_ORDER, KINDS, complete_structured, factor_structured
from catkit.limits import (
    EQUALIZERS,
    PRODUCTS,
    comparison,
    find_binary_coproduct,
    find_binary_products,
    find_coequalizer,
    find_equalizers,
    find_limit,
    find_pullbacks,
    find_terminal,
    is_terminal,
    lift_preservation_binary_products,
    lift_preservation_terminal,
    parallel_pairs,
    partial_table,
    preserves_binary_products,
    preserves_terminal,
    transfer_binary_products,
    transfer_equalizers,
    transfer_terminal,
)
from catkit.nno import find_pnno, is_pnno, reflect_pnno, transfer_pnno
from classifier_oracles import mono_by_cancellation, mono_by_pullback
from completion_helpers import nat_isos_between

pytestmark = pytest.mark.filterwarnings("ignore:target")

CORPUS = range(120)

from colimit_oracles import find_binary_coproduct_direct, find_coequalizer_direct


def _copies(seed, n):
    return [1 + (seed + i) % 2 for i in range(n)]


def test_criterion_1_named_completions():
    t0 = time.perf_counter()
    res = skeletize(walking_iso())
    assert same_tables(res.completed, terminal_cat())
    assert res.fidelity == "exact"

    P = preorder_cat(*preorder6_spec(), name="preorder6")
    resP = skeletize(P)
    assert is_weak_equivalence(resP.eta) is not None
    quotient = poset_from_pairs(
        ["q0", "q2", "q4", "q5"],
        {("q0", "q2"), ("q0", "q4"), ("q2", "q4")},
        name="expected-quotient",
    )
    assert table_isomorphic(resP.completed, quotient) is not None

    S = setoid_groupoid(5, {(0, 1), (1, 2), (3, 4)})
    resS = skeletize(S)
    assert resS.completed.n_objects == 2
    assert is_weak_equivalence(resS.eta) is not None
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_fragment_topos_pipeline():
    t0 = time.perf_counter()
    # 1. finset_fragment(2) has each topos piece that a finite category with
    # a two-point Omega can have, and provably lacks 2 x 2.  Expected values
    # come from the tables: the terminal is the object every object maps to
    # uniquely, Omega's global points are the subobjects of 1, and a product
    # x * y needs |hom(1, x)| * |hom(1, y)| global points.
    C = finset_fragment(2)
    objs = range(C.n_objects)
    ones = [t for t in objs if all(len(C.hom(x, t)) == 1 for x in objs)]
    assert ones == [1]
    term = find_terminal(C)
    assert term is not None and term.t == 1
    assert find_equalizers(C) is not None
    subterminals = [
        x for x in objs if any(mono_by_cancellation(C, f) for f in C.hom(x, 1))
    ]
    assert subterminals == [0, 1]
    soc = find_subobject_classifier(C, {"terminal": term})
    assert soc is not None and soc.omega == 2
    assert len(C.hom(term.t, soc.omega)) == len(subterminals) == 2
    points = [len(C.hom(term.t, x)) for x in objs]
    assert points == [0, 1, 2]
    assert max(points) < points[2] * points[2] == 4
    assert find_limit(PRODUCTS, C, (2, 2)) is None
    assert find_binary_products(C) is None, (
        "finset_fragment(2) cannot have a product of the two-element set with "
        "itself: no object carries four global points"
    )
    # the pullback of the two maps 2 -> 1 is that same product
    assert find_pullbacks(C) is None
    assert assemble_topos(C) is None
    assert topos_gaps(C)[0] == "binary products"

    # 2. What the fragment has survives the completion: the classifier, with
    # its two-point Omega, is carried to the skeleton and lifted through the
    # factorization of the projection.  Exponentials and the parameterized N
    # need products, so neither is carried.
    infl, proj = inflate(C, [2] * C.n_objects)
    sc = complete_structured(infl)
    assert set(sc.kinds) == {"terminal", "equalizers", "classifier"}
    assert all("products" in KINDS[k].deps for k in ("exponentials", "pnno"))
    skel = sc.result.completed
    tD, socD = sc.completed["terminal"], sc.completed["classifier"]
    assert len(skel.hom(tD.t, socD.omega)) == 2
    assert assemble_topos(infl) is None and assemble_topos(skel) is None
    fact = factor_structured(sc, proj)
    assert set(fact.lifted_certs) == set(sc.kinds)
    check_factorization(sc.result, proj, fact.factorization)

    # 3. The topos half runs on a finite topos that exists.  With true != false
    # a topos has at least 2**n global points of Omega**n for every n, so a
    # finite topos is degenerate (0 ~ 1): an inflated codiscrete groupoid.
    S = setoid_groupoid(3, {(0, 1), (1, 2)}, name="codisc3")
    infl, proj = inflate(S, [2, 1, 2])
    sc = complete_structured(infl)
    assert sc.kinds == KIND_ORDER
    skel = sc.result.completed
    T_infl = assemble_topos(infl)
    T_skel = assemble_topos(skel)
    assert T_infl is not None and T_skel is not None
    assert len(infl.hom(T_infl["terminal"].t, T_infl["classifier"].omega)) == 1
    assert is_logical_functor(sc.result.eta, T_infl, T_skel) is not None
    fact = factor_structured(sc, proj)
    assert set(fact.lifted_certs) == set(KIND_ORDER)
    check_factorization(sc.result, proj, fact.factorization)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_3_transfer_equals_direct_search():
    qualifying = 0
    for seed in range(160):
        C = random_category(seed)
        term = find_terminal(C)
        prods = find_binary_products(C)
        eqs = find_equalizers(C)
        if term is None and prods is None and eqs is None:
            continue
        qualifying += 1
        infl, proj = inflate(C, _copies(seed, C.n_objects))
        cert_sec = is_weak_equivalence(inflate_section(proj))
        cert_proj = is_weak_equivalence(proj)
        assert cert_sec is not None and cert_proj is not None
        if term is not None:
            tI = transfer_terminal(cert_sec, term)
            tB = transfer_terminal(cert_proj, tI)
            assert is_terminal(C, tB.t)
        if prods is not None:
            pI = transfer_binary_products(cert_sec, prods)
            pB = transfer_binary_products(cert_proj, pI)
            for (x, y), w in pB.items():
                comparison(PRODUCTS, C, w, find_limit(PRODUCTS, C, (x, y)))
        if eqs is not None:
            eI = transfer_equalizers(cert_sec, eqs)
            eB = transfer_equalizers(cert_proj, eI)
            for (f, g), w in eB.items():
                comparison(EQUALIZERS, C, w, find_limit(EQUALIZERS, C, (f, g)))
        if term is not None or prods is not None:
            res = skeletize(infl)
            fac = factor_through(res, proj)
            if term is not None:
                tI2 = transfer_terminal(cert_sec, term)
                assert preserves_terminal(proj, tI2, term) is not None
                tD = transfer_terminal(res.cert, tI2)
                lift_preservation_terminal(res.cert, proj, fac.functor, fac.alpha, tD, term)
            if prods is not None:
                pI2 = transfer_binary_products(cert_sec, prods)
                assert preserves_binary_products(proj, pI2, prods) is not None
                pD = transfer_binary_products(res.cert, pI2)
                lift_preservation_binary_products(
                    res.cert, proj, fac.functor, fac.alpha, pD, prods
                )
    assert qualifying >= 100


def test_criterion_4_duality_is_exact():
    for seed in CORPUS:
        C = random_category(seed)
        for x in range(C.n_objects):
            for y in range(C.n_objects):
                assert find_binary_coproduct(C, x, y) == find_binary_coproduct_direct(
                    C, x, y
                )
        for f, g in parallel_pairs(C):
            assert find_coequalizer(C, f, g) == find_coequalizer_direct(C, f, g)
    for seed in range(40):
        F = random_weak_equivalence(seed)
        assert is_weak_equivalence(opposite_functor(F)) is not None
    # and only weak equivalences: non-equivalences stay non under opposite
    D2, T = discrete(2), terminal_cat()
    crush = functor(D2, T, [0, 0], [0, 0], name="crush")
    point = functor(T, D2, [0], [0], name="point")
    for F in (crush, point):
        assert is_weak_equivalence(F) is None
        assert is_weak_equivalence(opposite_functor(F)) is None


def test_criterion_5_mono_biconditional_and_transport():
    for seed in CORPUS:
        C = random_category(seed)
        for f in range(C.n_morphisms):
            assert mono_by_cancellation(C, f) == mono_by_pullback(C, f)
        infl, proj = inflate(C, _copies(seed, C.n_objects))
        sec = inflate_section(proj)
        for f in range(infl.n_morphisms):
            assert (is_mono(infl, f) is None) == (is_mono(C, proj.mor_map[f]) is None)
        for f in range(C.n_morphisms):
            assert (is_mono(C, f) is None) == (is_mono(infl, sec.mor_map[f]) is None)


def test_criterion_6_karoubi_and_kleisli():
    for seed in range(50):
        C = random_category(seed)
        K, embed = karoubi_envelope(C)
        check_category_tables(K)
        for f in range(K.n_morphisms):
            if K.mor_src[f] == K.mor_dst[f] and K.compose(f, f) == f:
                assert idempotent_splits(K, f) is not None
        Kl, _ = kleisli(C, identity_monad(C))
        check_category_tables(Kl)
        assert table_isomorphic(Kl, C) is not None


def test_criterion_7_factorization_universality():
    exercised = small = 0
    for seed in CORPUS:
        C = random_category(seed)
        res = skeletize(C)
        if res.fidelity != "exact":
            continue
        exercised += 1
        F = res.eta
        fac = factor_through(res, F)
        check_factorization(res, F, fac)
        conn = factorization_unique(res, F, fac, fac)
        assert all(res.completed.is_identity(c.fwd) for c in conn.components)
        if res.completed.n_objects <= 4:
            small += 1
            assert len(nat_isos_between(fac.functor, fac.functor)) == 1
    assert exercised >= 80 and small >= 40


def test_criterion_8_pnno_transport_and_fragment_absence():
    carriers = 0
    for seed in CORPUS:
        C = random_category(seed)
        term = find_terminal(C)
        if term is None:
            continue
        prods = find_binary_products(C)
        if prods is None:
            continue
        bag = {"terminal": term, "products": prods}
        w = find_pnno(C, bag)
        if w is None:
            continue
        carriers += 1
        infl, proj = inflate(C, _copies(seed, C.n_objects))
        cert = is_weak_equivalence(inflate_section(proj))
        termD = transfer_terminal(cert, term)
        prodsD = transfer_binary_products(cert, prods)
        wD = transfer_pnno(cert, {**bag, "pnno": w}, {"terminal": termD, "products": prodsD})
        assert is_pnno(infl, termD, prodsD, wD.N, wD.z, wD.s) is not None
        cert_proj = is_weak_equivalence(proj)
        back = reflect_pnno(cert_proj, termD, prodsD, term, prods, wD.N, wD.z, wD.s)
        assert is_pnno(infl, termD, prodsD, back.N, back.z, back.s) is not None
    assert carriers >= 40
    # the finset fragment carries none, even with vacuous parameter pairs
    C = finset_fragment(2)
    term = find_terminal(C)
    partial = partial_table(PRODUCTS, C)
    assert find_pnno(C, {"terminal": term, "products": partial}) is None
    for N in range(C.n_objects):
        for z in C.hom(term.t, N):
            for s in C.hom(N, N):
                assert is_pnno(C, term, partial, N, z, s) is None
