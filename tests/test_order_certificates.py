"""The certificate checks that decide a thin category by order, against
their definitions in ``certificate_oracles`` and against the walks the
library keeps for other categories: isomorphism classes, essential
surjectivity, gauntness, ``skeletize``'s eta and certificate, the
naturality walk, functors that are ill-typed or out of range included,
and the full-and-faithful check with its ticks; then the certificate
checks' refusals of witnesses outside the hom-sets they claim, and the
preservation of exponentials compared once per distinct image."""
import random
import warnings
from functools import cache

import pytest

import certificate_oracles
import law_oracles
import limit_oracles
import test_law_oracles
from catkit import core, exponentials, limits
from catkit.completion import (
    check_factorization,
    factor_through,
    inflate,
    inflate_section,
    skeletality,
    skeletize,
)
from catkit.core import (
    Functor,
    Iso,
    NatIso,
    WeakEquivalenceCert,
    check_nat_iso,
    check_weak_equivalence_cert,
    fincat,
    functor,
    identity_functor,
    is_essentially_surjective,
    is_fully_faithful,
    is_weak_equivalence,
    iso_classes,
    set_search_budget,
)
from catkit.errors import (
    ComponentNotIso,
    InvalidCert,
    InvalidFactorization,
    SearchBudgetExceeded,
)
from catkit.generators import (
    chain_poset,
    discrete,
    heyting_category,
    heyting_diamond,
    setoid_groupoid,
)
from catkit.lifting import find_bag
from test_limit_oracles import _carry_corpus
from test_order_verbs import _last_copies
from test_reflected_checks import _exp_corruptions, _twins


@cache
def corpus() -> tuple:
    """The law checks' corpus (random categories, finset fragments and
    their inflations), inflations of chains and of the diamond, and
    setoids."""
    out = list(test_law_oracles.corpus())
    out += [inflate(chain_poset(4), [1, 2, 2, 3])[0], inflate(chain_poset(3), [3, 1, 2])[0],
            inflate(heyting_category(heyting_diamond()), [2, 1, 2, 1])[0]]
    out += [setoid_groupoid(6, {(0, 1), (2, 4), (1, 5)}), setoid_groupoid(4, {(0, 3)}),
            inflate(setoid_groupoid(3, {(0, 2)}), [2, 1, 1])[0]]
    return tuple(out)


def _outcome(call, *args):
    """What call returns, or the class and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:   # every raise is compared, IndexError included
        return type(exc), str(exc)


def _ticks(call, *args):
    """call's outcome and the ticks it took."""
    set_search_budget(10**18)
    try:
        return _outcome(call, *args), core._budget.used
    finally:
        set_search_budget(None)


def _retarget(F: Functor, D) -> Functor:
    return Functor(F.source, D, F.obj_map, F.mor_map, F.name)


def test_the_corpus_holds_both_kinds():
    thin = [C.order_scan[0] is not None for C in test_law_oracles.corpus()]
    assert (thin.count(True), thin.count(False)) == (117, 38)
    for C in corpus():
        # the scan's verdict is thinness by definition
        assert (C.order_scan[0] is not None) == law_oracles.is_thin(C), C.name


def test_iso_classes_are_the_pairwise_inverse_classes():
    for C in corpus():
        assert iso_classes(C) == certificate_oracles.iso_classes(C), C.name


def test_gaunt_is_one_automorphism_per_object():
    seen = set()
    for C in corpus():
        for X in (C, skeletize(C).completed):
            report = skeletality(X)
            want = certificate_oracles.skeletality(X)
            assert (report.is_skeletal, report.is_gaunt) == want, X.name
            seen.add((X.order_scan[0] is not None, *want))
    # thin categories skeletal or not, and skeletal categories gaunt or not
    assert {(True, True, True), (True, False, False), (False, True, False),
            (False, True, True)} <= seen, seen


def _eso_functors(C):
    """Functors into C or its skeleton: eta, the inclusion, the identity,
    the inclusion of the first object alone, which misses every other
    class, and two that send an object outside C, below and above."""
    cr = skeletize(C)
    return [cr.eta, cr.inclusion, identity_functor(C),
            Functor(discrete(1), C, (0,), (C.identity[0],)),
            Functor(discrete(1), C, (-1,), (C.identity[0],)),
            Functor(discrete(2), C, (C.n_objects, 0), (C.identity[0],) * 2)]


def test_the_eso_witness_is_the_lowest_preimage():
    seen = set()
    for C in corpus():
        for F in _eso_functors(C):
            got = is_essentially_surjective(F)
            assert got == certificate_oracles.essentially_surjective(F), (C.name, F.name)
            generic = _retarget(F, limit_oracles.generic_view(F.target))
            assert is_essentially_surjective(generic) == got, (C.name, F.name)
            seen.add((F.target.order_scan[0] is not None, got is None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_skeletize_on_a_thin_category_gives_the_generic_completion():
    thin = 0
    for C in corpus():
        if C.order_scan[0] is None:
            continue
        thin += 1
        got, want = skeletize(C), skeletize(limit_oracles.generic_view(C))
        assert got.completed.comp_table == want.completed.comp_table, C.name
        assert (got.completed.objects, got.completed.mor_labels) == \
            (want.completed.objects, want.completed.mor_labels), C.name
        assert (got.eta.obj_map, got.eta.mor_map) == (want.eta.obj_map, want.eta.mor_map), C.name
        assert {k: dict(v) for k, v in got.cert.ff_witness.items()} == \
            {k: dict(v) for k, v in want.cert.ff_witness.items()}, C.name
        assert list(got.cert.ff_witness) == list(want.cert.ff_witness), C.name
        assert got.cert.eso_witness == want.cert.eso_witness, C.name
        assert (got.fidelity, got.representative, got.rep_objects) == \
            (want.fidelity, want.representative, want.rep_objects), C.name
        assert got.inclusion.mor_map == want.inclusion.mor_map, C.name
    assert thin == 117 + 6


def _mutations(alpha: NatIso, rng: random.Random):
    """alpha, then copies with one component, or one image of F or of G,
    replaced: by another morphism, by -1 and by the number of morphisms."""
    F, G = alpha.source, alpha.target
    C, D = F.source, F.target
    yield alpha
    m = D.n_morphisms
    for x in rng.sample(range(C.n_objects), min(2, C.n_objects)):
        for fwd in (rng.randrange(m), -1, m):
            comps = list(alpha.components)
            comps[x] = Iso(fwd, alpha.components[x].inv)
            yield NatIso(F, G, tuple(comps))
    for side in (0, 1):
        for f in rng.sample(range(C.n_morphisms), min(2, C.n_morphisms)):
            for h in (rng.randrange(m), -1, m):
                H = (F, G)[side]
                mor_map = H.mor_map[:f] + (h,) + H.mor_map[f + 1:]
                H = Functor(C, D, H.obj_map, mor_map, H.name)
                yield NatIso(H, G, alpha.components) if side == 0 else NatIso(F, H, alpha.components)


def test_the_naturality_check_gives_the_walks_verdict():
    seen = set()
    for k, C in enumerate(corpus()):
        cr = skeletize(C)
        with warnings.catch_warnings():   # a target that is not gaunt is warned of
            warnings.simplefilter("ignore")
            alphas = [factor_through(cr, identity_functor(C)).alpha,
                      factor_through(cr, cr.eta).alpha]
        for alpha in alphas:
            for a in _mutations(alpha, random.Random(k)):
                got, ticks = _ticks(check_nat_iso, a)
                assert got == _outcome(certificate_oracles.check_nat_iso, a), (C.name, a)
                D = limit_oracles.generic_view(a.source.target)
                generic = NatIso(_retarget(a.source, D), _retarget(a.target, D), a.components)
                assert _ticks(check_nat_iso, generic) == (got, ticks), (C.name, a)
                seen.add((a.source.target.order_scan[0] is not None,
                          None if got is None else got[0].__name__))
    assert {(True, None), (True, "ComponentNotIso"), (True, "IllTypedImage"),
            (False, "IllTypedImage"), (False, "NaturalitySquareFails")} <= seen, seen
    # an image out of range is refused before it is read
    assert not {name for _, name in seen} & {"IndexError", "IllTypedComposite"}, seen


def _ff_functors(C):
    cr = skeletize(C)
    out = [cr.eta, cr.inclusion, identity_functor(C)]
    # the identity on objects and identities only: faithful, full only where
    # every arrow is an identity
    n = C.n_objects
    out.append(Functor(discrete(n), C, tuple(range(n)), tuple(C.identity)))
    # every arrow to the identity of its class's representative: full onto
    # the discrete skeleton, faithful only where every hom-set is a singleton
    classes = iso_classes(C)
    cls_of = {x: i for i, cls in enumerate(classes) for x in cls}
    out.append(Functor(C, discrete(len(classes)), tuple(cls_of[x] for x in range(n)),
                       tuple(cls_of[C.mor_src[f]] for f in range(C.n_morphisms))))
    return out


def test_fully_faithful_reads_each_hom_set_once_with_the_same_ticks():
    seen = set()
    for C in corpus():
        for F in _ff_functors(C):
            got, ticks = _ticks(is_fully_faithful, F)
            want, want_ticks = _ticks(certificate_oracles.is_fully_faithful, F)
            assert (got, ticks) == (want, want_ticks), (C.name, F.name)
            if got is not None:
                assert list(got) == list(want), (C.name, F.name)
            seen.add(got is None)
            if ticks:
                set_search_budget(ticks - 1)
                try:
                    with pytest.raises(SearchBudgetExceeded):
                        is_fully_faithful(F)
                finally:
                    set_search_budget(None)
    assert seen == {True, False}


def test_validating_and_completing_a_thin_category_takes_no_law_ticks():
    C = inflate(chain_poset(4), [3, 2, 2, 3])[0]
    cr = skeletize(C)
    # eta's full-and-faithful check ticks once per source morphism, and the
    # check of a certificate once per eso iso it inverts; nothing else does
    assert _ticks(core.check_category_tables, C) == (None, 0)
    assert _ticks(skeletize, C)[1] == C.n_morphisms
    assert _ticks(core.check_functor, cr.eta) == (None, 0)
    assert _ticks(check_weak_equivalence_cert, WeakEquivalenceCert(
        cr.eta, dict(cr.cert.ff_witness), tuple(cr.cert.eso_witness))) == (None, 4)


# ---------------------------------------------------------------------------
# witnesses outside the hom-sets they claim


def _doctored(cert: WeakEquivalenceCert, ff=None, eso=None) -> WeakEquivalenceCert:
    tables = {k: dict(v) for k, v in cert.ff_witness.items()}
    tables.update(ff or {})
    esos = list(cert.eso_witness)
    for y, entry in (eso or {}).items():
        esos[y] = entry
    return WeakEquivalenceCert(cert.functor, tables, tuple(esos))


def test_an_ff_witness_value_outside_its_hom_set_is_refused():
    C = inflate(chain_poset(2), [2, 1])[0]
    cert = skeletize(C).cert
    assert (C.mor_src[5], C.mor_dst[5]) == (1, 2) and cert.functor.mor_map[5] == 1
    for value in (5, -3, C.n_morphisms):
        with pytest.raises(InvalidCert, match=r"outside hom\(0,2\)"):
            check_weak_equivalence_cert(_doctored(cert, ff={(0, 2): {1: value}}))


def test_a_transfer_along_a_doctored_certificate_names_the_certificate():
    C = inflate(chain_poset(2), [1, 3])[0]
    cert = skeletize(C).cert
    pullbacks = limits.find_pullbacks(C)
    assert limits.transfer(limits.PULLBACKS, cert, pullbacks)
    with pytest.raises(InvalidCert, match=r"outside hom\(0,1\)"):
        limits.transfer(limits.PULLBACKS, _doctored(cert, ff={(0, 1): {1: 2}}), pullbacks)


def test_a_functor_that_is_not_faithful_has_no_certificate():
    # two parallel arrows sent to the one arrow of a chain
    C = fincat("pair", ["a", "b"], ["1a", "1b", "f", "g"], [0, 1, 0, 0], [0, 1, 1, 1], [0, 1], {})
    D = chain_poset(2)
    le = D.hom(0, 1)[0]
    F = functor(C, D, [0, 1], [D.identity[0], D.identity[1], le, le])
    assert is_weak_equivalence(F) is None
    ff = {(x, y): {F.mor_map[f]: f for f in C.hom(x, y)} for x in range(2) for y in range(2)}
    eso = tuple((y, Iso(D.identity[y], D.identity[y])) for y in range(2))
    with pytest.raises(InvalidCert, match=r"not faithful on hom\(0,1\)"):
        check_weak_equivalence_cert(WeakEquivalenceCert(F, ff, eso))


@pytest.mark.parametrize("iso", [Iso(-1, 2), Iso(3, 2)])
def test_an_eso_iso_out_of_range_is_refused(iso):
    cert = skeletize(inflate(chain_poset(2), [2, 1])[0]).cert
    with pytest.raises(InvalidCert, match="eso witness for object 1 is ill-typed"):
        check_weak_equivalence_cert(_doctored(cert, eso={1: (2, iso)}))


@pytest.mark.parametrize("x", [-1, 3])
def test_an_eso_object_out_of_range_is_refused(x):
    cert = skeletize(inflate(chain_poset(2), [2, 1])[0]).cert
    with pytest.raises(InvalidCert, match="eso witness for object 1 is ill-typed"):
        check_weak_equivalence_cert(_doctored(cert, eso={1: (x, cert.eso_witness[1][1])}))


@pytest.mark.parametrize("iso", [Iso(-1, 2), Iso(3, 2)])
def test_a_component_out_of_range_is_refused(iso):
    cr = skeletize(inflate(chain_poset(2), [2, 1])[0])
    D = cr.completed
    I = identity_functor(D)
    comps = (Iso(D.identity[0], D.identity[0]), iso)
    with pytest.raises(ComponentNotIso, match="component at c1 is not a morphism of the target"):
        check_nat_iso(NatIso(I, I, comps))
    # and through the public check of a factorization
    fac = factor_through(cr, cr.eta)
    alpha = fac.alpha
    comps = list(alpha.components)
    comps[0] = iso
    doctored = type(fac)(fac.functor, NatIso(alpha.source, alpha.target, tuple(comps)))
    with pytest.raises(InvalidFactorization, match="is not a morphism of the target"):
        check_factorization(cr, cr.eta, doctored)


# ---------------------------------------------------------------------------
# preservation of exponentials, once per distinct image


def test_preserves_exponentials_gives_the_key_walks_outcome():
    kinds = ("terminal", "products", "exponentials")
    shared, corrupted = 0, 0
    for infl, proj in _carry_corpus():
        if infl.down_sets is None:
            continue
        base = proj.target
        bags = {infl: find_bag(infl, kinds), base: find_bag(base, kinds)}
        for F in (proj, inflate_section(proj), _last_copies(proj)):
            src, dst = bags[F.source], bags[F.target]
            if "exponentials" not in src:
                continue
            targets = [dst]
            # the target table with one entry corrupted, as the reflected checks do
            D, exps = F.target, dst["exponentials"]
            key = sorted(exps)[len(exps) // 2]
            for _, w in _exp_corruptions(D, dst["products"], exps[key], _twins(D)):
                targets.append({**dst, "exponentials": {**exps, key: w}})
            for target in targets:
                got = _outcome(exponentials.preserves_exponentials, F, src, target)
                want = _outcome(certificate_oracles.preserves_exponentials, F, src, target)
                if isinstance(want, tuple):
                    assert got == want, (infl.name, F.name)
                    corrupted += 1
                else:
                    assert (got is None) == (want is None), (infl.name, F.name)
                    if got is not None:
                        assert got.comparison == want.comparison, (infl.name, F.name)
                        assert list(got.comparison) == list(want.comparison)
                        shared += len(set(got.comparison.values())) < len(got.comparison)
    assert shared > 0 and corrupted > 0
