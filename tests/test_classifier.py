"""Monomorphisms, subobject classifiers, topos bundles, logical functors."""
import dataclasses
import hashlib
import json

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from catkit import classifier
from catkit.classifier import (
    assemble_topos,
    check_subobject_classifier,
    find_subobject_classifier,
    is_logical_functor,
    is_mono,
    is_subobject_classifier,
    lift_preservation_subobject_classifier,
    monos,
    preserves_subobject_classifier,
    subobject_classifier_cert,
    topos_gaps,
    transfer_subobject_classifier,
)
from catkit.completion import factor_through, inflate, inflate_section, skeletize
from catkit.core import find_iso, functor, is_weak_equivalence
from catkit.errors import InvalidCert
from catkit.generators import (
    chain_poset,
    delooping,
    finset_fragment,
    finset_function,
    heyting_chain,
    heyting_category,
    random_category,
    random_weak_equivalence,
    setoid_groupoid,
)
from catkit.lifting import complete_structured, find_bag
from catkit.limits import PullbackW, find_terminal, is_pullback, is_terminal, transfer_terminal
from classifier_oracles import mono_by_cancellation, mono_by_pullback

seeds = st.integers(min_value=0, max_value=119)


def _codiscrete(n):
    return setoid_groupoid(n, {(i, i + 1) for i in range(n - 1)}, name=f"codisc{n}")


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_mono_characterizations_agree(seed):
    C = random_category(seed)
    for f in range(C.n_morphisms):
        assert mono_by_cancellation(C, f) == mono_by_pullback(C, f)
        cert = is_mono(C, f)
        assert (cert is not None) == mono_by_cancellation(C, f)
        if cert is not None:
            x = C.mor_src[f]
            assert cert == PullbackW(f, f, x, C.identity[x], C.identity[x])
            assert is_pullback(C, cert)


def test_every_poset_morphism_is_monic():
    C = chain_poset(4)
    assert monos(C) == list(range(C.n_morphisms))


def test_isos_are_monic_nonmonos_exist_in_fragment():
    C = finset_fragment(2)
    const0 = finset_function(C, 2, 2, (0, 0))
    bang = finset_function(C, 2, 1, (0, 0))
    assert is_mono(C, const0) is None
    assert is_mono(C, bang) is None
    swap = finset_function(C, 2, 2, (1, 0))
    assert is_mono(C, swap) is not None
    assert len(monos(C)) == 8


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_weak_equivalences_preserve_and_reflect_monos(seed):
    F = random_weak_equivalence(seed)
    C, D = F.source, F.target
    for f in range(C.n_morphisms):
        assert (is_mono(C, f) is None) == (is_mono(D, F.mor_map[f]) is None)


def test_fragment_classifier_is_two_with_true_point():
    C = finset_fragment(2)
    term = find_terminal(C)
    soc = find_subobject_classifier(C, {"terminal": term})
    assert soc is not None
    p0 = finset_function(C, 1, 2, (0,))
    p1 = finset_function(C, 1, 2, (1,))
    swap = finset_function(C, 2, 2, (1, 0))
    const0 = finset_function(C, 2, 2, (0, 0))
    const1 = finset_function(C, 2, 2, (1, 1))
    assert soc.omega == 2
    assert soc.tau == p0
    e01 = C.hom(0, 1)[0]
    e02 = C.hom(0, 2)[0]
    expected = {
        C.identity[0]: C.hom(0, 2)[0],
        e01: p1,
        e02: const1,
        C.identity[1]: p0,
        p0: C.identity[2],
        p1: swap,
        C.identity[2]: const0,
        swap: const0,
    }
    assert soc.chi == expected
    check_subobject_classifier(C, {"terminal": term, "classifier": soc})


def test_find_builds_the_mono_list_once(monkeypatch):
    # finset_fragment(2) rejects the candidate (1, id_1) before it finds
    # (2, p0); both candidates share one mono list
    C = finset_fragment(2)
    calls = []
    real = classifier.is_mono

    def counted(C, f):
        calls.append(f)
        return real(C, f)

    monkeypatch.setattr(classifier, "is_mono", counted)
    assert find_subobject_classifier(C, {"terminal": find_terminal(C)}) is not None
    assert len(calls) == C.n_morphisms


def test_fragment_small_omega_rejected():
    # the terminal object itself cannot classify: 1 has two subobjects
    C = finset_fragment(2)
    term = find_terminal(C)
    assert is_subobject_classifier(C, term, 1, C.identity[1]) is None


def test_classifiers_unique_up_to_truth_compatible_iso():
    # the fragment admits two truth arrows on the same omega; chi of one
    # against the other gives inverse isos exchanging them
    C = finset_fragment(2)
    term = find_terminal(C)
    p0 = finset_function(C, 1, 2, (0,))
    p1 = finset_function(C, 1, 2, (1,))
    soc1 = is_subobject_classifier(C, term, 2, p0)
    soc2 = is_subobject_classifier(C, term, 2, p1)
    assert soc1 is not None and soc2 is not None
    u = soc1.chi[soc2.tau]
    v = soc2.chi[soc1.tau]
    assert C.compose(u, v) == C.identity[2]
    assert C.compose(v, u) == C.identity[2]
    assert C.compose(soc2.tau, u) == soc1.tau
    assert C.compose(soc1.tau, v) == soc2.tau


def test_nontrivial_posets_have_no_classifier():
    for C in (chain_poset(2), chain_poset(3), heyting_category(heyting_chain(3))):
        term = find_terminal(C)
        assert find_subobject_classifier(C, {"terminal": term}) is None


def test_codiscrete_groupoids_are_degenerate_topoi():
    S = _codiscrete(3)
    term = find_terminal(S)
    soc = find_subobject_classifier(S, {"terminal": term})
    assert soc is not None
    # all monos collapse to the single degenerate subobject
    assert set(soc.chi) == set(monos(S))
    T = assemble_topos(S)
    assert T is not None
    assert topos_gaps(S) == []


def test_cert_rejects_non_point_truth():
    C = finset_fragment(2)
    term = find_terminal(C)
    swap = finset_function(C, 2, 2, (1, 0))
    with pytest.raises(InvalidCert):
        subobject_classifier_cert(C, term, 2, swap)


def test_topos_gaps_names_first_missing_pieces():
    assert topos_gaps(heyting_category(heyting_chain(3))) == ["subobject classifier"]
    assert "binary products" in topos_gaps(finset_fragment(2))
    assert assemble_topos(finset_fragment(2)) is None
    # the walking idempotent has no terminal at all
    M = delooping([[0, 1], [1, 1]])
    assert topos_gaps(M)[0] == "terminal"


# sha1 of json.dumps of topos_gaps over random_category(0..39), recorded
# before the gap lists were derived from the registry's dependencies
GAPS_SHA1 = "eee0529686344f3314029e03aff3d06490d3ee9f"


def test_topos_gaps_match_the_recorded_lists():
    lists = [topos_gaps(random_category(seed)) for seed in range(40)]
    assert hashlib.sha1(json.dumps(lists).encode()).hexdigest() == GAPS_SHA1
    distinct = {json.dumps(gaps) for gaps in lists}
    assert len(distinct) == 8 and "[]" in distinct
    joined = "".join(distinct)
    assert "(products missing)" in joined and "(terminal missing)" in joined
    assert topos_gaps(finset_fragment(2)) == [
        "binary products", "pullbacks", "exponentials (products missing)",
    ]
    assert topos_gaps(delooping([[0, 1], [1, 1]])) == [
        "terminal", "binary products", "equalizers", "pullbacks",
        "exponentials (products missing)", "subobject classifier (terminal missing)",
    ]


def test_transfer_classifier_matches_direct_search():
    S = _codiscrete(3)
    infl, proj = inflate(S, [2, 1, 2])
    cert = is_weak_equivalence(inflate_section(proj))
    src = {"terminal": find_terminal(S)}
    src["classifier"] = find_subobject_classifier(S, src)
    dst = {"terminal": transfer_terminal(cert, src["terminal"])}
    dst["classifier"] = transfer_subobject_classifier(cert, src, dst)
    check_subobject_classifier(infl, dst)
    pres = preserves_subobject_classifier(cert.functor, src, dst)
    assert pres.functor is cert.functor
    assert find_iso(infl, pres.comparison.fwd) is not None


def test_preserves_classifier_identity():
    S = _codiscrete(2)
    bag = {"terminal": find_terminal(S)}
    bag["classifier"] = find_subobject_classifier(S, bag)
    from catkit.core import identity_functor

    pres = preserves_subobject_classifier(identity_functor(S), bag, bag)
    assert pres is not None
    assert S.is_identity(pres.comparison.fwd)


def test_preserves_classifier_is_none_for_a_functor_off_the_terminal():
    """A functor that does not preserve the terminal does not preserve the
    classifier: None, as preserves_pnno answers, not an exception."""
    C = finset_fragment(2)
    bag = find_bag(C, ("terminal", "classifier"))
    assert not is_terminal(C, 0)
    const = functor(C, C, [0] * C.n_objects, [C.identity[0]] * C.n_morphisms)
    assert preserves_subobject_classifier(const, bag, bag) is None
    # the terminal is decided first, so an out-of-range witness changes nothing
    bad = dataclasses.replace(bag["classifier"], tau=-1)
    assert preserves_subobject_classifier(const, {**bag, "classifier": bad}, bag) is None


def test_preserves_classifier_refuses_a_source_witness_out_of_range():
    """A tau of -1 would read the last morphism, and one past the end raise
    IndexError; omega and the chi table, which the comparison does not
    read, are refused out of range as well."""
    C = inflate(setoid_groupoid(2, {(0, 1)}), [2, 1])[0]
    sc = complete_structured(C)
    w, n, m = sc.source["classifier"], C.n_objects, C.n_morphisms
    f, chi_f = next(iter(w.chi.items()))
    for bad in (dataclasses.replace(w, tau=-1), dataclasses.replace(w, tau=m),
                dataclasses.replace(w, omega=-1), dataclasses.replace(w, omega=n),
                dataclasses.replace(w, chi={**w.chi, -1: chi_f}),
                dataclasses.replace(w, chi={**w.chi, f: m})):
        with pytest.raises(InvalidCert, match="source classifier witness .* is out of range"):
            preserves_subobject_classifier(
                sc.result.eta, {**sc.source, "classifier": bad}, sc.completed
            )
    assert preserves_subobject_classifier(sc.result.eta, sc.source, sc.completed) is not None


def test_lift_preservation_classifier_through_completion():
    S = _codiscrete(3)
    infl, proj = inflate(S, [2, 2, 1])
    res = skeletize(infl)
    # the factorization target is the codiscrete base, which is not gaunt
    with pytest.warns(UserWarning, match="not gaunt"):
        fac = factor_through(res, proj)
    src = {"terminal": find_terminal(infl)}
    src["classifier"] = find_subobject_classifier(infl, src)
    dst = {"terminal": find_terminal(S)}
    dst["classifier"] = find_subobject_classifier(S, dst)
    assert preserves_subobject_classifier(proj, src, dst) is not None
    carried = {"terminal": transfer_terminal(res.cert, src["terminal"])}
    carried["classifier"] = transfer_subobject_classifier(res.cert, src, carried)
    lifted = lift_preservation_subobject_classifier(
        res.cert, proj, fac.functor, fac.alpha, carried, dst
    )
    assert lifted.functor is fac.functor


def test_logical_functor_between_degenerate_topoi():
    S = _codiscrete(2)
    T = assemble_topos(S)
    assert T is not None
    from catkit.core import identity_functor

    cert = is_logical_functor(identity_functor(S), T, T)
    assert cert is not None
    assert cert["classifier"] is not None
