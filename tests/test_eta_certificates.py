"""Eta's preservation certificates, and the carried bags: built by
construction on a gaunt completion, decided by one ``preserves`` call per
kind on eta everywhere else.

``complete_structured`` carries each bag found on the skeleton back to the
source along the inclusion of the representatives.  Where the skeleton is
gaunt, eta sends each eso iso to an identity, so every carried cone of a
table kind images onto the skeleton's chosen entry, and eta's certificate
for products, equalizers, pullbacks and exponentials is the identity at
each carried entry's apex image, built without a walk.  Every other
certificate comes from the kind's ``preserves`` on eta, which also decides
every carried entry; a refusal there is an engine bug, exit 4 in the CLI.
That ``preserves`` call is the oracle of the built certificates here.  The
carries' old re-validation along the inclusion's quasi-inverse is the
oracle in ``carry_oracles``: it must accept every carried bag and, where
eta equals that quasi-inverse, give eta's comparisons.
"""
import dataclasses
import itertools
import json

import pytest

import carry_oracles
from catkit import classifier, cli, exponentials, limits, nno
from catkit.completion import inflate, skeletize, skeleton_inclusion
from catkit.core import functors_equal
from catkit.errors import InvalidCert, OracleDisagreement
from catkit.generators import (
    chain_poset,
    delooping,
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    hvalued_sets,
    random_category,
)
from catkit.interchange import category_to_json
from catkit.lifting import KINDS, StructuredCompletion, complete_structured, factor_structured
from completion_helpers import cert_comparisons

# Z/3 with its unit listed last: eta equals the quasi-inverse, and some of
# the carried pullbacks image onto the chosen ones only up to an automorphism
Z3 = delooping([[1, 2, 0], [2, 0, 1], [0, 1, 2]], name="z3")
# a non-gaunt skeleton: inflating it gives an eta other than the quasi-inverse
HVALUED = skeletize(hvalued_sets(heyting_chain(2), max_carrier=2)).completed


def _inputs():
    return {
        "chain3": inflate(chain_poset(3), [2, 1, 2])[0],
        "chain4": inflate(chain_poset(4), [1, 2, 2, 3])[0],
        "diamond": inflate(heyting_category(heyting_diamond()), 2)[0],
        "finset3": inflate(finset_fragment(3), [1, 1, 2, 1])[0],
        "hvalued": inflate(HVALUED, [3, 2, 2])[0],
        "z3": inflate(Z3, 2)[0],
    }


def _eta_is_back(sc) -> bool:
    return functors_equal(sc.result.eta, skeleton_inclusion(sc.result).quasi_inverse)


# the kinds whose certificate for eta a gaunt completion builds without a walk
BUILT = {"products", "equalizers", "pullbacks", "exponentials"}


def _pipeline_inputs():
    """The structured-pipeline workload's five inputs."""
    diamond = heyting_category(heyting_diamond())
    return {f"{name}{copies}": inflate(base, copies)[0] for name, base, copies in (
        ("chain4", chain_poset(4), [3, 4, 4, 5]), ("chain4", chain_poset(4), [2, 3, 3, 3]),
        ("chain5", chain_poset(5), [1, 1, 2, 2, 2]), ("chain4", chain_poset(4), [1, 2, 2, 3]),
        ("diamond", diamond, [2, 2, 2, 2]))}


def _built(sc, kind) -> bool:
    """Whether complete_structured built eta's certificate for kind."""
    return kind in BUILT and sc.result.fidelity == "exact" and kind in sc.validated.found


def test_eta_certificates_equal_the_direct_decision():
    """Every certificate for eta, built or decided, equals the kind's own
    preserves on eta: its class, its comparisons, and whether its source
    and target are the carried and completed tables themselves."""
    non_identity, fallback, routes = set(), set(), set()
    for name, C in {**_corpus(), **_pipeline_inputs()}.items():
        sc = complete_structured(C)
        eta, D = sc.result.eta, sc.result.completed
        if not _eta_is_back(sc):
            fallback.add(name)
        for kind in sc.kinds:
            routes.add(_built(sc, kind))
            got, want = sc.eta_certs[kind], KINDS[kind].preserves(eta, sc.source, sc.completed)
            assert type(got) is type(want) and got.functor is eta, (name, kind)
            assert cert_comparisons(got) == cert_comparisons(want), (name, kind)
            for field, bag in (("source", sc.source), ("target", sc.completed)):
                if hasattr(want, field):
                    a, b = getattr(got, field), getattr(want, field)
                    assert (a is bag[kind], dict(a)) == (b is bag[kind], dict(b)), (name, kind)
            if any(not D.is_identity(fwd) for fwd, _ in cert_comparisons(got).values()):
                non_identity.add((name, _eta_is_back(sc)))
                assert sc.result.fidelity != "exact", (name, kind)
    assert routes == {True, False}
    assert fallback == {"hvalued"}
    # a comparison other than the identity, from the re-validation and from
    # the fallback
    assert ("z3", True) in non_identity and ("hvalued", False) in non_identity


def test_a_gaunt_completion_builds_the_table_certificates_and_decides_nothing_along_the_inclusion(
    monkeypatch,
):
    """On a gaunt skeleton, complete_structured makes no preserves call on
    eta for the four table kinds it found, at any depth; every other kind,
    and every kind of a non-gaunt or supplied completion, is decided by
    exactly one call of the kind's preserves on eta.  No certificate is
    decided along the inclusion, for found and supplied structure alike."""
    calls = []
    for name, kind in list(KINDS.items()):
        def counted(F, *args, _fn=kind.preserves, _name=name):
            calls.append((_name, F))
            return _fn(F, *args)

        monkeypatch.setitem(KINDS, name, dataclasses.replace(kind, preserves=counted))
    deciders = []   # what every preservation decision decides, and by which functor
    for module, verb, at in ((limits, "preserves", 1),
                             (exponentials, "preserves_exponentials", 0),
                             (nno, "preserves_pnno", 0),
                             (classifier, "preserves_subobject_classifier", 0)):
        def watched(*args, _fn=getattr(module, verb), _at=at, _verb=verb):
            what = args[0].name if _at else _verb
            deciders.append((what, args[_at]))
            return _fn(*args)

        monkeypatch.setattr(module, verb, watched)
    table_deciders = {limits.PRODUCTS.name, limits.EQUALIZERS.name, limits.PULLBACKS.name,
                      "preserves_exponentials"}
    routes = set()
    for name, C in _inputs().items():
        calls.clear()
        deciders.clear()
        sc = complete_structured(C)
        eta = sc.result.eta
        gaunt = sc.result.fidelity == "exact"
        routes.add(gaunt)
        decided = [kind for kind in sc.kinds if not (gaunt and kind in BUILT)]
        assert [kind for kind, F in calls if F is eta] == decided, name
        assert gaunt != any(what in table_deciders for what, F in deciders if F is eta), name
        calls.clear()
        given = complete_structured(C, witnesses=sc.source)
        assert given.kinds == sc.kinds, name
        assert [kind for kind, F in calls if F is given.result.eta] == list(sc.kinds), name
        for res in (sc.result, given.result):
            incl = skeleton_inclusion(res).functor
            assert not any(F is incl for _, F in deciders), name
    assert routes == {True, False}


def _corpus():
    out = {}
    for seed in range(40):
        C = random_category(seed)
        out[C.name] = inflate(C, [1 + (seed + i) % 2 for i in range(C.n_objects)])[0]
    return {**out, **_inputs()}


def test_the_carry_revalidation_oracle_accepts_every_carried_bag():
    """The old route, each carried bag pulled back along the quasi-inverse
    onto the skeleton's chosen entries, accepts every bag the completion
    carries, with eta's comparisons wherever eta is that quasi-inverse."""
    agreed = set()
    for name, C in _corpus().items():
        sc = complete_structured(C)
        back = carry_oracles.revalidate_carried(sc)
        assert set(back) == set(sc.kinds) - {"classifier"}, name
        if _eta_is_back(sc):
            for kind, cert in back.items():
                assert cert_comparisons(cert) == cert_comparisons(sc.eta_certs[kind]), (name, kind)
                agreed.add(kind)
    assert agreed == set(KINDS) - {"classifier"}


def _not_a_limit(shape, C, key):
    """A typed cone over key whose legs commute but which is not a limit,
    or None."""
    feet = shape.feet(C, key)
    for apex in range(C.n_objects):
        for legs in itertools.product(*[C.hom(apex, x) for x in feet]):
            if shape.commutes is None or shape.commutes(C, key, legs):
                w = shape.witness(*key, apex, *legs)
                if not shape.is_limit(C, w):
                    return w
    return None


def test_a_hand_built_bag_check_names_the_first_offending_key_as_the_old_route_did():
    """Two corrupted entries, one a typed cone that is not a limit and one
    typed wrongly, in either order, in the source bag of a completion built
    by hand: factor_structured's check of that bag names the same first
    offending key as the old route's single loop."""
    n = 0
    for seed in range(0, 40, 4):
        C, proj = inflate(random_category(seed), 2)
        sc = complete_structured(C)
        for name, shape in carry_oracles.SHAPES.items():
            if name not in sc.kinds or not shape.n_key:
                continue
            table, known = sc.source[name], sc.completed[name]
            keys = sorted(table)
            for a, b in ((keys[0], keys[-1]), (keys[-1], keys[0])):
                bad = _not_a_limit(shape, C, a)
                if bad is None or a == b:
                    continue
                key, apex, legs = shape.split(table[b])
                corrupted = {**table, a: bad, b: shape.witness(*key, -1, *legs)}
                by_hand = StructuredCompletion(
                    sc.result, sc.kinds, {**sc.source, name: corrupted}, sc.completed,
                    sc.eta_certs,
                )
                with pytest.raises(InvalidCert) as got:
                    factor_structured(by_hand, proj)
                with pytest.raises(InvalidCert) as want:
                    carry_oracles.table_along(shape, sc.result.eta, corrupted, known)
                assert str(got.value) == str(want.value), (C.name, name, a, b)
                n += 1
    assert n


def _corrupting(monkeypatch, shape):
    """Install a carry that moves the first carried entry of shape that can
    be moved to a typed cone that is not a limit; returns the keys moved."""
    real = limits.carry
    moved = []

    def corrupted(sh, cert, table):
        out = real(sh, cert, table)
        if sh is shape:
            for key in sorted(out):
                bad = _not_a_limit(shape, cert.functor.target, key)
                if bad is not None:
                    moved.append(key)
                    return {**out, key: bad}
        return out

    monkeypatch.setattr(limits, "carry", corrupted)
    return moved


def test_a_corrupted_carry_ends_in_exit_4(monkeypatch, tmp_path, capsys):
    """A carry that moves one carried equalizer of a non-gaunt completion to
    a typed cone that is not an equalizer is refused by eta's preservation
    check, as an engine bug: in complete_structured, and in ``catkit
    factor``, which runs it.  ``catkit complete`` carries nothing, so the
    target and eta it writes are made before the carry is corrupted."""
    C = inflate(finset_fragment(3), [1, 1, 2, 1])[0]
    path, target, eta = (tmp_path / name for name in ("finset3.json", "done.json", "eta.json"))
    path.write_text(json.dumps(category_to_json(C)))
    assert cli.main(["complete", str(path), "--carry-structure", "--out", str(target)]) == 0
    eta.write_text(json.dumps(json.loads(target.read_text())["eta"]))
    capsys.readouterr()
    moved = _corrupting(monkeypatch, limits.EQUALIZERS)
    with pytest.raises(OracleDisagreement, match="eta does not preserve the carried 'equalizers'"):
        complete_structured(C)
    assert moved
    argv = ["factor", "--source", str(path), "--functor", str(eta), "--target", str(target),
            "--structures", "terminal,equalizers"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "error [OracleDisagreement]" in err
    assert "eta does not preserve the carried 'equalizers'" in err


def test_a_gaunt_completion_trusts_its_carry_and_the_direct_decision_refuses_a_corrupted_one(
    monkeypatch,
):
    """On a gaunt skeleton eta's certificate is built, not decided, so a
    corrupted products carry is not refused by complete_structured; the
    kind's preserves on eta, the built certificate's oracle, refuses it."""
    C = inflate(chain_poset(3), [1, 2, 2])[0]
    moved = _corrupting(monkeypatch, limits.PRODUCTS)
    sc = complete_structured(C)
    assert moved and sc.result.fidelity == "exact"
    assert KINDS["products"].preserves(sc.result.eta, sc.source, sc.completed) is None
