"""Carried witnesses are decided through eta on the skeleton.

The structured pipeline must not fall back to brute force on the source:
each kind's ``preserves`` on eta compares every carried entry's image with
the skeleton's chosen entry, and the parameterized N's decides an image
other than the chosen triple by its comparison alone.  A completion built by
hand is checked by each kind's brute-force ``check`` instead
(``tests/test_validated_bags.py``).  The corruptions here also serve the
oracle parity tests of ``tests/test_limit_oracles.py``.
"""
import dataclasses
import sys

import pytest

from catkit import exponentials, limits, nno
from catkit.completion import inflate, inflate_section
from catkit.core import OBJECT, is_weak_equivalence
from catkit.errors import PreconditionViolation
from catkit.generators import chain_poset
from catkit.lifting import KINDS, complete_structured, factor_structured, find_bag

CHECKERS = (
    "is_binary_product", "is_equalizer", "is_pullback", "is_terminal", "is_exponential", "is_pnno",
    "_exponential_universal",
)
CHECKER_MODULES = {   # the rest are in limits
    "is_exponential": exponentials, "_exponential_universal": exponentials, "is_pnno": nno,
}


def _twins(C):
    """For each object, the isos out of it into another object."""
    out = {x: [] for x in range(C.n_objects)}
    for f in range(C.n_morphisms):
        x, y = C.mor_src[f], C.mor_dst[f]
        if x != y and any(C.compose(f, g) == C.identity[x] for g in C.hom(y, x)):
            out[x].append(f)
    return out


def _limit_corruptions(shape, C, w, twins):
    """Corrupted copies of the table entry w, each named by how."""
    k = shape.n_key
    key, apex, legs = shape.split(w)
    feet = shape.feet(C, key)
    out = []
    for other in range(C.n_objects):
        if other != apex:
            for new_legs in _typed_legs(C, other, feet)[:2]:
                out.append(("apex swapped", shape.witness(*key, other, *new_legs)))
            break
    for new_legs in _typed_legs(C, apex, feet)[:3]:
        if new_legs != legs:
            out.append(("legs redrawn", shape.witness(*key, apex, *new_legs)))
    for i, p in enumerate(legs):
        for iso in twins[C.mor_dst[p]][:1]:
            bent = legs[:i] + (C.compose(p, iso),) + legs[i + 1:]
            out.append(("leg into a twin", shape.witness(*key, apex, *bent)))
    if k:
        swapped = (key[1], key[0])
        if swapped != key:
            out.append(("key mismatch", shape.witness(*swapped, apex, *legs)))
    bounds = [C.n_objects if ref == OBJECT else C.n_morphisms for _, ref in shape.fields]
    for i in range(k, len(w)):
        for bad in (-1, bounds[i]):
            out.append(("field out of range", shape.witness(*w[:i], bad, *w[i + 1:])))
    return out


def _typed_legs(C, apex, feet):
    legs = [()]
    for x in feet:
        legs = [ls + (p,) for ls in legs for p in C.hom(apex, x)]
    return legs


def _exp_corruptions(C, prods, w, twins):
    out = []
    for obj in range(C.n_objects):
        if obj != w.obj:
            for ev in C.hom(prods[(obj, w.x)].apex, w.y)[:2]:
                out.append(("apex swapped", exponentials.ExponentialW(w.x, w.y, obj, ev)))
            break
    for ev in C.hom(prods[(w.obj, w.x)].apex, w.y)[:3]:
        if ev != w.ev:
            out.append(("legs redrawn", w._replace(ev=ev)))
    for iso in twins[w.y][:1]:
        out.append(("leg into a twin", w._replace(ev=C.compose(w.ev, iso))))
    if w.x != w.y:
        out.append(("key mismatch", w._replace(x=w.y, y=w.x)))
    for bad in (-1, C.n_morphisms):
        out.append(("field out of range", w._replace(ev=bad)))
    for bad in (-1, C.n_objects):
        out.append(("field out of range", w._replace(obj=bad)))
    return out


def _sample(table) -> list:
    """About ten keys spread over the table: each corruption re-checks it whole."""
    keys = sorted(table)
    return keys[:: max(1, len(keys) // 10)]


def test_pipeline_runs_no_brute_force_check_on_the_source(monkeypatch):
    C, proj = inflate(chain_poset(4), [1, 2, 2, 3])
    calls = []
    real = {name: getattr(CHECKER_MODULES.get(name, limits), name) for name in CHECKERS}
    for mod in [m for n, m in sys.modules.items() if n == "catkit" or n.startswith("catkit.")]:
        for attr, value in list(vars(mod).items()):
            for name, fn in real.items():
                if value is fn:
                    def wrapped(cat, *args, _fn=fn, _name=name):
                        calls.append((_name, cat))
                        return _fn(cat, *args)
                    monkeypatch.setattr(mod, attr, wrapped)
    sc = complete_structured(C)
    factor_structured(sc, proj)
    assert set(sc.kinds) >= {"terminal", "products", "equalizers", "pullbacks", "exponentials"}
    assert [name for name, cat in calls if cat is C] == []
    # the wrappers do see the checks: each kind's check on the skeleton runs
    # them there, the exponentials' their universal-property loop, not
    # is_exponential
    D = sc.result.completed
    calls.clear()
    for name in sc.kinds:
        KINDS[name].check(D, sc.completed)
    assert {name for name, cat in calls if cat is D} == set(CHECKERS) - {"is_exponential"}


def _moved_along(C, w, i):
    """The parameterized-N witness w carried along the iso i out of its N."""
    j = next(g for g in C.hom(C.mor_dst[i], w.N) if C.compose(i, g) == C.identity[w.N])
    return nno.PNNOW(C.mor_dst[i], C.compose(w.z, i), C.compose_many(j, w.s, i))


def test_preserves_pnno_decides_an_image_other_than_the_chosen_one_on_the_target(monkeypatch):
    """Along a section into an inflation, the image of the chosen triple
    lands on one copy of N while the target's witness sits on another:
    preserves_pnno decides the image by its comparison with the chosen
    witness alone, an iso that is not the identity, and is_pnno does not
    run."""
    S = chain_poset(3)
    infl, proj = inflate(S, [1, 1, 2])
    F = inflate_section(proj)
    assert is_weak_equivalence(F) is not None
    src = find_bag(S, ("terminal", "products", "pnno"))
    dst = find_bag(infl, ("terminal", "products", "pnno"))
    dst["pnno"] = _moved_along(infl, dst["pnno"], _twins(infl)[dst["pnno"].N][0])
    calls = []
    real = nno.is_pnno
    monkeypatch.setattr(nno, "is_pnno", lambda C, *args: calls.append(C) or real(C, *args))
    cert = nno.preserves_pnno(F, src, dst)
    assert calls == []
    assert cert is not None and not infl.is_identity(cert.comparison.fwd)


def test_a_supplied_twin_pnno_is_checked_once_on_the_source(monkeypatch):
    """A supplied parameterized N on a twin of the chosen N is brute-forced
    by check_pnno on the source, in its transfer along eta, and only there:
    eta's preserves_pnno then decides the carried image by its comparison."""
    C, _ = inflate(chain_poset(3), [1, 1, 3])
    sc = complete_structured(C)
    twin = _moved_along(C, sc.source["pnno"], _twins(C)[sc.source["pnno"].N][0])
    assert twin != sc.source["pnno"]
    calls = []
    real = nno.is_pnno
    monkeypatch.setattr(nno, "is_pnno", lambda D, *args: calls.append(D) or real(D, *args))
    given = complete_structured(C, witnesses={**sc.source, "pnno": twin})
    assert given.source["pnno"] == twin
    assert [D for D in calls if D is C] == [C]


def test_factor_structured_checks_that_eta_runs_from_the_source():
    C, proj = inflate(chain_poset(3), [2, 1, 2])
    sc = complete_structured(C, kinds=("terminal",))
    other = complete_structured(inflate(chain_poset(3), [1, 2, 2])[0], kinds=("terminal",))
    doctored = dataclasses.replace(
        sc, result=dataclasses.replace(sc.result, cert=other.result.cert)
    )
    with pytest.raises(PreconditionViolation, match="eta's certificate"):
        factor_structured(doctored, proj)
