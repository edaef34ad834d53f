"""Carried witnesses are checked through eta on the skeleton.

The reflected checks (``limits.check_table_along``,
``exponentials.check_exponentials_along`` and ``nno.check_pnno_along``)
must give the brute-force verdict of ``check_table``/``check_exponentials``/
``check_pnno`` on the source, and the structured pipeline must not fall back
to brute force on the source.
"""
import dataclasses
import sys

import pytest

from catkit import exponentials, limits, nno
from catkit.completion import inflate, inflate_section
from catkit.core import is_weak_equivalence
from catkit.errors import InvalidCert, PreconditionViolation
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_category,
    heyting_diamond,
    random_category,
    setoid_groupoid,
)
from catkit.lifting import complete_structured, factor_structured, find_bag

CHECKERS = (
    "is_binary_product", "is_equalizer", "is_pullback", "is_terminal", "is_exponential", "is_pnno",
    "_exponential_universal",
)
CHECKER_MODULES = {   # the rest are in limits
    "is_exponential": exponentials, "_exponential_universal": exponentials, "is_pnno": nno,
}


def _corpus():
    out = []
    for seed in range(40):
        C = random_category(seed)
        out.append(inflate(C, [1 + (seed + i) % 2 for i in range(C.n_objects)])[0])
    out.append(inflate(heyting_category(heyting_diamond()), 2)[0])
    # hom-sets with more than one arrow, so that legs can be redrawn
    out.append(inflate(finset_fragment(2), [1, 2, 2])[0])
    return out


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
    bounds = [C.n_objects if is_obj else C.n_morphisms for _, is_obj in shape.field_kinds]
    v = shape.unpack(w)
    for i in range(k, len(v)):
        for bad in (-1, bounds[i]):
            out.append(("field out of range", shape.witness(*v[:i], bad, *v[i + 1:])))
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
            out.append(("legs redrawn", dataclasses.replace(w, ev=ev)))
    for iso in twins[w.y][:1]:
        out.append(("leg into a twin", dataclasses.replace(w, ev=C.compose(w.ev, iso))))
    if w.x != w.y:
        out.append(("key mismatch", dataclasses.replace(w, x=w.y, y=w.x)))
    for bad in (-1, C.n_morphisms):
        out.append(("field out of range", dataclasses.replace(w, ev=bad)))
    for bad in (-1, C.n_objects):
        out.append(("field out of range", dataclasses.replace(w, obj=bad)))
    return out


def _sample(table) -> list:
    """About ten keys spread over the table: each corruption re-checks it whole."""
    keys = sorted(table)
    return keys[:: max(1, len(keys) // 10)]


def _verdict(check, *args) -> bool:
    try:
        check(*args)
    except InvalidCert:
        return False
    return True


SHAPES = {
    "terminal": limits.TERMINAL,
    "products": limits.PRODUCTS,
    "equalizers": limits.EQUALIZERS,
    "pullbacks": limits.PULLBACKS,
}


def _table(shape, entry):
    """A bag entry as a table; the terminal's entry is its one witness."""
    return entry if shape.n_key else {(): entry}


def _entry_ok(shape, C, key, w) -> bool:
    """The verdict check_table gives on a table whose entries other than
    the one at key pass it."""
    return shape.unpack(w)[: shape.n_key] == key and shape.is_limit(C, w)


def test_reflected_checks_agree_with_brute_force_on_corrupted_tables():
    seen: dict[str, set[tuple[str, bool]]] = {}
    for C in _corpus():
        sc = complete_structured(C)
        eta = sc.result.cert.functor
        twins = _twins(C)
        for name, shape in SHAPES.items():
            if name not in sc.kinds:
                continue
            table, known = _table(shape, sc.source[name]), _table(shape, sc.completed[name])
            limits.check_table(shape, C, table)
            for key in _sample(table):
                for how, bad in _limit_corruptions(shape, C, table[key], twins):
                    corrupted = {**table, key: bad}
                    want = _entry_ok(shape, C, key, bad)
                    got = _verdict(
                        limits.check_table_along, shape, eta, corrupted, known
                    )
                    assert got == want, (C.name, name, key, how, bad)
                    seen.setdefault(name, set()).add((how, want))
        if "exponentials" in sc.kinds:
            exps, prods = sc.source["exponentials"], sc.source["products"]
            exponentials.check_exponentials(C, sc.source)
            for key in _sample(exps):
                for how, bad in _exp_corruptions(C, prods, exps[key], twins):
                    src = {**sc.source, "exponentials": {**exps, key: bad}}
                    want = (bad.x, bad.y) == key and exponentials.is_exponential(C, prods, bad)
                    got = _verdict(exponentials.check_exponentials_along, eta, src, sc.completed)
                    assert got == want, (C.name, key, how, bad)
                    seen.setdefault("exponentials", set()).add((how, want))
    # each corruption is met, with both verdicts where both can occur
    every = {
        ("apex swapped", True), ("apex swapped", False), ("leg into a twin", False),
        ("key mismatch", False), ("field out of range", False),
    }
    redrawn = {("legs redrawn", True), ("legs redrawn", False)}
    for name in ("equalizers", "pullbacks"):
        assert every | redrawn <= seen[name], name
    # a finite category with binary products is thin (hom(z, x^n) would have
    # |hom(z, x)|^n arrows for every n), so product and exponential legs
    # have no other choice to be redrawn to
    for name in ("products", "exponentials"):
        assert every <= seen[name], name
    terminal = {("apex swapped", True), ("apex swapped", False), ("field out of range", False)}
    assert terminal <= seen["terminal"]


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
    # the wrappers do see the checks, made on the skeleton; the exponentials'
    # entry check there runs their universal-property loop, not is_exponential
    assert {name for name, cat in calls if cat is sc.result.completed} == set(CHECKERS) - {
        "is_exponential"
    }


def _pnno_corruptions(C, term, w, twins):
    """Corrupted copies of the parameterized-N witness w, each named by how,
    and the witness moved onto an isomorphic twin of N, which is one too."""
    out = []
    src, dst = C.mor_src, C.mor_dst
    for z in [f for f in C.out_of[term.t] if dst[f] != w.N][:2]:
        out.append(("wrong z", dataclasses.replace(w, z=z)))
    for s in [f for f in C.out_of[w.N] if dst[f] != w.N][:2]:
        out.append(("s not an endomorphism of N", dataclasses.replace(w, s=s)))
    for bad in (-1, C.n_objects):
        out.append(("N out of range", dataclasses.replace(w, N=bad)))
    for z in [f for f in range(C.n_morphisms) if dst[f] == w.N and src[f] != term.t][:2]:
        out.append(("z not out of the terminal", dataclasses.replace(w, z=z)))
    for i in twins[w.N][:1]:
        out.append(("isomorphic twin of N", _moved_along(C, w, i)))
    return out


def _moved_along(C, w, i):
    """The parameterized-N witness w carried along the iso i out of its N."""
    j = next(g for g in C.hom(C.mor_dst[i], w.N) if C.compose(i, g) == C.identity[w.N])
    return nno.PNNOW(C.mor_dst[i], C.compose(w.z, i), C.compose_many(j, w.s, i))


def test_reflected_pnno_check_agrees_with_brute_force_on_corrupted_witnesses():
    codiscrete = setoid_groupoid(3, {(0, 1), (1, 2)}, name="codisc3")
    inputs = [
        inflate(chain_poset(3), [1, 2, 3])[0],
        inflate(heyting_category(heyting_diamond()), 2)[0],
        inflate(codiscrete, [2, 1, 2])[0],
    ] + [inflate(random_category(seed), 2)[0] for seed in (2, 4, 15)]
    seen = set()
    for C in inputs:
        sc = complete_structured(C)
        assert "pnno" in sc.kinds, C.name
        eta = sc.result.cert.functor
        term, prods = sc.source["terminal"], sc.source["products"]
        nno.check_pnno(C, sc.source)
        for how, bad in _pnno_corruptions(C, term, sc.source["pnno"], _twins(C)):
            want = nno.is_pnno(C, term, prods, bad.N, bad.z, bad.s) is not None
            got = _verdict(nno.check_pnno_along, eta, {**sc.source, "pnno": bad}, sc.completed)
            assert got == want, (C.name, how, bad)
            seen.add((how, want))
    assert seen == {
        ("wrong z", False), ("s not an endomorphism of N", False), ("N out of range", False),
        ("z not out of the terminal", False), ("isomorphic twin of N", True),
    }


def test_reflected_pnno_check_decides_an_image_other_than_the_chosen_one_on_the_target(
    monkeypatch,
):
    """Along a section into an inflation, the image of the chosen triple
    lands on one copy of N while the target's witness sits on another: the
    image is decided by its comparison with the chosen witness alone, an
    iso that is not the identity, and is_pnno does not run."""
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
    cert = nno.check_pnno_along(F, src, dst)
    assert calls == []
    assert not infl.is_identity(cert.comparison.fwd)
    assert cert.comparison == nno.preserves_pnno(F, src, dst, {}).comparison


def test_a_supplied_twin_pnno_is_checked_once_on_the_source(monkeypatch):
    """A supplied parameterized N on a twin of the chosen N is brute-forced
    by check_pnno on the source, and only there: the carry's re-validation
    decides the image by its comparison."""
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
