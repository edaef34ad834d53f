"""Factoring a completion's own unit decides nothing twice.

Into a target with the completion's tables, ``factor_structured`` takes the
entries the completion found instead of searching again, and, for a functor
with eta's maps, eta's certificates instead of deciding again.  What it
takes must equal a fresh search and a fresh decision, and be the
completion's own read-only objects; every other case, a completion that no
longer holds its record among them, must take the fresh route: a search or
check on the target, then ``preserves``.  With a terminal object and no
products, pullbacks are refuted without a search.
"""
import dataclasses

import pytest

from catkit import core, limits
from catkit.completion import inflate, skeletize
from catkit.core import Functor, compose_functors, functor, identity_functor, iso_between
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    hvalued_sets,
    random_category,
    setoid_groupoid,
)
from catkit.interchange import structure_to_json
from catkit.lifting import KIND_ORDER, KINDS, complete_structured, factor_structured, find_bag
from catkit.errors import CatkitError
from catkit.exponentials import find_exponentials
from catkit.limits import PULLBACKS, BinProductW, find_binary_products
from completion_helpers import cert_comparisons, twisted_equalizers

pytestmark = pytest.mark.filterwarnings("ignore:target")


def _two_copies_of_odd_objects(C):
    return inflate(C, [1 + x % 2 for x in range(C.n_objects)])[0]


INFLATIONS = {
    "chain4": inflate(chain_poset(4), [1, 2, 2, 3])[0],
    "diamond": inflate(heyting_category(heyting_diamond()), 2)[0],
    "codiscrete3": inflate(setoid_groupoid(3, {(0, 1), (1, 2)}), [2, 1, 2])[0],
    "finset2": inflate(finset_fragment(2), [1, 1, 2])[0],
}


def _inputs():
    for seed in range(40):
        C = random_category(seed)
        yield f"random{seed}", C
        yield f"random{seed}-inflated", _two_copies_of_odd_objects(C)
    yield from INFLATIONS.items()


def _spy(monkeypatch) -> list:
    """Wrap each kind's find and preserves in the registry; the calls are
    recorded as (verb, kind, category searched or functor decided)."""
    calls = []
    for name, kind in list(KINDS.items()):
        def find(C, bag, _fn=kind.find, _name=name):
            calls.append(("find", _name, C))
            return _fn(C, bag)

        def preserves(F, src, dst, _fn=kind.preserves, _name=name):
            calls.append(("preserves", _name, F))
            return _fn(F, src, dst)

        monkeypatch.setitem(KINDS, name, dataclasses.replace(kind, find=find, preserves=preserves))
    return calls


def _fresh_route(calls, F) -> tuple[list, list]:
    """The kinds searched for on F's target and the kinds decided for F."""
    return ([k for verb, k, x in calls if verb == "find" and x is F.target],
            [k for verb, k, x in calls if verb == "preserves" and x is F])


def _unit_into(sc, E) -> Functor:
    eta = sc.result.eta
    return Functor(sc.result.source, E, eta.obj_map, eta.mor_map, "eta'")


def _comparisons(certs: dict) -> dict:
    return {k: cert_comparisons(cert) for k, cert in certs.items()}


# ---------------------------------------------------------------------------
# the unit reuses the completion's decisions, and they are the fresh ones


def test_the_unit_reuses_the_found_bag_and_eta_certificates(monkeypatch):
    cases = []
    for name, C in _inputs():
        sc = complete_structured(C)
        D = sc.result.completed
        # eta itself, and eta's maps into a fresh category with its tables
        for F in (sc.result.eta, _unit_into(sc, dataclasses.replace(D))):
            cases.append((name, sc, F))
    assert sum(len(sc.kinds) for _, sc, _ in cases) > 200
    calls = _spy(monkeypatch)
    for name, sc, F in cases:
        E = F.target
        calls.clear()
        got = factor_structured(sc, F)
        # no kind is searched for or decided again
        assert _fresh_route(calls, F) == ([], []), name
        want, fresh_certs = {}, {}
        for k in sc.kinds:
            want[k] = KINDS[k].find(E, want)
            assert got.target[k] == want[k], (name, k)
            fresh_certs[k] = KINDS[k].preserves(F, sc.source, got.target)
        assert structure_to_json(E, got.target) == structure_to_json(E, want), name
        assert _comparisons(got.functor_certs) == _comparisons(fresh_certs), name
        # the completion's own entries and eta's own certificate fields, no copy
        for k in sc.kinds:
            assert got.target[k] is sc.completed[k], (name, k)
            cert, eta_cert = got.functor_certs[k], sc.eta_certs[k]
            assert cert.functor is F
            for field in dataclasses.fields(cert):
                if field.name != "functor":
                    assert getattr(cert, field.name) is getattr(eta_cert, field.name), (name, k)


def test_a_reused_table_and_its_certificate_are_read_only():
    sc = complete_structured(INFLATIONS["chain4"])
    got = factor_structured(sc, sc.result.eta)
    table, mu = got.target["products"], got.functor_certs["products"].mu
    assert table is sc.completed["products"] and mu is sc.eta_certs["products"].mu
    key = next(iter(table))
    for mapping, value in ((table, table[key]), (mu, mu[key]), (got.target, table)):
        with pytest.raises(TypeError):
            mapping[key] = value
    # and the completion still factors as before
    assert factor_structured(sc, sc.result.eta).target["products"] is table


def test_a_reused_classifier_is_read_only():
    sc = complete_structured(INFLATIONS["codiscrete3"])
    got = factor_structured(sc, sc.result.eta)
    w = got.target["classifier"]
    assert w is sc.completed["classifier"]
    m = next(iter(w.chi))
    with pytest.raises(TypeError):
        w.chi[m] = w.chi[m]
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.chi = {}


# ---------------------------------------------------------------------------
# every other case takes the fresh route


def _after_eta(sc, move) -> Functor:
    """eta followed by the monotone map of the diamond's skeleton, a poset,
    that takes its bottom, middle and top elements where move says."""
    D = sc.result.completed
    above = [sum(len(D.hom(x, y)) for y in range(D.n_objects)) for x in range(D.n_objects)]
    middle = [x for x in range(D.n_objects) if above[x] == 2]
    bottom, top = above.index(4), above.index(1)
    obj = [move(x, bottom, middle, top) for x in range(D.n_objects)]
    mor = [D.hom(obj[D.mor_src[f]], obj[D.mor_dst[f]])[0] for f in range(D.n_morphisms)]
    return compose_functors(sc.result.eta, functor(D, D, obj, mor))


def _swap(x, bottom, middle, top):
    """The automorphism that swaps the two middle elements."""
    return middle[1 - middle.index(x)] if x in middle else x


def _collapse(x, bottom, middle, top):
    """Keeps the top but sends the middle to it, so no longer their meet."""
    return bottom if x == bottom else top


HVALUED = skeletize(hvalued_sets(heyting_chain(2), max_carrier=2)).completed


def _hvalued():
    sc = complete_structured(inflate(HVALUED, [3, 2, 2])[0])
    twisted, n = twisted_equalizers(sc.result.completed)
    assert n > 0 and "equalizers" in sc.kinds
    return sc, twisted


def _other_maps():
    sc = complete_structured(INFLATIONS["diamond"])
    return sc, _after_eta(sc, _swap), {}, [], list(sc.kinds)


def _other_tables():
    sc = complete_structured(INFLATIONS["diamond"])
    return sc, identity_functor(sc.result.source), {}, list(sc.kinds), list(sc.kinds)


def _a_differing_target_witness():
    sc, twisted = _hvalued()
    return sc, sc.result.eta, {"equalizers": twisted}, [], ["equalizers"]


def _an_equal_target_witness():
    sc = complete_structured(INFLATIONS["chain4"])
    return sc, sc.result.eta, {"products": dict(sc.completed["products"])}, [], []


def _replaced(sc, side, name, entry):
    return dataclasses.replace(sc, **{side: {**getattr(sc, side), name: entry}})


def _an_equal_valued_classifier():
    sc = complete_structured(INFLATIONS["codiscrete3"])
    for side in ("source", "completed"):
        w = getattr(sc, side)["classifier"]
        sc = _replaced(sc, side, "classifier", dataclasses.replace(w, chi=dict(w.chi)))
    # a replaced bag no longer holds the record, however equal its entries
    return sc, sc.result.eta, {}, list(sc.kinds), list(sc.kinds)


def _supplied_witnesses():
    C = INFLATIONS["chain4"]
    supplied = {"products": complete_structured(C).source["products"]}
    sc = complete_structured(C, witnesses=supplied)
    # a carried entry is searched for again, though the same one is found
    return sc, sc.result.eta, {}, ["products"], []


def _an_edited_completed_entry():
    sc, twisted = _hvalued()
    sc = _replaced(sc, "completed", "equalizers", twisted)
    return sc, sc.result.eta, {}, list(sc.kinds), list(sc.kinds)


def _a_replaced_eta_certificate():
    sc = complete_structured(INFLATIONS["chain4"])
    eta = sc.result.eta
    again = KINDS["products"].preserves(eta, sc.source, sc.completed)
    sc = _replaced(sc, "eta_certs", "products", again)
    return sc, eta, {}, list(sc.kinds), list(sc.kinds)


def _an_eta_certificate_edited_in_a_copy():
    sc = complete_structured(INFLATIONS["chain4"])
    cert = sc.eta_certs["products"]
    mu = dict(cert.mu)
    mu.pop(next(iter(mu)))
    sc = _replaced(sc, "eta_certs", "products", dataclasses.replace(cert, mu=mu))
    # the edited certificate is never handed out
    return sc, sc.result.eta, {}, list(sc.kinds), list(sc.kinds)


def _twin_products(C, table) -> dict:
    """table with the product under the first exponential of C moved to a
    twin of its apex: still a products table, but not the one found."""
    table = dict(table)
    (x, _), w = next(iter(find_exponentials(C, {"products": table}).items()))
    p = table[(w.obj, x)]
    twin = next(b for b in range(C.n_objects)
                if b != p.apex and iso_between(C, b, p.apex) is not None)
    i = iso_between(C, twin, p.apex).fwd
    table[(w.obj, x)] = BinProductW(p.x1, p.x2, twin, C.compose(i, p.pi1), C.compose(i, p.pi2))
    return table


def _twin_products_supplied_at_completion():
    # a finite category with binary products is a preorder, as hom(t, y^n)
    # has |hom(t, y)|^n arrows, so the carried table is the skeleton's only
    # one: the exponentials found against it are reused, and still valid
    C = INFLATIONS["diamond"]
    twin = _twin_products(C, find_binary_products(C))
    assert twin != find_binary_products(C)
    sc = complete_structured(C, witnesses={"products": twin})
    assert sc.completed["products"] == find_binary_products(sc.result.completed)
    assert {"exponentials", "pnno"} <= set(sc.kinds)
    return sc, sc.result.eta, {}, ["products"], []


def _no_record():
    sc = dataclasses.replace(complete_structured(INFLATIONS["chain4"]), validated=None)
    return sc, sc.result.eta, {}, list(sc.kinds), list(sc.kinds)


@pytest.mark.parametrize("build", [
    _other_maps, _other_tables, _a_differing_target_witness, _an_equal_target_witness,
    _an_equal_valued_classifier, _supplied_witnesses, _an_edited_completed_entry,
    _a_replaced_eta_certificate, _an_eta_certificate_edited_in_a_copy,
    _twin_products_supplied_at_completion, _no_record,
])
def test_only_what_the_completion_decided_is_reused(monkeypatch, build):
    """Each case gives a completion, a functor, target witnesses, and the
    kinds searched for on the target and decided for the functor."""
    sc, F, witnesses, searched, decided = build()
    calls = _spy(monkeypatch)
    got = factor_structured(sc, F, witnesses)
    assert _fresh_route(calls, F) == tuple(
        [k for k in sc.kinds if k in kinds] for kinds in (searched, decided)
    )
    # the same factorization as with every decision taken afresh
    want = factor_structured(dataclasses.replace(sc, validated=None), F, witnesses)
    E = F.target
    for k in sc.kinds:
        KINDS[k].check(E, got.target)
    assert structure_to_json(E, got.target) == structure_to_json(E, want.target)
    assert _comparisons(got.functor_certs) == _comparisons(want.functor_certs)
    assert _comparisons(got.lifted_certs) == _comparisons(want.lifted_certs)


def test_a_found_entry_is_reused_only_against_the_completed_dependencies(monkeypatch):
    """No valid products table on a skeleton differs from the completed one
    (see :func:`_twin_products_supplied_at_completion`), so products' check
    is stubbed out to supply one: exponentials, which depend on products,
    are then searched for afresh against it, not reused."""
    sc = complete_structured(INFLATIONS["diamond"])
    D = sc.result.completed
    table = dict(sc.completed["products"])
    t = sc.completed["terminal"].t
    bottom = next(x for x in range(D.n_objects) if all(D.hom(x, y) for y in range(D.n_objects)))
    table[(t, t)] = BinProductW(t, t, bottom, D.hom(bottom, t)[0], D.hom(bottom, t)[0])
    calls = _spy(monkeypatch)
    monkeypatch.setitem(KINDS, "products", dataclasses.replace(
        KINDS["products"], check=lambda C, bag: None))
    try:
        factor_structured(sc, sc.result.eta, {"products": table})
    except CatkitError:   # whatever the search makes of the stubbed table
        pass
    assert "exponentials" in [k for verb, k, C in calls if verb == "find" and C is D]


def _outcome(sc, F) -> str:
    try:
        factor_structured(sc, F)
    except Exception as exc:  # the fresh route's refusal, whichever it is
        return f"{type(exc).__name__}: {exc}"
    return "factored"


def test_an_unpreserved_kind_is_named_as_the_fresh_route_names_it():
    outcomes = set()
    for name in ("chain4", "diamond", "finset2"):
        sc = complete_structured(INFLATIONS[name])
        C, D = sc.result.source, sc.result.completed
        functors = [Functor(C, D, (x,) * C.n_objects, (D.identity[x],) * C.n_morphisms)
                    for x in range(D.n_objects)]
        if name == "diamond":
            functors.append(_after_eta(sc, _collapse))
        for F in functors:
            got = _outcome(sc, F)
            assert got == _outcome(dataclasses.replace(sc, validated=None), F), name
            outcomes.add(got)
    assert {o for o in outcomes if "does not preserve structure" in o} == {
        "PreconditionViolation: functor does not preserve structure 'terminal'",
        "PreconditionViolation: functor does not preserve structure 'products'",
        "PreconditionViolation: functor does not preserve structure 'classifier'",
    }


# ---------------------------------------------------------------------------
# pullbacks over a terminal object without products


def _refutation_inputs():
    for seed in range(80):
        C = random_category(seed)
        yield C
        if C.n_morphisms <= 40:
            yield _two_copies_of_odd_objects(C)
    yield finset_fragment(2)
    yield finset_fragment(3)
    yield INFLATIONS["finset2"]


def test_pullbacks_are_refuted_by_a_terminal_without_products(monkeypatch):
    calls = _spy(monkeypatch)
    fired = 0
    for C in _refutation_inputs():
        calls.clear()
        bag = find_bag(C, KIND_ORDER)
        if "terminal" not in bag or "products" in bag:
            continue
        fired += 1
        assert ("find", "pullbacks", C) not in calls
        # the full search is the oracle
        assert limits.find_table(PULLBACKS, C) is None, C.name
        calls.clear()
        sc = complete_structured(C)
        assert "pullbacks" not in sc.kinds
        assert [k for verb, k, _ in calls if verb == "find"].count("pullbacks") == 0
    assert fired >= 5


def test_pullbacks_are_refuted_on_a_category_that_is_not_thin(monkeypatch):
    """A category that is not thin has no products (Freyd), so with a
    terminal object it has no pullbacks: without a search, whether the
    terminal was searched for or not, and without adding the terminal to
    the bag.  A completion asked for them alone refuses as a search
    would."""
    calls = _spy(monkeypatch)
    fired = 0
    H = hvalued_sets(heyting_chain(2), max_carrier=2)
    for C in (*_refutation_inputs(), H, skeletize(H).completed):
        if C.down_sets is not None or limits.find_terminal(C) is None:
            continue
        fired += 1
        assert limits.find_table(PULLBACKS, C) is None, C.name
        for kinds in (("pullbacks",), ("terminal", "pullbacks")):
            calls.clear()
            assert set(find_bag(C, kinds)) == set(kinds) - {"pullbacks"}, (C.name, kinds)
            assert ("find", "pullbacks", C) not in calls
        with pytest.raises(CatkitError, match="requested structure 'pullbacks' is absent"):
            complete_structured(C, kinds=("pullbacks",))
    assert fired >= 5, fired
    core.set_search_budget(20)
    try:
        assert find_bag(dataclasses.replace(finset_fragment(3)), ("pullbacks",)) == {}
    finally:
        core.set_search_budget(None)


def test_pullbacks_are_searched_for_when_products_were_not():
    for seed in range(80):
        C = random_category(seed)
        bag = find_bag(C, ("terminal", "pullbacks"))
        assert ("pullbacks" in bag) == (limits.find_table(PULLBACKS, C) is not None), seed
