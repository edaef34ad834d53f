"""A completion's bags are checked once per pipeline.

``complete_structured`` validates both bags, makes them read-only and
records them in ``validated``; ``factor_structured`` checks nothing again
for a completion still made of the recorded objects, and every kind of any
other.  An edit in place raises ``TypeError``; one made through
``dataclasses.replace`` must be refused exactly as when every bag was
checked, and the factorization must not depend on the record.
"""
import dataclasses
import sys

import pytest

from catkit import limits
from catkit.completion import inflate, skeletize
from catkit.core import iso_between
from catkit.errors import DependencyMissing, InvalidCert, PreconditionViolation
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    hvalued_sets,
    setoid_groupoid,
)
from catkit.interchange import structure_to_json
from catkit.lifting import (
    KIND_ORDER,
    KINDS,
    StructuredCompletion,
    complete_structured,
    factor_structured,
)
from catkit.limits import PRODUCTS, BinProductW, ChosenTerminal
from completion_helpers import cert_comparisons

pytestmark = pytest.mark.filterwarnings("ignore:target")

# a non-gaunt skeleton: inflating it gives an eta other than the quasi-inverse
HVALUED = skeletize(hvalued_sets(heyting_chain(2), max_carrier=2)).completed


def _complete(inflation, kinds=None):
    C, proj = inflation
    return complete_structured(C, kinds), proj


def _every_kind():
    """An inflated codiscrete groupoid, which carries every kind."""
    sc, proj = _complete(inflate(setoid_groupoid(3, {(0, 1), (1, 2)}), [2, 1, 2]))
    assert sc.kinds == KIND_ORDER
    return sc, proj


def _heyting_exponentials():
    return _complete(inflate(heyting_category(heyting_chain(3)), 2), ("products", "exponentials"))


# ---------------------------------------------------------------------------
# edits after the completion are refused as before


def _with(sc, side, name, entry):
    """sc with the entry of name in its side bag replaced, by
    ``dataclasses.replace``: the bags themselves are read-only."""
    return dataclasses.replace(sc, **{side: {**getattr(sc, side), name: entry}})


def _swap_product_legs(sc):
    table = dict(sc.source["products"])
    w = table[(0, 1)]
    table[(0, 1)] = BinProductW(w.x1, w.x2, w.apex, w.pi2, w.pi1)
    return _with(sc, "source", "products", table)


def _move_exponential(side):
    def edit(sc):
        table = dict(getattr(sc, side)["exponentials"])
        C = sc.result.completed if side == "completed" else sc.result.source
        w = table[(0, 0)]
        table[(0, 0)] = w._replace(
            obj=next(o for o in range(C.n_objects) if o != w.obj)
        )
        return _with(sc, side, "exponentials", table)
    return edit


def _move_product_to_a_twin(sc):
    """A valid product on the twin of its apex, which the exponential of
    the same pair no longer evaluates out of: only the dependency changed."""
    C, table = sc.result.source, dict(sc.source["products"])
    (x, y), w = next(iter(sc.source["exponentials"].items()))
    p = table[(w.obj, x)]
    twin = next(b for b in range(C.n_objects)
                if b != p.apex and iso_between(C, b, p.apex) is not None)
    i = iso_between(C, twin, p.apex).fwd
    table[(w.obj, x)] = BinProductW(p.x1, p.x2, twin, C.compose(i, p.pi1), C.compose(i, p.pi2))
    edited = _with(sc, "source", "products", table)
    KINDS["products"].check(C, edited.source)
    return edited


def _edit_chi(side):
    def edit(sc):
        C = sc.result.completed if side == "completed" else sc.result.source
        w = getattr(sc, side)["classifier"]
        chi = dict(w.chi)
        m = next(k for k in chi if len(C.hom(C.mor_dst[k], C.mor_dst[chi[k]])) > 1)
        chi[m] = next(c for c in C.hom(C.mor_dst[m], C.mor_dst[chi[m]]) if c != chi[m])
        return _with(sc, side, "classifier", dataclasses.replace(w, chi=chi))
    return edit


def _move_completed_terminal(sc):
    D, t = sc.result.completed, sc.completed["terminal"].t
    moved = ChosenTerminal(next(o for o in range(D.n_objects) if o != t))
    return _with(sc, "completed", "terminal", moved)


@pytest.mark.parametrize("build, edit, message", [
    (_heyting_exponentials, _swap_product_legs, r"product table is wrong at \(0, 1\)"),
    (_heyting_exponentials, _move_exponential("completed"),
     r"exponential table is wrong at \(0,0\)"),
    (_heyting_exponentials, _move_exponential("source"),
     r"exponential table is wrong at \(0,0\)"),
    (_heyting_exponentials, _move_product_to_a_twin,
     r"exponential table is wrong at \(0,0\)"),
    (lambda: _complete(inflate(finset_fragment(2), [1, 1, 2])), _edit_chi("source"),
     "chi table does not match the rebuilt classifier"),
    (lambda: _complete(inflate(chain_poset(3), [1, 2, 2])), _move_completed_terminal,
     "terminal witness is not terminal"),
    (lambda: _complete(inflate(finset_fragment(2), [1, 1, 2])), _edit_chi("completed"),
     "chi table does not match the rebuilt classifier"),
], ids=["source-products", "completed-exponential", "source-exponential",
        "source-products-dependency", "source-chi", "completed-terminal", "completed-chi"])
def test_an_entry_edited_after_the_completion_is_refused(build, edit, message):
    sc, proj = build()
    factor_structured(sc, proj)
    edited = edit(sc)
    assert edited.validated is sc.validated
    with pytest.raises(InvalidCert, match=message):
        factor_structured(edited, proj)
    # the completion itself is untouched and still factors
    factor_structured(sc, proj)


# ---------------------------------------------------------------------------
# which checks run


def _source_checks(monkeypatch, C) -> list:
    """Wrap each kind's check; returns the kinds, in order, checked on C."""
    seen = []
    for name, kind in list(KINDS.items()):
        def counted(D, bag, _fn=kind.check, _name=name):
            if D is C:
                seen.append(_name)
            return _fn(D, bag)

        monkeypatch.setitem(KINDS, name, dataclasses.replace(kind, check=counted))
    return seen


def test_an_unedited_completion_is_not_checked_again(monkeypatch):
    sc, proj = _every_kind()
    seen = _source_checks(monkeypatch, sc.result.source)
    factor_structured(sc, proj)
    assert seen == []


def test_a_classifier_replaced_by_an_equal_one_gets_every_check(monkeypatch):
    sc, proj = _every_kind()
    for side in ("source", "completed"):
        w = getattr(sc, side)["classifier"]
        sc = _with(sc, side, "classifier", dataclasses.replace(w, chi=dict(w.chi)))
    # a replaced bag no longer holds the record, however equal its entries:
    # every kind is checked on both sides, the source last
    seen = _source_checks(monkeypatch, sc.result.source)
    factor_structured(sc, proj)
    assert seen == list(sc.kinds)


def test_a_completion_built_by_hand_or_on_another_result_gets_every_check(monkeypatch):
    sc, proj = _every_kind()
    by_hand = StructuredCompletion(sc.result, sc.kinds, sc.source, sc.completed, sc.eta_certs)
    assert by_hand.validated is None
    # the record holds for the result it was made with, not for a copy
    other_result = dataclasses.replace(sc, result=dataclasses.replace(sc.result))
    assert other_result.validated is sc.validated
    seen = _source_checks(monkeypatch, sc.result.source)
    for edited in (by_hand, other_result):
        seen.clear()
        factor_structured(edited, proj)
        assert seen == list(sc.kinds)


def test_a_completion_built_by_hand_with_bad_kinds_is_refused():
    C, proj = inflate(chain_poset(3), [1, 2, 2])
    sc = complete_structured(C, kinds=("terminal", "products", "exponentials"))
    by_hand = StructuredCompletion(sc.result, sc.kinds, sc.source, sc.completed, sc.eta_certs)

    def without_products(bag):
        return {k: w for k, w in bag.items() if k != "products"}

    for edit, error, message in (
        ({"kinds": ("terminal", "exponentials")}, DependencyMissing,
         "'exponentials' needs 'products'"),
        ({"kinds": (*sc.kinds, "omega")}, PreconditionViolation,
         "unknown structure kind 'omega'"),
        ({"source": without_products(sc.source)}, PreconditionViolation,
         "the source bag lacks structure 'products'"),
        ({"completed": without_products(sc.completed)}, PreconditionViolation,
         "the completed bag lacks structure 'products'"),
    ):
        with pytest.raises(error, match=message):
            factor_structured(dataclasses.replace(by_hand, **edit), proj)
    # kinds out of dependency order are taken in it
    got = factor_structured(dataclasses.replace(by_hand, kinds=sc.kinds[::-1]), proj)
    want = factor_structured(sc, proj)
    assert _all_comparisons(got.lifted_certs) == _all_comparisons(want.lifted_certs)


# ---------------------------------------------------------------------------
# the factorization does not depend on the record


def _parity_inputs():
    return {
        "chain4": inflate(chain_poset(4), [1, 2, 2, 3]),
        "diamond": inflate(heyting_category(heyting_diamond()), [2, 2, 2, 2]),
        "finset2": inflate(finset_fragment(2), [1, 1, 2]),
        "hvalued": inflate(HVALUED, [3, 2, 2]),
    }


def _all_comparisons(certs: dict) -> dict:
    return {kind: cert_comparisons(cert) for kind, cert in certs.items()}


def test_factorization_is_the_same_without_the_record():
    for name, (C, proj) in _parity_inputs().items():
        sc = complete_structured(C)
        assert sc.validated is not None
        got = factor_structured(sc, proj)
        want = factor_structured(dataclasses.replace(sc, validated=None), proj)
        E = proj.target
        assert structure_to_json(E, got.target) == structure_to_json(E, want.target), name
        assert _all_comparisons(got.functor_certs) == _all_comparisons(want.functor_certs), name
        assert _all_comparisons(got.lifted_certs) == _all_comparisons(want.lifted_certs), name


# ---------------------------------------------------------------------------
# the exponentials lift reads the products certificate already lifted


def test_the_factored_functor_is_decided_on_products_once(monkeypatch):
    C, proj = inflate(chain_poset(4), [1, 2, 2, 3])
    sc = complete_structured(C)
    assert {"products", "exponentials"} <= set(sc.kinds)
    seen = []
    real = limits.preserves

    def wrapped(shape, F, *args):
        seen.append((shape, F))
        return real(shape, F, *args)

    for mod in [m for n, m in sys.modules.items() if n == "catkit" or n.startswith("catkit.")]:
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, wrapped)
    fact = factor_structured(sc, proj)
    H = fact.factorization.functor
    assert sum(1 for shape, F in seen if shape is PRODUCTS and F is H) == 1
