"""The structure registry: completion and factorization with carried kinds."""
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from catkit import limits
from catkit.classifier import SubobjectClassifierW
from catkit.completion import inflate, inflate_section
from catkit.core import Functor, compose_functors, functors_equal, is_weak_equivalence, same_tables
from catkit.errors import DependencyMissing, InvalidCert, PreconditionViolation
from catkit.exponentials import ExponentialW, find_exponential
from catkit.generators import (
    chain_poset,
    delooping,
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    random_category,
    setoid_groupoid,
)
from catkit.interchange import structure_to_json
from catkit.lifting import (
    KIND_ORDER,
    KINDS,
    complete_structured,
    factor_structured,
    find_bag,
    with_dependencies,
)
from catkit.limits import (
    EQUALIZERS,
    PRODUCTS,
    PULLBACKS,
    BinProductW,
    EqualizerW,
    PullbackW,
    comparison,
    find_binary_products,
    find_limit,
    is_terminal,
)
from catkit.nno import PNNOW
from completion_helpers import twisted_equalizers
from limit_oracles import exponential_comparison


def _codiscrete(n):
    return setoid_groupoid(n, {(i, i + 1) for i in range(n - 1)}, name=f"codisc{n}")


def test_registry_is_complete_and_ordered():
    assert set(KINDS) == set(KIND_ORDER)
    for name, kind in KINDS.items():
        assert kind.name == name
        assert all(dep in KINDS for dep in kind.deps)
        # dependencies precede their dependents in the canonical order
        for dep in kind.deps:
            assert KIND_ORDER.index(dep) < KIND_ORDER.index(name)


def test_auto_mode_carries_what_exists():
    C = heyting_category(heyting_chain(3))
    sc = complete_structured(C)
    # a Heyting poset has everything except classifier and pnno-free kinds
    assert "terminal" in sc.kinds
    assert "products" in sc.kinds
    assert "exponentials" in sc.kinds
    assert "classifier" not in sc.kinds
    assert "pnno" in sc.kinds
    assert set(sc.completed) == set(sc.kinds)
    assert set(sc.eta_certs) == set(sc.kinds)


def test_auto_mode_on_fragment_skips_products_and_dependents():
    C = finset_fragment(2)
    sc = complete_structured(C)
    assert "terminal" in sc.kinds
    assert "equalizers" in sc.kinds
    assert "classifier" in sc.kinds
    assert "products" not in sc.kinds
    # exponentials and pnno depend on products, so they are not attempted
    assert "exponentials" not in sc.kinds
    assert "pnno" not in sc.kinds


def test_explicit_mode_raises_on_absent_structure():
    C = finset_fragment(2)
    with pytest.raises(PreconditionViolation, match="products"):
        complete_structured(C, kinds=("terminal", "products"))


def test_explicit_mode_raises_on_missing_dependency():
    C = _codiscrete(2)
    with pytest.raises(DependencyMissing):
        complete_structured(C, kinds=("exponentials",))
    with pytest.raises(PreconditionViolation, match="unknown"):
        complete_structured(C, kinds=("omega",))


def test_request_order_does_not_matter():
    C = _codiscrete(3)
    a = complete_structured(C, kinds=("products", "terminal", "exponentials"))
    b = complete_structured(C, kinds=("exponentials", "products", "terminal"))
    assert a.kinds == b.kinds == ("terminal", "products", "exponentials")
    assert a.completed["terminal"].t == b.completed["terminal"].t


def test_provided_witnesses_are_validated():
    C = _codiscrete(2)
    bad = SubobjectClassifierW(omega=0, tau=0, chi={})
    with pytest.raises(Exception):
        complete_structured(
            C, kinds=("terminal", "classifier"), witnesses={"classifier": bad}
        )


def test_provided_witnesses_are_checked_once_on_the_source(monkeypatch):
    """The kind's check is the one brute-force pass over supplied witnesses;
    carrying them along eta does not check them on the source again, and a
    broken entry still fails that check."""
    C, _ = inflate(chain_poset(4), [1, 2, 2, 3])
    kinds = ("terminal", "products", "pullbacks")
    given = complete_structured(C, kinds=kinds).source
    assert (len(given["products"]), len(given["pullbacks"])) == (64, 261)
    calls = {"is_binary_product": 0, "is_pullback": 0}
    for name in calls:
        def counting(D, w, checker=getattr(limits, name), name=name):
            calls[name] += D is C
            return checker(D, w)

        monkeypatch.setattr(limits, name, counting)
    sc = complete_structured(C, kinds=kinds, witnesses=given)
    assert calls == {"is_binary_product": 64, "is_pullback": 261}
    assert sc.source == given
    key, w = next((key, w) for key, w in given["products"].items() if key[0] != key[1])
    swapped = w._replace(pi1=w.pi2, pi2=w.pi1)   # legs onto the wrong factors
    broken = {**given, "products": {**given["products"], key: swapped}}
    with pytest.raises(InvalidCert, match="product table is wrong"):
        complete_structured(C, kinds=kinds, witnesses=broken)


def test_provided_witnesses_of_every_kind_are_carried():
    C, _ = inflate(setoid_groupoid(4, {(0, 1), (1, 2), (2, 3)}), 2)
    sc = complete_structured(C)
    assert sc.kinds == KIND_ORDER
    given = complete_structured(C, witnesses=sc.source)
    assert given.kinds == KIND_ORDER and given.source == sc.source
    for name in KIND_ORDER:
        KINDS[name].check(given.result.completed, given.completed)


def test_full_pipeline_on_codiscrete_groupoid():
    S = _codiscrete(4)
    sc = complete_structured(S)
    assert sc.kinds == KIND_ORDER
    D = sc.result.completed
    assert D.n_objects == 1
    fact = factor_structured(sc, sc.result.eta)
    assert set(fact.functor_certs) == set(KIND_ORDER)
    assert set(fact.lifted_certs) == set(KIND_ORDER)
    # the factored functor really factors: eta;H iso eta
    from catkit.completion import check_factorization

    check_factorization(sc.result, sc.result.eta, fact.factorization)


def test_factor_structured_into_inflated_target():
    S = _codiscrete(3)
    infl, proj = inflate(S, [2, 1, 2])
    sec = inflate_section(proj)
    assert is_weak_equivalence(sec) is not None
    sc = complete_structured(S, kinds=("terminal", "products"))
    with pytest.warns(UserWarning, match="not gaunt"):
        fact = factor_structured(sc, sec)
    assert set(fact.target) == {"terminal", "products"}
    H = fact.factorization.functor
    assert H.source is sc.result.completed or same_tables(H.source, sc.result.completed)


def test_factor_structured_rejects_wrong_source():
    S = _codiscrete(2)
    sc = complete_structured(S, kinds=("terminal",))
    from catkit.core import identity_functor

    with pytest.raises(PreconditionViolation):
        factor_structured(sc, identity_functor(chain_poset(2)))


def test_factor_structured_accepts_a_source_with_the_same_tables():
    """A second build of the same inflation is a different object with the
    same tables; its projection factors as the first build's does."""
    C, proj = inflate(chain_poset(3), [1, 2, 2])
    twin, twin_proj = inflate(chain_poset(3), [1, 2, 2])
    assert twin is not C and same_tables(twin, C)
    sc = complete_structured(C)
    fact = factor_structured(sc, twin_proj)
    ref = factor_structured(sc, proj)
    assert fact.factorization.functor.mor_map == ref.factorization.functor.mor_map
    assert fact.factorization.alpha.components == ref.factorization.alpha.components
    for name in sc.kinds:
        assert fact.lifted_certs[name].functor is fact.factorization.functor
        assert (structure_to_json(C, {name: fact.target[name]})
                == structure_to_json(C, {name: ref.target[name]}))


def test_witnesses_keyed_by_an_unknown_kind_are_refused():
    """A misspelt kind, or the CLI's token for the classifier, is not
    silently dropped."""
    C, proj = inflate(chain_poset(3), [1, 2, 2])
    for key in ("termnal", "omega"):
        with pytest.raises(PreconditionViolation, match=f"unknown structure kind '{key}'"):
            complete_structured(C, witnesses={key: limits.ChosenTerminal(0)})
    sc = complete_structured(C, kinds=("terminal",))
    for key in ("termnal", "omega"):
        with pytest.raises(PreconditionViolation, match=f"unknown structure kind '{key}'"):
            factor_structured(sc, proj, target_witnesses={key: limits.ChosenTerminal(2)})


def test_witnesses_for_a_kind_that_is_not_carried_are_refused():
    """A supplied witness for a kind that is not requested, that lacks a
    dependency, or that a factorization does not lift is not silently
    dropped unchecked either."""
    C, proj = inflate(chain_poset(3), [1, 2, 2])

    def swapped(prods):
        return {key: w._replace(pi1=w.pi2, pi2=w.pi1) for key, w in prods.items()}

    bad = swapped(find_binary_products(C))
    with pytest.raises(InvalidCert):
        complete_structured(C, kinds=("terminal", "products"), witnesses={"products": bad})
    with pytest.raises(PreconditionViolation, match="supplied structure 'products' is not carried"):
        complete_structured(C, kinds=("terminal",), witnesses={"products": bad})
    sc = complete_structured(C, kinds=("terminal",))
    bad_target = swapped(find_binary_products(proj.target))
    with pytest.raises(PreconditionViolation, match="supplied structure 'products' is not carried"):
        factor_structured(sc, proj, target_witnesses={"products": bad_target})
    # the fragment has no products, so no parameterized N is carried
    with pytest.raises(PreconditionViolation, match="supplied structure 'pnno' is not carried"):
        complete_structured(finset_fragment(2), witnesses={"pnno": PNNOW(0, 0, 0)})


def test_factor_structured_rejects_structureless_target():
    S = _codiscrete(2)
    sc = complete_structured(S, kinds=("terminal",))
    from catkit.core import functor
    from catkit.generators import discrete

    # a constant functor into a 2-object discrete category: the target has
    # no terminal, so the requested kind cannot be found downstream
    V = discrete(2)
    const = functor(S, V, [0, 0], [V.identity[0]] * S.n_morphisms, name="const")
    with pytest.raises(PreconditionViolation, match="terminal"):
        factor_structured(sc, const)


# ---------------------------------------------------------------------------
# skeleton-first completion: oracle cross-checks of the carried bags


def _inflated_corpus():
    out = []
    for seed in range(40):
        C = random_category(seed)
        infl, proj = inflate(C, [1 + (seed + i) % 2 for i in range(C.n_objects)])
        out.append((infl, proj))
    for H in (heyting_chain(3), heyting_diamond()):
        out.append(inflate(heyting_category(H), 2))
    out.append(inflate(finset_fragment(2), [1, 1, 2]))
    return out


def _assert_matches_direct_search(C, bag):
    """Every carried source entry is a direct find_* result up to the
    canonical comparison iso."""
    if "terminal" in bag:
        assert is_terminal(C, bag["terminal"].t)
    for (x, y), w in bag.get("products", {}).items():
        comparison(PRODUCTS, C, w, find_limit(PRODUCTS, C, (x, y)))
    for (f, g), w in bag.get("equalizers", {}).items():
        comparison(EQUALIZERS, C, w, find_limit(EQUALIZERS, C, (f, g)))
    for (f, g), w in bag.get("pullbacks", {}).items():
        comparison(PULLBACKS, C, w, find_limit(PULLBACKS, C, (f, g)))
    for (x, y), w in bag.get("exponentials", {}).items():
        direct = find_exponential(C, bag["products"], x, y)
        exponential_comparison(C, bag["products"], w, direct)


def _transfer_along_eta(sc):
    out = {}
    for name in sc.kinds:
        out[name] = KINDS[name].transfer(sc.result.cert, sc.source, out)
    return out


def test_carried_bags_pass_the_oracles_on_both_sides():
    for infl, proj in _inflated_corpus():
        sc = complete_structured(infl)
        D = sc.result.completed
        for name in sc.kinds:
            KINDS[name].check(infl, sc.source)
            KINDS[name].check(D, sc.completed)
        _assert_matches_direct_search(infl, sc.source)
        # the completed bag is exactly the transfer of the source bag along
        # eta, which the lifts compare against
        transferred = _transfer_along_eta(sc)
        assert structure_to_json(D, transferred) == structure_to_json(D, sc.completed)
        again = complete_structured(dataclasses.replace(infl))
        assert again.kinds == sc.kinds
        assert structure_to_json(infl, again.source) == structure_to_json(infl, sc.source)
        assert structure_to_json(D, again.completed) == structure_to_json(D, sc.completed)


def test_carry_back_is_exact_when_the_least_automorphism_is_not_an_involution():
    # Z/3 with its unit listed last: the lowest-index automorphism is a
    # generator, whose inverse is the other non-identity element
    Z3 = delooping([[1, 2, 0], [2, 0, 1], [0, 1, 2]], name="z3")
    infl, proj = inflate(Z3, 3)
    sc = complete_structured(infl)
    assert "pullbacks" in sc.kinds
    D = sc.result.completed
    assert structure_to_json(D, _transfer_along_eta(sc)) == structure_to_json(D, sc.completed)
    with pytest.warns(UserWarning, match="not gaunt"):
        fact = factor_structured(sc, proj)
    assert set(fact.lifted_certs) == set(sc.kinds)


def test_provided_witness_twisted_by_an_automorphism_lifts():
    C, proj = inflate(finset_fragment(2), [1, 1, 2])
    twisted, n = twisted_equalizers(C)
    assert n > 0
    sc = complete_structured(C, kinds=("equalizers",), witnesses={"equalizers": twisted})
    assert sc.source["equalizers"] is twisted
    with pytest.warns(UserWarning, match="not gaunt"):
        fact = factor_structured(sc, proj)
    assert set(fact.lifted_certs) == {"equalizers"}


def test_factor_structured_checks_the_carried_source_bag():
    infl, proj = inflate(heyting_category(heyting_chain(3)), 2)
    sc = complete_structured(infl, kinds=("products",))
    key = next((x, y) for (x, y) in sc.source["products"] if x != y)
    w = sc.source["products"][key]
    bad = dict(sc.source["products"])
    bad[key] = BinProductW(w.x1, w.x2, w.apex, w.pi2, w.pi1)
    corrupted = dataclasses.replace(sc, source={"products": bad})
    with pytest.raises(InvalidCert):
        factor_structured(corrupted, proj)


def test_demo_pipeline_script_runs():
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    script = root / "scripts" / "demo_pipeline.py"
    out = subprocess.run(
        [sys.executable, str(script), "--seed", "7", "--copies", "2"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "preservation lifted to H" in out.stdout


@pytest.mark.parametrize("kinds, closed", [
    (("exponentials",), ("products", "exponentials")),
    (("pnno",), ("terminal", "products", "pnno")),
    (("classifier",), ("terminal", "classifier")),
])
def test_with_dependencies_adds_what_each_kind_needs(kinds, closed):
    assert with_dependencies(kinds) == closed


def test_with_dependencies_refuses_an_unknown_kind():
    with pytest.raises(PreconditionViolation, match="unknown structure kind 'monads'"):
        with_dependencies(["terminal", "monads"])


def test_a_check_refuses_an_entry_at_a_key_the_category_does_not_have():
    """An equalizer of a pair that is not parallel, a pullback of arrows
    with different targets and an exponential off range(n)^2 name no key:
    each kind's check refuses them rather than ignore them."""
    C = heyting_category(heyting_chain(3))
    bag = find_bag(C, ("terminal", "products", "equalizers", "pullbacks", "exponentials"))
    n = C.n_objects
    h01, h12, h02 = (C.mor_labels.index(f"le_h{a}_h{b}") for a, b in ((0, 1), (1, 2), (0, 2)))
    cases = [
        ("equalizers", (h01, h12), EqualizerW(h01, h12, 0, C.identity[0])),
        ("pullbacks", (h01, h02), PullbackW(h01, h02, 0, C.identity[0], C.identity[0])),
        ("exponentials", (n, 0), ExponentialW(n, 0, 0, 0)),
        ("exponentials", (-1, 1), bag["exponentials"][(n - 1, 1)]),
    ]
    for kind, key, w in cases:
        junk = {**bag, kind: {**bag[kind], key: w}}
        with pytest.raises(InvalidCert, match=re.escape(f"table has an entry at {key}, not a")):
            KINDS[kind].check(C, junk)
        KINDS[kind].check(C, bag)


@pytest.fixture(scope="module")
def factored_pair():
    """The projection of an inflated codiscrete pair, which carries all
    seven kinds, factored through the completion; and a functor into the
    pair that is neither the projection nor eta;H."""
    pair = setoid_groupoid(2, {(0, 1)}, name="pair")
    C, proj = inflate(pair, [2, 1])
    sc = complete_structured(C)
    with pytest.warns(UserWarning, match="not gaunt"):
        sf = factor_structured(sc, proj)
    swap = tuple(1 - x for x in proj.obj_map)
    other = Functor(C, pair, swap, tuple(
        pair.hom(swap[C.mor_src[f]], swap[C.mor_dst[f]])[0] for f in range(C.n_morphisms)
    ))
    H = sf.factorization.functor
    assert not functors_equal(other, proj)
    assert not functors_equal(other, compose_functors(sc.result.eta, H))
    return sc, proj, sf, other


@pytest.mark.parametrize("name", KIND_ORDER)
def test_every_lift_checks_the_factorization_triangle(factored_pair, name):
    """alpha must run from eta;H to F: an alpha from elsewhere, or to
    elsewhere, is refused before any preservation is decided."""
    sc, proj, sf, other = factored_pair
    H, alpha = sf.factorization.functor, sf.factorization.alpha
    args = (sc.source, sf.target, sf.functor_certs, sc.completed, sf.lifted_certs)
    lift = KINDS[name].lift
    with pytest.raises(PreconditionViolation, match="alpha must start at the composite"):
        lift(sc.result.cert, proj, H, dataclasses.replace(alpha, source=other), *args)
    with pytest.raises(PreconditionViolation, match="alpha must end at the outer functor"):
        lift(sc.result.cert, proj, H, dataclasses.replace(alpha, target=other), *args)
    assert lift(sc.result.cert, proj, H, alpha, *args) is not None
