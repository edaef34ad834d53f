"""The structure registry: completion and factorization with carried kinds."""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catkit.classifier import SubobjectClassifierW
from catkit.completion import inflate, inflate_section
from catkit.core import compose_functors, is_weak_equivalence, same_tables
from catkit.errors import DependencyMissing, InvalidCert, PreconditionViolation
from catkit.exponentials import exponential_comparison, find_exponential
from catkit.generators import (
    chain_poset,
    delooping,
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    random_category,
    setoid_groupoid,
    walking_iso,
)
from catkit.interchange import structure_to_json
from catkit.lifting import KIND_ORDER, KINDS, complete_structured, factor_structured
from catkit.limits import (
    BinProductW,
    EqualizerW,
    equalizer_comparison,
    find_binary_product,
    find_equalizer,
    find_equalizers,
    find_pullback,
    is_terminal,
    product_comparison,
    pullback_comparison,
)


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
        product_comparison(C, w, find_binary_product(C, x, y))
    for (f, g), w in bag.get("equalizers", {}).items():
        equalizer_comparison(C, w, find_equalizer(C, f, g))
    for (f, g), w in bag.get("pullbacks", {}).items():
        pullback_comparison(C, w, find_pullback(C, f, g))
    for (x, y), w in bag.get("exponentials", {}).items():
        direct = find_exponential(C, bag["products"], x, y)
        exponential_comparison(C, bag["products"], w, direct)


def _transfer_along_eta(sc):
    out = {}
    for name in sc.kinds:
        out[name], _ = KINDS[name].transfer(sc.result.cert, sc.source, out)
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
    twisted, n = {}, 0
    for key, w in find_equalizers(C).items():
        autos = [
            a for a in C.hom(w.obj, w.obj)
            if a != C.identity[w.obj] and C.compose(a, a) == C.identity[w.obj]
        ]
        if autos:
            w = EqualizerW(w.f, w.g, w.obj, C.compose(autos[0], w.arrow))
            n += 1
        twisted[key] = w
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
