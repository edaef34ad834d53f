"""The routes that decide limits by order and by counting, against the
generic searches kept as their oracles in ``limit_oracles``, which decide
every candidate by its loop over cones: the same witnesses from
``find_bag`` and from every ``find_*`` on a corpus of thin and non-thin
categories, the theorems the routes rest on, and their ticks under the
search budget, one per key or per check, in the library and through the
CLI."""
import dataclasses
import json
from functools import cache

import pytest

import limit_oracles
from catkit import classifier, core, exponentials, limits
from catkit.cli import TOKEN_TO_KIND, main
from catkit.completion import skeletize
from catkit.core import FinCat, opposite
from catkit.errors import SearchBudgetExceeded
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_diamond,
    hvalued_sets,
    random_category,
)
from catkit.interchange import category_to_json, validate_category
from catkit.lifting import KIND_ORDER, find_bag, with_dependencies
from test_constructions_pinned import _cases
from test_limit_oracles import _carry_corpus

@cache
def corpus() -> tuple[FinCat, ...]:
    """random_category seeds 0-299, the inflations of the carry corpus, the
    pinned constructions, the finset fragments of 2 and 3 and the H-valued
    sets over the diamond with their skeleton; each set of tables once."""
    H = hvalued_sets(heyting_diamond(), 2)
    cats = [random_category(seed) for seed in range(300)]
    cats += [C for C, _ in _carry_corpus()]
    cats += [C for _, C in _cases() if isinstance(C, FinCat)]
    cats += [finset_fragment(2), finset_fragment(3), H, skeletize(H).completed]
    seen, out = set(), []
    for C in cats:
        tables = (C.n_objects, C.mor_src, C.mor_dst, C.identity, C.comp_table)
        if tables not in seen:
            seen.add(tables)
            out.append(C)
    return tuple(out)


@cache
def oracle_bag(i: int) -> dict:
    return limit_oracles.generic_bag(corpus()[i])


def test_the_corpus_holds_both_kinds_of_category():
    thin = [C.down_sets is not None for C in corpus()]
    assert thin.count(True) > 100 and thin.count(False) > 50


def test_find_bag_finds_the_generic_searches_witnesses():
    for i, C in enumerate(corpus()):
        assert find_bag(C, KIND_ORDER) == oracle_bag(i), C.name


def test_every_find_finds_the_generic_searches_witnesses():
    for i, C in enumerate(corpus()):
        bag = oracle_bag(i)
        assert limits.find_terminal(C) == bag.get("terminal"), C.name
        assert limits.find_binary_products(C) == bag.get("products"), C.name
        assert limits.find_equalizers(C) == bag.get("equalizers"), C.name
        assert limits.find_pullbacks(C) == bag.get("pullbacks"), C.name
        if "products" in bag:
            assert exponentials.find_exponentials(C, bag) == bag.get("exponentials"), C.name
        if "terminal" in bag:
            assert classifier.find_subobject_classifier(C, bag) == bag.get("classifier"), C.name
        # the colimit duals search the opposite category
        Cop = opposite(C)
        for shape in (limits.TERMINAL, limits.PRODUCTS, limits.EQUALIZERS):
            assert limits.find_table(shape, Cop) == limit_oracles.generic_table(shape, Cop), (
                C.name, shape.name)
        prods = limits.find_binary_coproducts(C)
        assert (prods is None) == (limit_oracles.generic_table(limits.PRODUCTS, Cop) is None)


def test_no_category_that_is_not_thin_has_products():
    """A finite category with binary products is thin (Freyd)."""
    not_thin = [i for i, C in enumerate(corpus()) if C.down_sets is None]
    assert not_thin
    for i in not_thin:
        assert "products" not in oracle_bag(i), corpus()[i].name


def test_a_thin_category_has_a_classifier_exactly_when_its_arrows_are_isos():
    """In a thin category every arrow is monic and every mono a classifier
    classifies is an iso."""
    seen = set()
    for i, C in enumerate(corpus()):
        if C.down_sets is None:
            continue
        bag = oracle_bag(i)
        all_isos = all(C.hom(y, x) for x, y in C.hom_map)
        assert ("classifier" in bag) == ("terminal" in bag and all_isos), C.name
        seen.add(("classifier" in bag, "terminal" in bag))
    assert {(True, True), (False, True), (False, False)} <= seen


def _keys_to_first_gap(shape, C) -> int:
    """The keys a table search visits: as far as the first key without a
    limit, by the loops over cones."""
    keys, loop = shape.keys(C), limit_oracles.CONE_LOOPS[shape.name]
    return next((i + 1 for i, key in enumerate(keys)
                 if limit_oracles.find_limit(shape, C, key, loop) is None), len(keys))


def _ticks(call) -> int:
    core.set_search_budget(10**18)
    try:
        call()
        return core._budget.used
    finally:
        core.set_search_budget(None)


def _routes():
    """(name, category, call, its ticks) for each new route; the category's
    down-sets are computed before the call, so the ticks are the route's."""
    chain, f2 = chain_poset(3), finset_fragment(2)
    term = limits.find_terminal(chain)
    prods = limits.find_binary_products(chain)
    eq = limits.find_equalizers(chain)[(0, 0)]
    pb = limits.find_pullbacks(chain)[(1, 1)]
    exp = exponentials.find_exponentials(chain, {"products": prods})[(1, 2)]
    n_par, n_cospans = len(limits.parallel_pairs(chain)), len(limits.cospan_pairs(chain))
    f2_term = limits.find_terminal(f2)
    f2_eq = next(iter(limits.find_equalizers(f2).values()))
    f2_pb = next(iter(limits.partial_table(limits.PULLBACKS, f2).values()))
    return [
        ("thin terminal", chain, lambda: limits.find_terminal(chain), 1),
        ("thin products", chain, lambda: limits.find_binary_products(chain), 9),
        ("thin equalizers", chain, lambda: limits.find_equalizers(chain), n_par),
        ("thin pullbacks", chain, lambda: limits.find_pullbacks(chain), n_cospans),
        ("thin exponentials", chain,
         lambda: exponentials.find_exponentials(chain, {"products": prods}), 9),
        ("thin is_terminal", chain, lambda: limits.is_terminal(chain, term.t), 1),
        ("thin is_binary_product", chain, lambda: limits.is_binary_product(chain, prods[(1, 2)]), 1),
        ("thin is_equalizer", chain, lambda: limits.is_equalizer(chain, eq), 1),
        ("thin is_pullback", chain, lambda: limits.is_pullback(chain, pb), 1),
        ("thin is_exponential", chain, lambda: exponentials.is_exponential(chain, prods, exp), 1),
        ("products refuted", f2, lambda: limits.find_binary_products(f2), 1),
        # the terminal check, then the refutation
        ("classifier refuted", chain,
         lambda: classifier.find_subobject_classifier(chain, {"terminal": term}), 2),
        ("counted equalizers", f2, lambda: limits.find_equalizers(f2), len(limits.parallel_pairs(f2))),
        ("counted terminal", f2, lambda: limits.find_terminal(f2), 1),
        ("counted pullbacks", f2, lambda: limits.find_pullbacks(f2), _keys_to_first_gap(
            limits.PULLBACKS, f2)),
        ("counted partial products", f2, lambda: limits.partial_table(limits.PRODUCTS, f2),
         f2.n_objects ** 2),
        ("counted is_terminal", f2, lambda: limits.is_terminal(f2, f2_term.t), 1),
        ("counted is_equalizer", f2, lambda: limits.is_equalizer(f2, f2_eq), 1),
        ("counted is_pullback", f2, lambda: limits.is_pullback(f2, f2_pb), 1),
        ("is_mono", f2, lambda: classifier.is_mono(f2, f2.n_morphisms - 1), 1),
    ]


@pytest.mark.parametrize("name", [name for name, *_ in _routes()])
def test_each_route_ticks_once_per_key_or_call_and_stops_at_a_zero_budget(name):
    _, C, call, ticks = next(r for r in _routes() if r[0] == name)
    C.down_sets
    assert _ticks(call) == ticks
    core.set_search_budget(0)
    try:
        with pytest.raises(SearchBudgetExceeded):
            call()
    finally:
        core.set_search_budget(None)


def test_the_thinness_scan_ticks_once_per_hom_set_it_visits():
    for C in (chain_poset(4), finset_fragment(2)):
        homs = list(C.hom_map.values())
        first_two = next((i for i, fs in enumerate(homs) if len(fs) > 1), None)
        want = len(homs) if first_two is None else first_two + 1
        # a fresh instance on the same tables, with no cached down-sets
        assert _ticks(lambda: dataclasses.replace(C).down_sets) == want
        core.set_search_budget(want - 1)
        try:
            with pytest.raises(SearchBudgetExceeded):
                dataclasses.replace(C).down_sets
        finally:
            core.set_search_budget(None)


@pytest.mark.parametrize("C, token", [
    (chain_poset(3), "products"),
    (chain_poset(3), "exponentials"),
    (chain_poset(3), "omega"),
    (finset_fragment(2), "products"),
    (finset_fragment(2), "equalizers"),
])
def test_the_cli_exits_2_when_a_route_exhausts_the_budget(C, token, tmp_path, monkeypatch,
                                                          capsys):
    """A cap one short of what validation and the search spend stops the
    search at the route's last tick."""
    doc = category_to_json(C)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))

    def spend():
        D = validate_category(json.loads(json.dumps(doc)))
        find_bag(D, with_dependencies([TOKEN_TO_KIND[token]]))

    cap = _ticks(spend) - 1
    monkeypatch.setenv("CATKIT_MAX_SEARCH", str(cap))
    assert main(["analyze", str(path), "--structure", token, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "SearchBudgetExceeded"


def test_an_exponential_check_keeps_the_generic_verdict_off_the_objects():
    """A products table with entries at keys outside the category: a
    candidate whose obj is not an object, whose own product entry is then
    such a key, gets the verdict of the loop over cones."""
    C = chain_poset(3)
    prods = limits.find_binary_products(C)
    G = limit_oracles.generic_view(C)
    for x in range(C.n_objects):
        bad = {**prods, (-1, x): prods[(0, x)], (C.n_objects, x): prods[(0, x)]}
        for obj in (-1, C.n_objects):
            for y in range(C.n_objects):
                for ev in range(C.n_morphisms):
                    w = exponentials.ExponentialW(x, y, obj, ev)
                    want = limit_oracles.is_exponential(C, bad, w)
                    assert exponentials.is_exponential(C, bad, w) == want, w
                    assert exponentials.is_exponential(G, bad, w) == want, w
