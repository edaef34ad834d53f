"""The document writer and ``core.tabulate`` walk the composable pairs
only.  Each is compared here with the route over every pair or key that it
replaced, kept in ``law_oracles``: the same composition block byte for
byte, and the same tables, entry index and ticks, or the same refusal."""
import json

import pytest

from catkit import completion, core, generators
from catkit.completion import inflate, skeletize
from catkit.core import set_search_budget, tabulate
from catkit.errors import CatkitError
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_diamond,
    hvalued_sets,
    random_category,
)
from catkit.interchange import category_to_json

from law_oracles import composition_block, tabulate_by_keys


def _corpus():
    """random_category(0..59), finset_fragment(3) and its [1, 2, 2, 3]
    inflation, the H-valued sets over the diamond, the 641-morphism
    inflated chain, and the skeleton of each."""
    cats = [random_category(seed) for seed in range(60)] + [
        finset_fragment(3),
        inflate(finset_fragment(3), [1, 2, 2, 3])[0],
        hvalued_sets(heyting_diamond(), 2),
        inflate(chain_poset(4), [9, 7, 8, 8])[0],
    ]
    return cats + [skeletize(C).completed for C in cats]


@pytest.fixture(scope="module")
def recorded():
    """The corpus, and the arguments of every tabulate call that built it."""
    calls = []

    def record(*args):
        calls.append(args)
        return tabulate(*args)

    with pytest.MonkeyPatch.context() as mp:
        for module in (completion, generators):
            mp.setattr(module, "tabulate", record)
        cats = _corpus()
    return cats, calls


def test_the_composition_block_is_the_walk_over_all_pairs(recorded):
    cats, _ = recorded
    assert len(cats) == 128 and max(C.n_morphisms for C in cats) == 906
    assert any(C.n_morphisms == 641 for C in cats)
    for C in cats:
        doc = category_to_json(C)
        want = dict(doc, composition=composition_block(C))
        assert json.dumps(doc) == json.dumps(want), C.name


def _outcome(route, args):
    """The category route builds from args, as its tables with the entry
    index, or its refusal as class and message; and the ticks it took."""
    set_search_budget(10**18)
    try:
        try:
            C, index = route(*args)
            out = (C.name, C.objects, C.mor_labels, C.mor_src, C.mor_dst, C.identity,
                   C.comp_table, index)
        except CatkitError as e:   # anything else fails the test
            out = (type(e), str(e))
        return out, core._budget.used
    finally:
        set_search_budget(None)


def _retabulated(C):
    """tabulate's arguments that rebuild C on its own morphism indices."""
    table = C.comp_table
    return (C.name, C.objects, list(range(C.n_morphisms)), C.mor_src, C.mor_dst,
            C.mor_labels, C.identity, lambda f, g: table[f][g])


def _mutants(args):
    """args with one thing wrong, by kind: a composite that is not an entry
    or is another one, an identity that is not an entry or is another one,
    one label too few or one too many."""
    name, objects, entries, mor_src, mor_dst, labels, identity, compose = args
    i = len(entries) // 2
    a, b = entries[i], entries[list(mor_src).index(mor_dst[i])]
    wrong = next((e for e in entries if e != compose(a, b)), object())

    def composing(value):
        return lambda s, t: value if (s, t) == (a, b) else compose(s, t)

    def identities(value):
        return [value, *identity[1:]]

    return {
        "composite-not-an-entry": args[:7] + (composing(object()),),
        "composite-another-entry": args[:7] + (composing(wrong),),
        "identity-not-an-entry": args[:6] + (identities(object()),) + args[7:],
        "identity-another-entry": args[:6] + (identities(a if a != identity[0] else wrong),)
        + args[7:],
        "label-missing": args[:5] + (list(labels[:-1]),) + args[6:],
        "label-extra": args[:5] + ([*labels, "extra"],) + args[6:],
    }


def _z3(entries, identity="0", compose=lambda a, b: str((int(a) + int(b)) % 3)):
    """tabulate's arguments for the cyclic group of order 3 on one object,
    its elements the given strings."""
    n = len(entries)
    return ("z3", ["*"], entries, [0] * n, [0] * n, [f"g{e}" for e in entries], [identity],
            compose)


_NONASSOC = {("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "a", ("b", "b"): "a"}

_Z3_CASES = [
    _z3(["2", "0", "1"]),
    _z3(["0", "1", "2"], identity="1"),
    _z3(["0", "1", "2"], identity="3"),
    _z3(["0", "1", "2"], compose=lambda a, b: str(int(a) + int(b))),
    ("nonassoc", ["x"], ["e", "a", "b"], [0, 0, 0], [0, 0, 0], ["e", "a", "b"], ["e"],
     lambda s, t: t if s == "e" else s if t == "e" else _NONASSOC[(s, t)]),
]


def test_tabulate_matches_fincat_over_keys(recorded):
    """Every tabulate call that built the corpus, the corpus retabulated,
    one mutant of each kind of every such call, and the cyclic-group cases
    give both routes the same outcome and ticks."""
    cats, calls = recorded
    assert len(calls) >= len(cats) // 2
    cases = calls + [_retabulated(C) for C in cats]
    refused = {}
    for args in cases:
        want = _outcome(tabulate_by_keys, args)
        assert not isinstance(want[0][0], type), args[0]
        assert _outcome(tabulate, args) == want, args[0]
        for kind, mutant in _mutants(args).items():
            want = _outcome(tabulate_by_keys, mutant)
            assert _outcome(tabulate, mutant) == want, (args[0], kind)
            if isinstance(want[0][0], type):
                refused.setdefault(kind, set()).add(want[0][:2])
    assert refused.keys() == _mutants(cases[0]).keys()
    # an entry past the labels is refused by fincat's key check
    assert any("names a missing morphism" in message for _, message in refused["label-missing"])
    outcomes = [_outcome(tabulate, args) for args in _Z3_CASES]
    assert outcomes == [_outcome(tabulate_by_keys, args) for args in _Z3_CASES]
    # the first builds; the others are refused
    assert [isinstance(out[0][0], type) for out in outcomes] == [False] + [True] * 4
