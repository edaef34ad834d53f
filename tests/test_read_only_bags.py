"""Everything a structured completion or factorization holds is read-only.

Bags, carried and found tables, chi tables and every certificate dict are
mapping views that nothing else holds, so an assignment to any of them
raises ``TypeError``; a supplied witness is held as a read-only copy, and
the ``find_*`` tables a search returns stay plain dicts.
"""
import dataclasses
from collections.abc import Mapping

import pytest

from catkit.completion import inflate, skeletize
from catkit.core import Functor, identity_functor
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
from catkit.lifting import KINDS, complete_structured, factor_structured
from catkit.limits import PULLBACKS, find_binary_products, find_equalizers, find_table

pytestmark = pytest.mark.filterwarnings("ignore:target")

HVALUED = skeletize(hvalued_sets(heyting_chain(2), max_carrier=2)).completed
INFLATIONS = {
    "chain4": inflate(chain_poset(4), [1, 2, 2, 3])[0],
    "diamond": inflate(heyting_category(heyting_diamond()), 2)[0],
    "codiscrete3": inflate(setoid_groupoid(3, {(0, 1), (1, 2)}), [2, 1, 2])[0],
    "finset2": inflate(finset_fragment(2), [1, 1, 2])[0],
    "hvalued": inflate(HVALUED, [3, 2, 2])[0],
}


def _corpus():
    for seed in range(30):
        C = random_category(seed)
        yield f"random{seed}", C
        yield f"random{seed}-inflated", inflate(C, [1 + x % 2 for x in range(C.n_objects)])[0]
    yield from INFLATIONS.items()


def _mappings(x, path=()):
    """Every mapping reachable from x through mappings and the fields of
    witnesses and certificates, each with its path; functors, categories
    and completion results are not walked."""
    if isinstance(x, Mapping):
        yield path, x
        for key, value in x.items():
            yield from _mappings(value, (*path, key))
    elif dataclasses.is_dataclass(x) and not isinstance(x, Functor):
        for field in dataclasses.fields(x):
            if field.name not in ("result", "factorization"):
                yield from _mappings(getattr(x, field.name), (*path, field.name))


def _assert_read_only(x, where) -> int:
    n = 0
    for path, mapping in _mappings(x):
        key = next(iter(mapping), "absent")
        with pytest.raises(TypeError):
            mapping[key] = None
        assert mapping.get(key, "absent") is not None, (where, path)
        n += 1
    return n


def _factorizations(sc):
    """Into the completion by eta, the reuse route, and into the source by
    its identity, the fresh route, which searches the source."""
    yield factor_structured(sc, sc.result.eta)
    yield factor_structured(sc, identity_functor(sc.result.source))


def test_every_mapping_of_a_completion_and_its_factorizations_is_read_only():
    walked = 0
    for name, C in _corpus():
        sc = complete_structured(C)
        if not sc.kinds:
            continue
        walked += _assert_read_only(sc, name)
        for sf in _factorizations(sc):
            walked += _assert_read_only(sf, name)
    assert walked > 2000


def test_a_supplied_witness_is_held_as_a_read_only_copy():
    for name in ("chain4", "codiscrete3", "hvalued"):
        C = INFLATIONS[name]
        found = complete_structured(C)
        supplied = {k: dict(w) if isinstance(w, Mapping) else w for k, w in found.source.items()}
        if "classifier" in supplied:
            w = supplied["classifier"]
            supplied["classifier"] = dataclasses.replace(w, chi=dict(w.chi))
        sc = complete_structured(C, witnesses=supplied)
        _assert_read_only(sc, name)
        for k, w in supplied.items():
            assert sc.source[k] == w, (name, k)
            if isinstance(w, Mapping):
                assert sc.source[k] is not w
                w.clear()
        # the supplier's tables are theirs: clearing them leaves the completion whole
        for k in sc.kinds:
            KINDS[k].check(C, sc.source)
        target = {k: dict(w) for k, w in sc.completed.items() if isinstance(w, Mapping)}
        sf = factor_structured(sc, sc.result.eta, target)
        _assert_read_only(sf, name)
        for k, w in target.items():
            assert sf.target[k] == w and sf.target[k] is not w, (name, k)


def test_the_searches_still_return_plain_dicts():
    C = inflate(chain_poset(3), [1, 2, 2])[0]
    for table in (find_binary_products(C), find_equalizers(C), find_table(PULLBACKS, C)):
        assert type(table) is dict
