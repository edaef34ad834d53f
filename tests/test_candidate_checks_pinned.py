"""The candidate checks of the four entry points are pinned per input.

Candidate checks are the ticks of the search budget, which do not depend on
the machine.  For each input below, a fresh instance (no cached order scan)
is counted under ``set_search_budget(10**18)`` in four calls:
``find_bag(C, KIND_ORDER)``, ``complete_structured(C)``,
``factor_structured(sc, eta)`` on that completion and its own eta, and
``validate_category`` on ``category_to_json(C)``.  The inputs are the
paper's two non-thin families, the H-valued sets over the diamond and an
inflated finset fragment, the five inputs of the benchmark's
structured-pipeline workload, and the 810-morphism inflated chain.  Any
change of a count fails: a faster route that searches more is a
regression even when wall time hides it.

Running this file as a script prints the current counts as JSON.
Regenerate the pinned file only for a deliberate change of the search.
"""
import dataclasses
import json
import sys
from functools import cache
from pathlib import Path

import pytest

from catkit import core
from catkit.completion import inflate
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_category,
    heyting_diamond,
    hvalued_sets,
)
from catkit.interchange import category_to_json, validate_category
from catkit.lifting import KIND_ORDER, complete_structured, factor_structured, find_bag

PINNED = Path(__file__).resolve().parent / "candidate_checks_pinned.json"

# every target here is an inflation, so no factorization through it is rigid
pytestmark = pytest.mark.filterwarnings("ignore:target")


@cache
def inputs():
    diamond = heyting_category(heyting_diamond())
    out = {
        "hvalued_sets(diamond, 2)": hvalued_sets(heyting_diamond(), 2),
        "finset_fragment(3)[1, 2, 2, 3]": inflate(finset_fragment(3), [1, 2, 2, 3])[0],
    }
    # the structured-pipeline workload's bases and copy counts
    for name, base, copies in (("chain4", chain_poset(4), [3, 4, 4, 5]),
                               ("chain4", chain_poset(4), [2, 3, 3, 3]),
                               ("chain5", chain_poset(5), [1, 1, 2, 2, 2]),
                               ("chain4", chain_poset(4), [1, 2, 2, 3]),
                               ("diamond", diamond, [2, 2, 2, 2]),
                               ("chain4", chain_poset(4), [9, 9, 9, 9])):
        out[f"{name}{copies}"] = inflate(base, copies)[0]
    return out


def _ticks(call) -> int:
    core.set_search_budget(10**18)
    try:
        call()
        return core._budget.used
    finally:
        core.set_search_budget(None)


def counts(C) -> dict[str, int]:
    fresh = lambda: dataclasses.replace(C)   # noqa: E731 - no per-instance cache
    out = {"find_bag": _ticks(lambda: find_bag(fresh(), KIND_ORDER))}
    done = []
    out["complete_structured"] = _ticks(lambda: done.append(complete_structured(fresh())))
    sc = done[0]
    out["factor_structured"] = _ticks(lambda: factor_structured(sc, sc.result.eta))
    doc = category_to_json(fresh())
    out["validate_category"] = _ticks(lambda: validate_category(doc))
    return out


@cache
def current() -> dict[str, dict[str, int]]:
    return {name: counts(C) for name, C in inputs().items()}


def test_the_pinned_inputs_are_the_inputs():
    assert list(json.loads(PINNED.read_text())) == list(inputs())


@pytest.mark.parametrize("name", list(json.loads(PINNED.read_text())))
def test_candidate_checks_are_pinned(name):
    assert current()[name] == json.loads(PINNED.read_text())[name]


if __name__ == "__main__":
    sys.stdout.write(json.dumps(current(), indent=1) + "\n")
