"""Guards of the keyed-limit shape table: the pair enumerations, the witness
choices, and the benchmark's span targets."""
import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from catkit.completion import inflate
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_category,
    heyting_diamond,
    random_category,
)
from catkit.interchange import structure_to_json
from catkit.lifting import complete_structured
from catkit.limits import (
    cospan_pairs,
    find_equalizers,
    find_pullbacks,
    parallel_pairs,
    partial_binary_products,
)

ROOT = Path(__file__).resolve().parent.parent


def _pair_corpus():
    yield from (random_category(seed) for seed in range(40))
    yield inflate(chain_poset(4), [1, 2, 2, 3])[0]
    yield inflate(heyting_category(heyting_diamond()), [2, 2, 2, 2])[0]


def test_pair_lists_equal_the_double_loop_definition():
    for C in _pair_corpus():
        m = range(C.n_morphisms)
        cospans = [(f, g) for f in m for g in m if C.mor_dst[f] == C.mor_dst[g]]
        parallel = [(f, g) for f, g in cospans if C.mor_src[f] == C.mor_src[g]]
        assert parallel_pairs(C) == parallel, C.name
        assert cospan_pairs(C) == cospans, C.name


# sha1 of the sorted JSON of each witness table, recorded before the keyed
# limits were moved onto one shape table: a change here is a changed choice
PINNED = {
    "finset2": "7bd223fa06a7d35547d3d20816f180d77e0190cb",
    "random0": "ceb8a3eb03e4e44c458db3f4c6a4b61a5d5b7b4c",
    "random1": "2cd40af8f76372c978ab108aa20b1c7a34e0c6e4",
    "random2": "1aa6eec4287e077fd1ba72eb37a94a98de10f66a",
    "random3": "2cd40af8f76372c978ab108aa20b1c7a34e0c6e4",
    "random4": "993706fd8bdbae4a0114365cfe135184bedfb4b5",
    "random5": "ceb8a3eb03e4e44c458db3f4c6a4b61a5d5b7b4c",
    "random6": "0f70fdaf8d59ba345976dcd9f6e7e68a172d623c",
    "random7": "08bc9530b3d063368ac4497a1f8a057cb8528439",
    "random8": "993706fd8bdbae4a0114365cfe135184bedfb4b5",
    "random9": "2c1b141cc4c9d040528635bc343427bcbe29face",
    "random10": "29b02d16c10a0005037643b5227f7d866f7f0c27",
    "random11": "da8e2ecceeebfb84c30332a3e865803e3d98b953",
    "random12": "18d83aa5b9d6bf72bbfa3e9ba799b5693cfef520",
    "random13": "ea7fd19f777a4d3bdb638d83647b79c7cbe4072b",
    "random14": "2cd40af8f76372c978ab108aa20b1c7a34e0c6e4",
    "random15": "fc48498ca62f9eea07cc89b95f145d375afad349",
    "random16": "af5543707dbe8ab433b0270d35c47d2ead6d0c4f",
    "random17": "ceb8a3eb03e4e44c458db3f4c6a4b61a5d5b7b4c",
    "random18": "fc48498ca62f9eea07cc89b95f145d375afad349",
    "random19": "dc9b400b68ef9d26a57ed25505b2a5a3cff71396",
    "chain4-1223.source": "01d9c4c0c14b9c46cc9aa11709c4994d57aabcbb",
    "chain4-1223.completed": "9fcb47cc23202d993725dcd57d0cb935089c192e",
}


def _digest(C, bag):
    doc = structure_to_json(C, {k: v for k, v in bag.items() if v is not None})
    return hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", [n for n in PINNED if not n.startswith("chain4")])
def test_keyed_limit_choices_are_pinned(name):
    C = finset_fragment(2) if name == "finset2" else random_category(int(name[len("random"):]))
    bag = {
        "products": partial_binary_products(C),
        "equalizers": find_equalizers(C),
        "pullbacks": find_pullbacks(C),
    }
    assert _digest(C, bag) == PINNED[name]


def test_structured_completion_choices_are_pinned():
    C, _ = inflate(chain_poset(4), [1, 2, 2, 3])
    sc = complete_structured(C)
    assert _digest(C, sc.source) == PINNED["chain4-1223.source"]
    assert _digest(sc.result.completed, sc.completed) == PINNED["chain4-1223.completed"]


def test_benchmark_span_targets_resolve(monkeypatch):
    """The traced benchmark wraps each span target by name; a target renamed
    away would only show when the benchmark runs."""
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)   # dataclasses look it up
    spec.loader.exec_module(layers)
    for span in layers.SPANS:
        owner, attr = span.target
        if owner == "KINDS":
            continue
        fn = getattr(importlib.import_module(f"catkit.{owner}"), attr, None)
        assert callable(fn), span.name
