"""Every tabulated construction keeps its indices.

Each constructor's output is hashed as (name, objects, labels, sources,
targets, identities, composition table), and each functor it returns as its
name, the hashes of its ends and its object and morphism maps.  The hashes
over a fixed corpus are pinned in ``constructions_pinned.json``; a
constructor that moves a single index or relabels a single morphism fails
here even when the category it builds is still isomorphic to the old one.

Running this file as a script prints the corpus's current hashes as JSON.
Regenerate the pinned file only for a deliberate change of output.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from catkit.cli import _demo_specs
from catkit.completion import full_subcategory, inflate, inflate_section, skeletize
from catkit.core import FinCat, Functor, functor
from catkit.generators import (
    _LATTICE_CATALOG,
    MonadW,
    _small_monoids,
    chain_poset,
    delooping,
    discrete,
    finset_fragment,
    functor_category,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    hvalued_sets,
    identity_monad,
    karoubi_envelope,
    kleisli,
    poset_from_pairs,
    preorder_cat,
    product_category,
    random_category,
    random_weak_equivalence,
    setoid_groupoid,
    terminal_cat,
    walking_iso,
)

PINNED = Path(__file__).resolve().parent / "constructions_pinned.json"


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def category_digest(C: FinCat) -> str:
    return _sha((C.name, C.objects, C.mor_labels, C.mor_src, C.mor_dst, C.identity, C.comp_table))


def functor_digest(F: Functor) -> str:
    return _sha((F.name, category_digest(F.source), category_digest(F.target), F.obj_map, F.mor_map))


def closure_monad(n: int, k: int) -> tuple[FinCat, MonadW]:
    """The monad x |-> max(x, k) on chain_poset(n), a closure operator, so
    its Kleisli category is a preorder that is not a poset."""
    C = chain_poset(n)
    c = [max(x, k) for x in range(n)]

    def le(a: int, b: int) -> int:
        return C.hom(a, b)[0]

    T = functor(C, C, c, [le(c[C.mor_src[f]], c[C.mor_dst[f]]) for f in range(C.n_morphisms)])
    return C, MonadW(T, tuple(le(x, c[x]) for x in range(n)), tuple(C.identity[c[x]] for x in range(n)))


def _monoids() -> list[FinCat]:
    return [delooping([list(r) for r in t], name=f"monoid{i}") for i, t in enumerate(_small_monoids())]


def _cases():
    """(key, category or functor) over the fixed corpus, in a fixed order."""
    for n in range(7):
        yield f"chain{n}", chain_poset(n)
    for name, els, strict in _LATTICE_CATALOG:
        yield f"lattice-{name}", poset_from_pairs(list(els), set(strict), name=name)
    loose = {(a, a) for a in "abc"} | {("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")}
    yield "preorder-abc", preorder_cat(["a", "b", "c"], loose)
    yield "heyting-chain3", heyting_category(heyting_chain(3))
    yield "heyting-diamond", heyting_category(heyting_diamond())
    for n, pairs in [(1, set()), (3, {(0, 2)}), (4, {(0, 1), (2, 3)}), (5, {(0, 4), (1, 2), (2, 3)})]:
        yield f"setoid{n}-{sorted(pairs)}", setoid_groupoid(n, pairs)
    for k in range(4):
        yield f"finset{k}", finset_fragment(k)

    bases = {
        "chain3": chain_poset(3),
        "iso": walking_iso(),
        "finset2": finset_fragment(2),
        "setoid": setoid_groupoid(3, {(0, 1)}),
    }
    monoids = _monoids()
    for A in (terminal_cat(), discrete(2), chain_poset(2), walking_iso()):
        for C in (chain_poset(2), chain_poset(3), walking_iso(), finset_fragment(1)):
            cat, functors = functor_category(A, C)
            key = f"functors[{A.name},{C.name}]"
            yield key, cat
            for i, F in enumerate(functors):
                yield f"{key}/F{i}", F

    for key, C in [*bases.items(), ("monoid5", monoids[5])]:
        K, embed = kleisli(C, identity_monad(C))
        yield f"kleisli-id-{key}", K
        yield f"kleisli-id-{key}/embed", embed
    for n, k in [(3, 1), (4, 2), (5, 1), (6, 3)]:
        K, embed = kleisli(*closure_monad(n, k))
        yield f"kleisli-closure({n},{k})", K
        yield f"kleisli-closure({n},{k})/embed", embed

    for key, C in [*bases.items(), *((f"monoid{i}", M) for i, M in enumerate(monoids))]:
        K, embed = karoubi_envelope(C)
        yield f"karoubi-{key}", K
        yield f"karoubi-{key}/embed", embed

    for key, H, carrier in [
        ("chain2", heyting_chain(2), 1),
        ("chain2", heyting_chain(2), 2),
        ("chain3", heyting_chain(3), 1),
        ("chain3", heyting_chain(3), 2),
        ("diamond", heyting_diamond(), 1),
        ("diamond", heyting_diamond(), 2),
    ]:
        yield f"hsets-{key}-{carrier}", hvalued_sets(H, carrier)

    factors = [chain_poset(2), walking_iso(), monoids[3], setoid_groupoid(2, {(0, 1)}), finset_fragment(1)]
    for i, A in enumerate(factors):
        for j, B in enumerate(factors):
            yield f"product{i}x{j}", product_category(A, B)

    for seed in range(300):
        yield f"random{seed}", random_category(seed)
    for seed in range(50):
        yield f"random{seed}-max3", random_category(seed, max_objects=3)
        proj = random_weak_equivalence(seed)
        yield f"random-we{seed}/source", proj.source
        yield f"random-we{seed}/proj", proj

    for key, C, copies in [
        ("chain3", chain_poset(3), 2),
        ("chain3", chain_poset(3), [1, 3, 2]),
        ("iso", walking_iso(), [2, 1]),
        ("finset2", finset_fragment(2), [1, 1, 2]),
        ("monoid5", monoids[5], 3),
        ("setoid", bases["setoid"], [2, 1, 1]),
    ]:
        key = f"inflate-{key}-{copies}"
        infl, proj = inflate(C, copies)
        yield key, infl
        yield f"{key}/proj", proj
        yield f"{key}/section", inflate_section(proj)
        cr = skeletize(infl)
        yield f"{key}/skeleton", cr.completed
        yield f"{key}/eta", cr.eta
        yield f"{key}/inclusion", cr.inclusion
        for ids in ([0], [infl.n_objects - 1, 0], list(range(0, infl.n_objects, 2))):
            sub, incl = full_subcategory(infl, ids)
            yield f"{key}/full{ids}", sub
            yield f"{key}/full{ids}/incl", incl

    for name, spec in _demo_specs().items():
        source, result, _ = spec()
        yield f"demo-{name}/source", source
        yield f"demo-{name}/result", result


def current_digests() -> dict[str, str]:
    out = {}
    for key, value in _cases():
        assert key not in out, key
        out[key] = category_digest(value) if isinstance(value, FinCat) else functor_digest(value)
    return out


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return current_digests()


def test_the_corpus_is_the_pinned_one(digests):
    assert sorted(digests) == sorted(json.loads(PINNED.read_text(encoding="utf-8")))


@pytest.mark.parametrize("prefix", [
    "chain", "lattice-", "preorder-", "heyting-", "setoid", "finset", "functors[",
    "kleisli-", "karoubi-", "hsets-", "product", "random", "inflate-", "demo-",
])
def test_constructions_match_their_pinned_digests(digests, prefix):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    moved = [k for k in pinned if k.startswith(prefix) and digests.get(k) != pinned[k]]
    assert [k for k in pinned if k.startswith(prefix)], prefix
    assert moved == []


if __name__ == "__main__":
    json.dump(current_digests(), sys.stdout, indent=1)
    sys.stdout.write("\n")
