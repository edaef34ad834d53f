"""The composable-tuple walks of ``check_category_tables`` and
``check_functor`` against the all-pairs loops kept in ``law_oracles``: the
same verdict and the same first offence (class and message) on the generator
corpus and on tables with one entry mutated, for every law; and the
generating set whose members are the associativity check's only middles
against its definition."""
import random
from collections import Counter
from functools import cache

import pytest

import law_oracles
from catkit.completion import inflate, skeletize
from catkit import core
from catkit.core import Functor, check_category_tables, check_functor, fincat, set_search_budget
from catkit.errors import (
    AssociativityViolation,
    CatkitError,
    CompositionNotPreserved,
    IdentityNotPreserved,
    IllTypedComposite,
    MissingComposite,
    SearchBudgetExceeded,
    UnitLawViolation,
)
from catkit.generators import discrete, finset_fragment, random_category


@cache
def corpus():
    out = [random_category(seed) for seed in range(120)]
    out += [finset_fragment(n) for n in range(4)]
    for seed in range(30):
        C = random_category(seed)
        out.append(inflate(C, [1 + (seed + x) % 2 for x in range(C.n_objects)])[0])
    out.append(inflate(finset_fragment(2), 2)[0])
    return tuple(out)


def _outcome(check, X):
    try:
        check(X)
    except CatkitError as e:
        return type(e), str(e)
    return None


def _composable(C):
    m = range(C.n_morphisms)
    return [(f, g) for f in m for g in m if C.mor_dst[f] == C.mor_src[g]]


# Each mutation lists (f, g, value) edits of one entry that break one law.


def _defined_where_not_composable(C):
    m = range(C.n_morphisms)
    return [(f, g, (f + g) % C.n_morphisms) for f in m for g in m
            if C.mor_dst[f] != C.mor_src[g]]


def _missing_composite(C):
    return [(f, g, None) for f, g in _composable(C)]


def _ill_typed_composite(C):
    out = []
    for f, g in _composable(C):
        wrong = [h for h in range(C.n_morphisms)
                 if (C.mor_src[h], C.mor_dst[h]) != (C.mor_src[f], C.mor_dst[g])]
        if wrong:
            out.append((f, g, wrong[(f + g) % len(wrong)]))
    return out


def _other_parallel(C, f):
    return [h for h in C.hom(C.mor_src[f], C.mor_dst[f]) if h != f]


def _left_unit(C):
    return [(C.identity[C.mor_src[f]], f, h)
            for f in range(C.n_morphisms) for h in _other_parallel(C, f)[:1]]


def _right_unit(C):
    return [(f, C.identity[C.mor_dst[f]], h)
            for f in range(C.n_morphisms) for h in _other_parallel(C, f)[:1]]


def _associativity(C):
    return [(f, g, h) for f, g in _composable(C)
            if not C.is_identity(f) and not C.is_identity(g)
            for h in _other_parallel(C, C.comp_table[f][g])[:1]]


MUTATIONS = {
    "defined-where-not-composable": (_defined_where_not_composable, IllTypedComposite),
    "missing-composite": (_missing_composite, MissingComposite),
    "ill-typed-composite": (_ill_typed_composite, IllTypedComposite),
    "left-unit": (_left_unit, UnitLawViolation),
    "right-unit": (_right_unit, UnitLawViolation),
    "associativity": (_associativity, AssociativityViolation),
}


def test_corpus_verdicts_match_the_oracle():
    for C in corpus():
        assert _outcome(check_category_tables, C) is None, C.name
        assert _outcome(law_oracles.check_category_tables, C) is None, C.name


@pytest.mark.parametrize("law", list(MUTATIONS))
def test_one_mutated_entry_gives_the_oracles_first_offence(law):
    sites, expected = MUTATIONS[law]
    seen = Counter()
    for k, C in enumerate(corpus()):
        edits = sites(C)
        for f, g, value in random.Random(k).sample(edits, min(3, len(edits))):
            bad = law_oracles.with_entry(C, f, g, value)
            got = _outcome(check_category_tables, bad)
            assert got == _outcome(law_oracles.check_category_tables, bad), (C.name, f, g, value)
            seen[got[0] if got else None] += 1
    # the mutation reaches the law it targets, so the parity is not vacuous
    assert seen[expected] > 0, seen


def test_the_walk_ticks_the_budget_once_per_composable_triple():
    for C in (finset_fragment(2), corpus()[-1]):
        triples = law_oracles.generator_middle_triples(C)
        try:
            set_search_budget(triples)
            check_category_tables(C)
            set_search_budget(triples - 1)
            with pytest.raises(SearchBudgetExceeded):
                check_category_tables(C)
        finally:
            set_search_budget(None)


def test_the_generating_set_and_its_ticks_match_the_oracle():
    seen = Counter()
    for C in corpus():
        assert core._generating_set(C) == law_oracles.generating_set(C), C.name
        triples = law_oracles.generator_middle_triples(C)
        assert triples <= law_oracles.composable_triples(C), C.name
        # a thin table's laws follow from its typing, with no associativity tick
        thin = law_oracles.is_thin(C)
        want = 0 if thin else triples
        seen[thin] += triples > 0
        try:
            set_search_budget(want)
            check_category_tables(C)
            assert core._budget.used == want, C.name
        finally:
            set_search_budget(None)
    # members with generator triples take each route, so neither is vacuous
    assert seen[True] > 0 and seen[False] > 0, seen


def test_every_non_identity_morphism_is_a_composite_of_the_generating_set():
    for C in corpus():
        reached = law_oracles.composites(C, core._generating_set(C))
        assert all(f in reached for f in range(C.n_morphisms) if not C.is_identity(f)), C.name


def test_an_offence_at_a_middle_outside_the_generating_set_is_found():
    seen = 0
    for k, C in enumerate(corpus()):
        edits = _associativity(C)
        for f, g, value in random.Random(k).sample(edits, min(10, len(edits))):
            bad = law_oracles.with_entry(C, f, g, value)
            offence = law_oracles.first_associativity_offence(bad)
            if offence is None or offence[1] in core._generating_set(bad):
                continue
            got = _outcome(check_category_tables, bad)
            assert got == _outcome(law_oracles.check_category_tables, bad), (C.name, f, g, value)
            assert got[0] is AssociativityViolation
            seen += 1
    assert seen > 0


def test_a_discrete_category_takes_no_associativity_ticks():
    C = discrete(5)
    assert core._generating_set(C) == []
    try:
        set_search_budget(0)
        check_category_tables(C)
        assert core._budget.used == 0
    finally:
        set_search_budget(None)


def test_without_non_trivial_composites_every_non_identity_is_a_generator():
    # three arrows into b, none composable with another
    C = fincat("fan", ["a", "b", "c"], ["1a", "1b", "1c", "f", "g", "h"],
               [0, 1, 2, 0, 0, 2], [0, 1, 2, 1, 1, 1], [0, 1, 2], {})
    assert core._generating_set(C) == [3, 4, 5] == law_oracles.generating_set(C)


def test_mutated_eta_gives_the_oracles_first_offence():
    seen = Counter()
    for k, C in enumerate(corpus()):
        eta = skeletize(C).cert.functor
        D = eta.target
        rng = random.Random(k)
        for f in rng.sample(range(C.n_morphisms), min(3, C.n_morphisms)):
            image = eta.mor_map[f]
            parallel = [h for h in D.hom(D.mor_src[image], D.mor_dst[image]) if h != image]
            for value in [rng.randrange(D.n_morphisms)] + parallel[:1]:
                mor_map = eta.mor_map[:f] + (value,) + eta.mor_map[f + 1:]
                F = Functor(C, D, eta.obj_map, mor_map, eta.name)
                got = _outcome(check_functor, F)
                assert got == _outcome(law_oracles.check_functor, F), (C.name, f, value)
                seen[got[0] if got else None] += 1
    assert seen[CompositionNotPreserved] > 0 and seen[IdentityNotPreserved] > 0, seen
