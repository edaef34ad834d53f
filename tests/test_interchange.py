"""JSON round-trips for categories, functors, and structure blocks."""
import copy
import json

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from catkit import core, interchange
from catkit.cli import main
from catkit.completion import inflate
from catkit.core import (
    FinCat,
    fincat,
    functors_equal,
    identity_functor,
    same_tables,
    set_search_budget,
)
from catkit.errors import (
    AssociativityViolation,
    CatkitError,
    CategoryValidationError,
    DanglingReference,
    IllTypedComposite,
    MalformedInput,
    MissingComposite,
    UnitLawViolation,
)
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_chain,
    hvalued_sets,
    random_category,
    setoid_groupoid,
    walking_iso,
)
from catkit.interchange import (
    category_to_json,
    functor_from_json,
    functor_to_json,
    structure_from_json,
    structure_to_json,
    validate_category,
)
from catkit.lifting import complete_structured
from law_oracles import is_thin, resolve_composition

seeds = st.integers(min_value=0, max_value=119)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_category_roundtrip(seed):
    C = random_category(seed)
    D = validate_category(category_to_json(C))
    assert same_tables(C, D)
    assert D.objects == C.objects
    assert D.mor_labels == C.mor_labels


def test_functor_roundtrip():
    C = walking_iso()
    F = identity_functor(C)
    doc = functor_to_json(F)
    G = functor_from_json(doc, {C.name: C})
    assert functors_equal(F, G)


def test_validate_rejects_missing_field():
    doc = category_to_json(walking_iso())
    del doc["objects"]
    with pytest.raises(MalformedInput) as e:
        validate_category(doc)
    assert e.value.pointer == "/objects"


def test_validate_rejects_bad_composite_with_pointer():
    doc = category_to_json(walking_iso())
    # point an entry at a morphism with the wrong endpoints
    doc["composition"][0][2] = doc["composition"][0][0]
    with pytest.raises(IllTypedComposite) as e:
        validate_category(doc)
    assert "/composition/0" in str(e.value)


def test_validate_dedups_objects_then_flags_dangling_refs():
    # duplicate object labels collapse to the first occurrence, after which
    # morphisms on the vanished object dangle
    doc = category_to_json(walking_iso())
    doc["objects"][1] = doc["objects"][0]
    with pytest.raises(DanglingReference):
        validate_category(doc)


def test_validate_rejects_unknown_identity():
    doc = category_to_json(walking_iso())
    doc["identities"][doc["objects"][0]] = "no-such-morphism"
    with pytest.raises(CategoryValidationError):
        validate_category(doc)


def test_structure_block_roundtrip():
    C = setoid_groupoid(3, {(0, 1), (1, 2)})
    sc = complete_structured(C)
    bag = sc.completed
    D = sc.result.completed
    doc = structure_to_json(D, bag)
    back = structure_from_json(doc, D)
    assert set(back) == set(bag)
    term = back["terminal"]
    assert term.t == bag["terminal"].t
    prods = back["products"]
    for key, w in bag["products"].items():
        assert prods[key].apex == w.apex
        assert prods[key].pi1 == w.pi1
        assert prods[key].pi2 == w.pi2


def test_structure_block_exponentials_and_classifier():
    S = setoid_groupoid(4, {(0, 1), (1, 2), (2, 3)})
    sc = complete_structured(S)
    bag, D = sc.completed, sc.result.completed
    assert "exponentials" in bag and "classifier" in bag and "pnno" in bag
    doc = structure_to_json(D, bag)
    back = structure_from_json(doc, D)
    exps = back["exponentials"]
    for key, w in bag["exponentials"].items():
        assert exps[key].obj == w.obj and exps[key].ev == w.ev
    soc = back["classifier"]
    assert soc.omega == bag["classifier"].omega
    assert soc.tau == bag["classifier"].tau
    assert soc.chi == bag["classifier"].chi
    assert back["pnno"].N == bag["pnno"].N


def test_structure_from_json_bad_label_pointer():
    C = finset_fragment(1)
    sc = complete_structured(C, kinds=("terminal",))
    doc = structure_to_json(sc.result.completed, sc.completed)
    doc["structure"]["terminal"] = "bogus"
    with pytest.raises(DanglingReference) as e:
        structure_from_json(doc, sc.result.completed)
    assert e.value.pointer is not None


def _shadowed_target():
    """The document of the completion of an inflated chain with its carried
    structure, as ``catkit complete --carry-structure`` writes it."""
    sc = complete_structured(inflate(chain_poset(3), [1, 2, 2])[0])
    D = sc.result.completed
    return D, {**category_to_json(D), **structure_to_json(D, sc.completed)}


def test_a_second_different_structure_entry_at_a_key_is_refused():
    D, doc = _shadowed_target()
    # an identical repeat is dropped
    twice = copy.deepcopy(doc)
    twice["structure"]["binproducts"].append(doc["structure"]["binproducts"][0])
    twice["exponentials"].append(doc["exponentials"][-1])
    assert structure_from_json(twice, D) == structure_from_json(doc, D)
    # a wrong entry before the valid one at its key, which used to shadow it
    products, exps = doc["structure"]["binproducts"], doc["exponentials"]
    assert products[0]["x1"] == products[0]["x2"] == "c0"
    for entries, wrong, pointer in (
        (products, {**products[0], "apex": "c2"}, "/structure/binproducts/1"),
        (exps, {**exps[0], "ev": "le_c0_c2"}, "/exponentials/1"),
    ):
        entries.insert(0, wrong)
        with pytest.raises(MalformedInput) as e:
            structure_from_json(doc, D)
        assert e.value.pointer == pointer
        entries.pop(0)


def test_category_json_lists_every_nonidentity_composite():
    # identity composites are implied by the unit laws and omitted
    C = finset_fragment(1)
    doc = category_to_json(C)
    ident = set(C.identity)
    n_pairs = sum(
        1
        for f in range(C.n_morphisms)
        for g in range(C.n_morphisms)
        if C.mor_dst[f] == C.mor_src[g] and f not in ident and g not in ident
    )
    assert len(doc["composition"]) == n_pairs


def _mutants(C):
    """C's document mutated three ways, by kind; a kind is left out when C
    offers no place for it."""
    doc = category_to_json(C)
    ends = {m["id"]: (m["src"], m["dst"]) for m in doc["morphisms"]}
    parallel = {
        f: [g for g in ends if g != f and ends[g] == ends[f]] for f in ends
    }
    out = {}
    if doc["composition"]:
        drop = copy.deepcopy(doc)
        del drop["composition"][0]
        out["drop"] = drop
    f = next((f for f in ends if parallel[f]), None)
    if f is not None:
        unit = copy.deepcopy(doc)
        unit["composition"].append([doc["identities"][ends[f][0]], f, parallel[f][0]])
        out["unit"] = unit
    k = next((k for k, t in enumerate(doc["composition"]) if parallel[t[2]]), None)
    if k is not None:
        retarget = copy.deepcopy(doc)
        retarget["composition"][k][2] = parallel[doc["composition"][k][2]][0]
        out["retarget"] = retarget
    return out


def test_mutated_documents_fail_with_a_pointer(tmp_path, capsys):
    """A dropped triple and a unit conflict must fail; a retargeted
    composite may still make a category, and otherwise breaks
    associativity.  Every failure points into the document, in the library
    and in the CLI's JSON report."""
    expected = {"drop": MissingComposite, "unit": UnitLawViolation}
    first_failure = {}
    n_assoc = 0
    for seed in range(40):
        for kind, doc in _mutants(random_category(seed)).items():
            try:
                validate_category(doc)
            except CategoryValidationError as e:
                assert e.pointer, (seed, kind, e)
                assert isinstance(e, expected.get(kind, AssociativityViolation)), (seed, kind, e)
                n_assoc += kind == "retarget"
                first_failure.setdefault(kind, (doc, type(e).__name__, e.pointer))
            else:
                assert kind == "retarget", (seed, kind)
    assert n_assoc > 0
    assert set(first_failure) == {"drop", "unit", "retarget"}
    for kind, (doc, name, pointer) in first_failure.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path), "--json"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["pointer"]) == (name, pointer), kind


# ---------------------------------------------------------------------------
# the composition pass against its label-by-label oracle


def _parity_corpus():
    """Documents with composition blocks: random categories, a finset
    fragment, an inflated chain, and the walking iso with one-character
    labels, so that a triple's labels also spell a string of labels."""
    docs = [category_to_json(random_category(seed)) for seed in range(0, 40, 4)]
    docs.append(category_to_json(finset_fragment(2)))
    docs.append(category_to_json(inflate(chain_poset(3), [1, 2, 2])[0]))
    docs.append({
        "name": "iso",
        "objects": ["a", "b"],
        "morphisms": [{"id": "f", "src": "a", "dst": "b"}, {"id": "g", "src": "b", "dst": "a"}],
        "identities": {"a": "i", "b": "j"},
        "composition": [["f", "g", "i"], ["g", "f", "j"]],
    })
    return [doc for doc in docs if doc["composition"]]


def _composition_mutants(doc, C):
    """doc with one entry of its composition block replaced (or, for the
    conflicting duplicate, appended), by kind; a kind is left out when C
    offers no place for it."""
    ends = {C.mor_labels[f]: (C.mor_src[f], C.mor_dst[f]) for f in range(C.n_morphisms)}
    comp = doc["composition"]
    k = len(comp) // 2
    f, g, fg = comp[k]
    entries = {
        "non-list": {"f": f, "g": g, "fg": fg},
        "wrong-length": [f, g],
        "str-triple": f + g + fg,
        "non-str-label": [f, 7, fg],
        "list-label": [f, [g], fg],
        "unknown-then-list": ["no-such-morphism", [g], fg],
        "unknown-label": [f, g, "no-such-morphism"],
    }
    apart = next(((x, y) for x in ends for y in ends if ends[x][1] != ends[y][0]), None)
    if apart:
        entries["not-composable"] = [*apart, fg]
    wrong = next((z for z in ends if ends[z] != (ends[f][0], ends[g][1])), None)
    if wrong:
        entries["wrong-endpoints"] = [f, g, wrong]
    out = {}
    for kind, entry in entries.items():
        mutant = copy.deepcopy(doc)
        mutant["composition"][k] = entry
        out[kind] = mutant
    twin = next((h for h in ends if h != fg and ends[h] == ends[fg]), None)
    if twin:
        out["conflicting-duplicate"] = copy.deepcopy(doc)
        out["conflicting-duplicate"]["composition"].append([f, g, twin])
    return out


def _outcome(run):
    try:
        return run()
    except CatkitError as e:   # anything else, a TypeError included, fails the test
        return type(e), str(e), e.pointer


def test_composition_pass_matches_the_label_by_label_oracle():
    """Each one-entry mutation fails with the oracle's class, message and
    pointer, and an intact block resolves to the oracle's composites."""
    kinds_seen = set()
    for doc in _parity_corpus():
        C = validate_category(doc)
        mor_index = {label: f for f, label in enumerate(C.mor_labels)}
        for (f, g), fg in resolve_composition(
            doc["composition"], mor_index, C.mor_src, C.mor_dst
        ).items():
            assert C.comp_table[f][g] == fg
        for kind, mutant in _composition_mutants(doc, C).items():
            want = _outcome(lambda: resolve_composition(
                mutant["composition"], mor_index, C.mor_src, C.mor_dst))
            assert isinstance(want, tuple), (doc["name"], kind)
            assert _outcome(lambda: validate_category(mutant)) == want, (doc["name"], kind)
            kinds_seen.add(kind)
    assert kinds_seen == {
        "non-list", "wrong-length", "str-triple", "non-str-label", "list-label",
        "unknown-then-list", "unknown-label", "not-composable", "wrong-endpoints",
        "conflicting-duplicate",
    }


# ---------------------------------------------------------------------------
# the loader's rows against the generic route


def _generic_route(doc, C):
    """``core.fincat`` over the label-by-label oracle, its errors pointed at
    ``/composition``: the loader's route before it wrote the rows itself.
    C, loaded from doc or from a document differing only in its composition
    block, supplies the objects, morphisms and identities."""
    mor_index = {label: f for f, label in enumerate(C.mor_labels)}
    comp = resolve_composition(doc["composition"], mor_index, C.mor_src, C.mor_dst)
    try:
        return fincat(C.name, C.objects, C.mor_labels, C.mor_src, C.mor_dst, C.identity, comp)
    except CategoryValidationError as e:
        raise type(e)(str(e), pointer="/composition") from e


def _counted(run):
    """run's outcome, with a category read as its tables, and the ticks it
    took."""
    set_search_budget(10**18)
    try:
        out = _outcome(run)
        if isinstance(out, FinCat):
            out = (out.name, out.objects, out.mor_labels, out.mor_src, out.mor_dst,
                   out.identity, out.comp_table)
        return out, core._budget.used
    finally:
        set_search_budget(None)


def _loader_mutants(doc, C):
    """doc with its middle triple dropped, keyed by whether C is thin, and,
    where C has two parallel arrows f and h, with ``[f, id, h]`` appended,
    which overrides the right unit composite of f."""
    comp = doc["composition"]
    drop = copy.deepcopy(doc)
    del drop["composition"][len(comp) // 2]
    out = {"drop-thin" if is_thin(C) else "drop-non-thin": drop}
    ends = [(C.mor_src[f], C.mor_dst[f]) for f in range(C.n_morphisms)]
    pair = next(((f, h) for f in range(C.n_morphisms) for h in range(C.n_morphisms)
                 if f != h and ends[f] == ends[h]), None)
    if pair:
        f, h = (C.mor_labels[x] for x in pair)
        unit = copy.deepcopy(doc)
        unit["composition"].append([f, C.mor_labels[C.identity[ends[pair[0]][1]]], h])
        out["unit-override"] = unit
    return out


def test_the_loaded_rows_match_the_generic_route():
    """An intact document loads to the generic route's tables with as many
    ticks; every mutant fails on both routes with the same class, message
    and pointer.  The dropped triples go through the count mismatch."""
    docs = _parity_corpus() + [
        category_to_json(inflate(chain_poset(4), [9, 7, 8, 8])[0]),
        category_to_json(inflate(finset_fragment(3), [1, 2, 2, 1])[0]),
        category_to_json(hvalued_sets(heyting_chain(2), 2)),
    ]
    expected = {"drop-thin": MissingComposite, "drop-non-thin": MissingComposite,
                "unit-override": UnitLawViolation}
    kinds_seen = set()
    for doc in docs:
        C = validate_category(doc)
        loaded, generic = _counted(lambda: validate_category(doc)), _counted(
            lambda: _generic_route(doc, C))
        assert loaded == generic, doc["name"]
        assert same_tables(C, _generic_route(doc, C)), doc["name"]
        mutants = {**_composition_mutants(doc, C), **_loader_mutants(doc, C)}
        for kind, mutant in mutants.items():
            want = _counted(lambda: _generic_route(mutant, C))
            assert isinstance(want[0], tuple) and not isinstance(want[0][0], str), (
                doc["name"], kind)
            assert _counted(lambda: validate_category(mutant)) == want, (doc["name"], kind)
            assert want[0][0] is expected.get(kind, want[0][0]), (doc["name"], kind)
            kinds_seen.add(kind)
    assert set(expected) <= kinds_seen
    for seed in range(40):
        C = validate_category(category_to_json(random_category(seed)))
        for kind, mutant in _mutants(C).items():
            want = _counted(lambda: _generic_route(mutant, C))
            assert _counted(lambda: validate_category(mutant)) == want, (seed, kind)


def test_identity_synthesis_checks_one_taken_set(monkeypatch):
    """3,000 objects and no identities block: every synthesized label is
    checked against the same taken set, never a rebuilt one, and a label
    already taken gains primes."""
    n = 3000
    loop = [["id_o5", "id_o5", "id_o5"]]
    # two idempotents on o7, the second absorbing: e;e = e, e;e' = e';e = e';e' = e'
    e, e2 = "id_o7", "id_o7'"
    loop += [[e, e, e], [e, e2, e2], [e2, e, e2], [e2, e2, e2]]
    doc = {
        "objects": [f"o{x}" for x in range(n)],
        "morphisms": [{"id": lbl, "src": obj, "dst": obj}
                      for lbl, obj in (("id_o5", "o5"), (e, "o7"), (e2, "o7"))],
        "composition": loop,
    }
    fresh, first, same = interchange._fresh, {}, []

    def spy(label, taken):
        same.append(taken is first.setdefault("taken", taken))
        return fresh(label, taken)

    monkeypatch.setattr(interchange, "_fresh", spy)
    C = validate_category(doc)
    assert len(same) == n and all(same)
    primes = {5: "'", 7: "''"}
    assert [C.mor_labels[C.identity[x]] for x in range(n)] == [
        f"id_o{x}" + primes.get(x, "") for x in range(n)
    ]
