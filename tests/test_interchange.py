"""JSON round-trips for categories, functors, and structure blocks."""
import copy
import json

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from catkit.cli import main
from catkit.core import functors_equal, identity_functor, same_tables
from catkit.errors import (
    AssociativityViolation,
    CategoryValidationError,
    DanglingReference,
    IllTypedComposite,
    MalformedInput,
    MissingComposite,
    UnitLawViolation,
)
from catkit.generators import (
    finset_fragment,
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
