"""End-to-end CLI behavior: exit codes, reports, emitted files."""
import json

import pytest

from catkit.cli import main
from catkit.core import identity_functor, same_tables
from catkit.classifier import topos_gaps
from catkit.generators import (
    chain_poset,
    discrete,
    finset_fragment,
    heyting_category,
    heyting_chain,
    setoid_groupoid,
    walking_iso,
)
from catkit.interchange import (
    category_to_json,
    functor_to_json,
    structure_to_json,
    validate_category,
)
from catkit.limits import find_equalizers, find_pullbacks, partial_binary_products


@pytest.fixture()
def walking_path(tmp_path):
    p = tmp_path / "walking.json"
    p.write_text(json.dumps(category_to_json(walking_iso())))
    return str(p)


@pytest.fixture()
def fragment_path(tmp_path):
    p = tmp_path / "finset2.json"
    p.write_text(json.dumps(category_to_json(finset_fragment(2))))
    return str(p)


@pytest.fixture()
def setoid_path(tmp_path):
    S = setoid_groupoid(4, {(0, 1), (1, 2), (2, 3)})
    p = tmp_path / "setoid.json"
    p.write_text(json.dumps(category_to_json(S)))
    return str(p)


def test_validate_ok(walking_path, capsys):
    assert main(["validate", walking_path]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_validate_missing_file_exits_3(capsys):
    assert main(["validate", "/nonexistent/nope.json"]) == 3


def test_validate_malformed_doc_exits_1(tmp_path, capsys):
    doc = category_to_json(walking_iso())
    doc["composition"][0][2] = doc["composition"][0][0]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), "--json"]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "IllTypedComposite"
    assert err["error"]["pointer"].startswith("/composition")


def _set_morphism_id(doc, label):
    doc["morphisms"][1]["id"] = label


def _set_src(doc, label):
    doc["morphisms"][1]["src"] = label


def _set_dst(doc, label):
    doc["morphisms"][1]["dst"] = label


def _add_triple(doc, label):
    doc["composition"].append([label, "le_c0_c1", "le_c0_c1"])


def _set_identity(doc, label):
    doc["identities"]["c1"] = label


@pytest.mark.parametrize(
    "edit, pointer",
    [
        (_set_morphism_id, "/morphisms/1/id"),
        (_set_src, "/morphisms/1/src"),
        (_set_dst, "/morphisms/1/dst"),
        (_add_triple, "/composition/0/0"),
        (_set_identity, "/identities/c1"),
    ],
)
def test_validate_list_typed_reference_exits_1(tmp_path, capsys, edit, pointer):
    doc = category_to_json(chain_poset(2))
    edit(doc, ["c0"])
    p = tmp_path / "listref.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), "--json"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "MalformedInput"
    assert err["pointer"] == pointer


def test_validate_unparseable_json_exits_3(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 3


def test_analyze_informational_without_structure(fragment_path, capsys):
    assert main(["analyze", fragment_path]) == 0
    out = capsys.readouterr().out
    assert "terminal" in out
    assert "absent" in out or "missing" in out


@pytest.mark.parametrize(
    "C",
    [
        finset_fragment(2),
        chain_poset(3),
        discrete(2),
        heyting_category(heyting_chain(3)),
        setoid_groupoid(3, {(0, 1)}),
    ],
    ids=lambda C: C.name,
)
def test_analyze_gaps_match_topos_gaps(C, tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(category_to_json(C)))
    assert main(["analyze", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["gaps"] == topos_gaps(C)


def test_analyze_with_structure_found(fragment_path, capsys):
    assert main(["analyze", fragment_path, "--structure", "terminal,omega"]) == 0
    out = capsys.readouterr().out
    assert "omega" in out


def test_analyze_with_structure_absent_exits_2(fragment_path, capsys):
    assert main(["analyze", fragment_path, "--structure", "products"]) == 2


def test_analyze_unknown_token_exits_2(fragment_path):
    assert main(["analyze", fragment_path, "--structure", "limits"]) == 2


def test_analyze_json_and_text_agree(fragment_path, capsys):
    assert main(["analyze", fragment_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["analyze", fragment_path]) == 0
    text = capsys.readouterr().out
    for check, outcome in doc["status"].items():
        assert f"{check}: {outcome}" in text


def test_analyze_budget_exhaustion_exits_2(fragment_path, monkeypatch, capsys):
    monkeypatch.setenv("CATKIT_MAX_SEARCH", "25")
    assert main(["analyze", fragment_path, "--structure", "terminal"]) == 2


def test_bad_budget_value_exits_3(walking_path, monkeypatch, capsys):
    monkeypatch.setenv("CATKIT_MAX_SEARCH", "lots")
    assert main(["validate", walking_path]) == 3


def test_complete_emits_revalidatable_category(setoid_path, tmp_path, capsys):
    out = tmp_path / "done.json"
    assert main(["complete", setoid_path, "--out", str(out)]) == 0
    emitted = json.loads(out.read_text())
    D = validate_category(emitted)
    assert D.n_objects == 1
    assert "eta" in emitted


def test_complete_carry_structure(setoid_path, tmp_path, capsys):
    out = tmp_path / "carried.json"
    code = main(["complete", setoid_path, "--carry-structure", "--out", str(out), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    emitted = json.loads(out.read_text())
    D = validate_category(emitted)
    assert "structure" in emitted
    assert "terminal" in emitted["structure"]
    from catkit.interchange import structure_from_json

    bag = structure_from_json(emitted, D)
    assert "classifier" in bag
    # a skeletized codiscrete groupoid is gaunt, hence exact
    assert report["status"]["fidelity"] == "exact"


def test_complete_warns_on_approximation(tmp_path, capsys):
    from catkit.generators import delooping

    Z2 = delooping([[0, 1], [1, 0]], name="Z2")
    p = tmp_path / "z2.json"
    p.write_text(json.dumps(category_to_json(Z2)))
    assert main(["complete", str(p), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"]["fidelity"] == "skeletal-approximation"
    assert any("approximation" in w.lower() for w in report["warnings"])


def test_factor_pipeline(setoid_path, tmp_path, capsys):
    S = setoid_groupoid(4, {(0, 1), (1, 2), (2, 3)})
    target = setoid_groupoid(2, {(0, 1)}, name="pair")
    obj_map = [0, 1, 0, 1]
    mor_map = []
    for f in range(S.n_morphisms):
        x, y = obj_map[S.mor_src[f]], obj_map[S.mor_dst[f]]
        mor_map.append(target.hom(x, y)[0])
    fdoc = {
        "name": "collapse",
        "source": S.name,
        "target": "pair",
        "on_objects": {S.objects[i]: target.objects[obj_map[i]] for i in range(4)},
        "on_morphisms": {
            S.mor_labels[f]: target.mor_labels[mor_map[f]] for f in range(S.n_morphisms)
        },
    }
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps(category_to_json(target)))
    fpath = tmp_path / "functor.json"
    fpath.write_text(json.dumps(fdoc))
    code = main(
        [
            "factor",
            "--source",
            setoid_path,
            "--functor",
            str(fpath),
            "--target",
            str(tpath),
            "--structures",
            "terminal,products",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "isomorphic to F" in report["status"]["factorization"]
    assert report["status"]["terminal"] == "preserved and lifted"
    assert report["status"]["products"] == "preserved and lifted"
    assert "H" in report["payload"] and "alpha" in report["payload"]


def test_factor_absent_target_structure_exits_2(setoid_path, tmp_path, capsys):
    from catkit.generators import discrete

    V = discrete(2)
    S = setoid_groupoid(4, {(0, 1), (1, 2), (2, 3)})
    fdoc = {
        "name": "const",
        "source": S.name,
        "target": V.name,
        "on_objects": {o: V.objects[0] for o in S.objects},
        "on_morphisms": {m: V.mor_labels[0] for m in S.mor_labels},
    }
    tpath = tmp_path / "disc.json"
    tpath.write_text(json.dumps(category_to_json(V)))
    fpath = tmp_path / "const.json"
    fpath.write_text(json.dumps(fdoc))
    code = main(
        [
            "factor",
            "--source",
            setoid_path,
            "--functor",
            str(fpath),
            "--target",
            str(tpath),
            "--structures",
            "terminal",
        ]
    )
    assert code == 2


def test_demo_runs_each_example(capsys):
    for name in ("walking-iso", "preorder", "setoid", "karoubi", "kleisli", "finset2"):
        assert main(["demo", name]) == 0, name
        capsys.readouterr()


def test_demo_unknown_name(capsys):
    assert main(["demo", "no-such-demo"]) == 2


def test_export_dot_stdout_is_bare(walking_path, capsys):
    assert main(["export-dot", walking_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") or out.startswith("graph")
    assert "catkit export-dot" not in out


def test_export_dot_clusters_iso_classes(setoid_path, tmp_path, capsys):
    out = tmp_path / "g.dot"
    assert main(["export-dot", setoid_path, "--out", str(out)]) == 0
    text = out.read_text()
    assert "subgraph" in text
    assert "dashed" in text



@pytest.mark.parametrize(
    "doc_name, path, value, pointer",
    [
        ("target", ("structure", "binproducts", 0), "c0", "/structure/binproducts/0"),
        ("target", ("structure", "equalizers", 0), "c0", "/structure/equalizers/0"),
        ("target", ("structure", "pullbacks", 0), "c0", "/structure/pullbacks/0"),
        ("target", ("structure", "binproducts"), {"x1": "c0"}, "/structure/binproducts"),
        ("target", ("structure", "equalizers"), {"f": "id_c0"}, "/structure/equalizers"),
        ("target", ("structure", "pullbacks"), {"f": "id_c0"}, "/structure/pullbacks"),
        ("target", ("exponentials",), [3], "/exponentials/0"),
        ("target", ("pnno",), "c0", "/pnno"),
        ("target", ("subobject_classifier",), ["c0"], "/subobject_classifier"),
        ("functor", ("on_objects",), ["c0", "c1"], "/on_objects"),
        ("functor", ("on_morphisms",), ["le_c0_c1"], "/on_morphisms"),
        ("functor", ("source",), ["chain2"], "/source"),
        ("source", ("name",), ["chain2"], "/name"),
    ],
)
def test_factor_malformed_structure_or_functor_exits_1(
    tmp_path, capsys, doc_name, path, value, pointer
):
    err = _factor_error(tmp_path, capsys, doc_name, path, value)
    assert err["type"] == "MalformedInput"
    assert err["pointer"] == pointer


def test_factor_functor_law_error_points_at_on_morphisms(tmp_path, capsys):
    # le_c0_c1 sent to an arrow with the wrong endpoints
    err = _factor_error(tmp_path, capsys, "functor", ("on_morphisms", "le_c0_c1"), "le_c0_c0")
    assert err["type"] == "IllTypedImage"
    assert err["pointer"] == "/on_morphisms"


def _factor_error(tmp_path, capsys, doc_name, path, value):
    """The JSON error of factor on chain_poset(2) documents with the entry at
    path of one document replaced by value; the run must exit 1."""
    C = chain_poset(2)
    bag = {
        "products": partial_binary_products(C),
        "equalizers": find_equalizers(C),
        "pullbacks": find_pullbacks(C),
    }
    docs = {
        "source": category_to_json(C),
        "target": {**category_to_json(C), **structure_to_json(C, bag)},
        "functor": functor_to_json(identity_functor(C)),
    }
    node = docs[doc_name]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    code = main(["factor", "--source", str(paths["source"]), "--functor",
                 str(paths["functor"]), "--target", str(paths["target"]), "--json"])
    assert code == 1
    return json.loads(capsys.readouterr().out)["error"]
