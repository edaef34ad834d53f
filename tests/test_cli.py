"""End-to-end CLI behavior: exit codes, reports, emitted files."""
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import catkit
from catkit import classifier, cli, core, exponentials, lifting, limits, nno
from catkit.cli import main
from catkit.completion import inflate, skeletize
from catkit.core import identity_functor
from catkit.classifier import topos_gaps
from catkit.generators import (
    chain_poset,
    delooping,
    discrete,
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    hvalued_sets,
    setoid_groupoid,
    walking_iso,
)
from catkit.interchange import (
    category_to_json,
    functor_to_json,
    structure_to_json,
    validate_category,
)
from catkit.lifting import KIND_ORDER, complete_structured, find_bag
from catkit.limits import PRODUCTS, find_equalizers, find_pullbacks, partial_table
from law_oracles import generator_middle_triples


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


def test_unexpected_exception_exits_4_with_a_json_error(walking_path, monkeypatch, capsys):
    import catkit.cli

    def broken(args):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(catkit.cli, "cmd_validate", broken)
    assert main(["validate", walking_path, "--json"]) == 4
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "RuntimeError", "message": "engine fault"}


def _fresh_process(argv):
    """argv run as ``python -m catkit`` in a new interpreter."""
    path = [str(Path(catkit.__file__).resolve().parent.parent)]
    path += [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, "-m", "catkit", *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120,
    )


def _without_seconds(out: str):
    """A JSON or text report without its elapsed time."""
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return [line for line in out.splitlines() if not line.strip().startswith("elapsed:")]
    doc.pop("seconds", None)
    return doc


def test_main_called_again_keeps_no_flag_of_the_last_call(fragment_path, tmp_path, capsys):
    """Calls in one process share one parser, and each prints what the same
    argv prints first in a new interpreter."""
    runs = [
        ["analyze", fragment_path, "--structure", "products", "--json"],
        ["analyze", fragment_path],
        ["complete", fragment_path, "--out", str(tmp_path / "skeleton.json")],
        ["complete", fragment_path],
    ]
    cli._build_parser.cache_clear()
    for argv in runs:
        code = main(argv)
        here = _without_seconds(capsys.readouterr().out)
        fresh = _fresh_process(argv)
        assert (code, here) == (fresh.returncode, _without_seconds(fresh.stdout)), argv
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["factor", "--functor", "f.json", "--target", "t.json"],
])
def test_argparse_errors_exit_2_with_usage_on_every_call(argv, capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "usage: catkit" in capsys.readouterr().err


def test_python_dash_m_catkit_is_the_cli(walking_path):
    ok = _fresh_process(["validate", walking_path, "--json"])
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["status"]["category"] == "valid"
    assert _fresh_process(["demo", "nope"]).returncode == 2


def _into_a_closed_pipe(argv):
    """argv run as ``python -m catkit`` with standard output a pipe whose
    read end is already closed; returns the exit code and standard error."""
    path = [str(Path(catkit.__file__).resolve().parent.parent)]
    path += [p for p in [os.environ.get("PYTHONPATH")] if p]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "catkit", *argv], stdout=write_end, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    return done.returncode, done.stderr


@pytest.mark.parametrize("argv, code", [
    (["demo", "hvalued", "--json"], 3),   # a success report that cannot be written
    (["demo", "kleisli"], 3),
    (["validate", "{bad}", "--json"], 1),   # an error report keeps its own code
])
def test_a_closed_standard_output_is_an_io_error_without_a_traceback(argv, code, tmp_path):
    bad = tmp_path / "bad.json"
    morphism = {"id": "f", "src": "a", "dst": "b"}   # into an object the document lacks
    bad.write_text(json.dumps({"objects": ["a"], "morphisms": [morphism]}))
    got, err = _into_a_closed_pipe([str(bad) if a == "{bad}" else a for a in argv])
    assert got == code, err
    assert "Traceback" not in err and "Exception ignored" not in err


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


def test_json_reports_and_errors_print_as_one_sorted_line(fragment_path, tmp_path, monkeypatch,
                                                          capsys):
    built = []

    def keep(args, _real=cli.cmd_analyze):
        report, code = _real(args)
        built.append(report)
        return report, code

    monkeypatch.setattr(cli, "cmd_analyze", keep)
    assert main(["analyze", fragment_path, "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(built[0].to_json(), sort_keys=True) + "\n"

    doc = category_to_json(walking_iso())
    doc["composition"][0][2] = doc["composition"][0][0]
    with pytest.raises(catkit.errors.CatkitError) as raised:
        validate_category(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), "--json"]) == 1
    out = capsys.readouterr().out
    exc = raised.value
    err = {"error": {"type": type(exc).__name__, "message": str(exc), "pointer": exc.pointer}}
    assert out == json.dumps(err, sort_keys=True) + "\n"


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
    # validation takes one check per composable triple through a generator
    # middle, then the terminal search alone takes 5 candidate checks on
    # this input
    cap = generator_middle_triples(finset_fragment(2)) + 2
    monkeypatch.setenv("CATKIT_MAX_SEARCH", str(cap))
    assert main(["analyze", fragment_path, "--structure", "terminal"]) == 2


def test_validate_budget_exhaustion_exits_2(fragment_path, monkeypatch, capsys):
    cap = generator_middle_triples(finset_fragment(2)) - 1
    monkeypatch.setenv("CATKIT_MAX_SEARCH", str(cap))
    assert main(["validate", fragment_path, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "SearchBudgetExceeded"


def test_bad_budget_value_exits_3(walking_path, monkeypatch, capsys):
    # only 0 lifts the cap: a negative value is as bad as a non-integer
    for raw in ("lots", "-1"):
        monkeypatch.setenv("CATKIT_MAX_SEARCH", raw)
        assert main(["validate", walking_path]) == 3, raw
        assert "CATKIT_MAX_SEARCH" in capsys.readouterr().err


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


def _completion_corpus():
    """The paper's inputs and chain inflations up to 906 morphisms, a
    codiscrete triple that carries all seven kinds, and the walking
    idempotent, which carries none."""
    return [
        inflate(chain_poset(4), [6] * 4)[0],
        inflate(chain_poset(4), [9] * 4)[0],
        inflate(heyting_category(heyting_diamond()), 4)[0],
        inflate(finset_fragment(3), [1, 2, 2, 3])[0],
        hvalued_sets(heyting_diamond(), 2),
        inflate(setoid_groupoid(3, {(0, 1), (1, 2)}), [2, 1, 2])[0],
        chain_poset(3),
        finset_fragment(2),
        delooping([[0, 1], [1, 1]], name="idempotent"),
    ]


def test_complete_carry_structure_writes_the_bag_complete_structured_carries(tmp_path, capsys):
    """The library route is the oracle: the completion, its structure
    blocks and eta are the ones complete_structured gives, and ``carried``
    lists its kinds."""
    for i, C in enumerate(_completion_corpus()):
        path, out = tmp_path / f"c{i}.json", tmp_path / f"c{i}.done.json"
        path.write_text(json.dumps(category_to_json(C)))
        assert main(["complete", str(path), "--carry-structure", "--out", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        sc = complete_structured(C)
        D = sc.result.completed
        want = {**category_to_json(D), **structure_to_json(D, sc.completed),
                "eta": functor_to_json(sc.result.eta)}
        assert json.loads(out.read_text()) == json.loads(json.dumps(want)), C.name
        carried = ", ".join(cli.KIND_TO_TOKEN[k] for k in sc.kinds) or "nothing"
        assert report["status"]["carried"] == carried, C.name
    assert carried == "nothing"


def test_complete_carry_structure_carries_nothing_to_the_source(tmp_path, monkeypatch):
    """Neither complete_structured nor any transfer or preserves verb runs:
    the command searches the completion it writes, and nothing else."""
    calls = Counter()
    wrapped = [(module, name) for module in (limits, exponentials, classifier, nno)
               for name in dir(module) if name.startswith(("transfer", "preserves"))]
    wrapped += [(cli, "complete_structured"), (lifting, "complete_structured")]
    for module, name in wrapped:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    S = setoid_groupoid(3, {(0, 1), (1, 2)})
    C = inflate(S, [2, 1, 2])[0]
    path, out = tmp_path / "c.json", tmp_path / "done.json"
    path.write_text(json.dumps(category_to_json(C)))
    assert main(["complete", str(path), "--carry-structure", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())) >= {"structure", "exponentials",
                                                "subobject_classifier", "pnno"}
    assert calls == Counter()
    # the wrappers see the library route's calls
    lifting.complete_structured(C)
    assert calls["complete_structured"] == 1
    assert {"transfer", "preserves", "transfer_exponentials", "preserves_pnno"} <= set(calls)


def test_complete_carry_structure_spends_only_the_completion_search(tmp_path, monkeypatch):
    """The command's candidate checks are those of validating the document,
    skeletizing it and searching the completion: that cap is enough, and
    one fewer is not."""
    C = inflate(chain_poset(3), [1, 2, 2])[0]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(category_to_json(C)))
    core.set_search_budget(10**18)
    try:
        find_bag(skeletize(validate_category(json.loads(path.read_text()))).completed, KIND_ORDER)
        used = core._budget.used
    finally:
        core.set_search_budget(None)
    for cap, code in ((used, 0), (used - 1, 2)):
        monkeypatch.setenv("CATKIT_MAX_SEARCH", str(cap))
        assert main(["complete", str(path), "--carry-structure"]) == code, cap


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


def test_factor_refuses_a_target_entry_at_a_key_the_category_does_not_have(tmp_path, capsys):
    """An equalizer entry on a pair that is not parallel names no key of the
    target: the target's check refuses it rather than ignore it."""
    base = heyting_category(heyting_chain(3))
    source, proj = inflate(base, [1, 2, 1])
    target = {**category_to_json(base), **structure_to_json(base, find_bag(base, KIND_ORDER))}
    target["structure"]["equalizers"].append(
        {"f": "le_h0_h1", "g": "le_h1_h2", "obj": "h0", "arrow": "le_h0_h0"}
    )
    docs = {"source": category_to_json(source), "functor": functor_to_json(proj),
            "target": target}
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    code = main(["factor", "--source", str(paths["source"]), "--functor", str(paths["functor"]),
                 "--target", str(paths["target"]), "--structures",
                 "terminal,products,equalizers,pullbacks,exponentials,pnno", "--json"])
    assert code == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "InvalidCert"
    assert "equalizer table has an entry at (1, 4)" in err["message"]


@pytest.mark.parametrize("block, wrong, pointer", [
    ("binproducts", {"apex": "c2"}, "/structure/binproducts/1"),
    ("exponentials", {"ev": "le_c0_c2"}, "/exponentials/1"),
])
def test_factor_refuses_a_target_entry_shadowed_by_another(
    tmp_path, capsys, block, wrong, pointer
):
    """A wrong entry before the valid one at the same key of the target that
    ``complete --carry-structure`` wrote: factor refuses the document rather
    than keep the last entry and report the structure lifted."""
    source, target = tmp_path / "c.json", tmp_path / "t.json"
    source.write_text(json.dumps(category_to_json(inflate(chain_poset(3), [1, 2, 2])[0])))
    assert main(["complete", str(source), "--carry-structure", "--out", str(target)]) == 0
    doc = json.loads(target.read_text())
    (tmp_path / "eta.json").write_text(json.dumps(doc["eta"]))
    entries = doc["structure"][block] if block in doc["structure"] else doc[block]
    entries.insert(0, {**entries[0], **wrong})
    target.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["factor", "--source", str(source), "--functor", str(tmp_path / "eta.json"),
                 "--target", str(target), "--structures", "terminal,products,exponentials",
                 "--json"])
    assert code == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "MalformedInput"
    assert err["pointer"] == pointer


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



def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    doc = {
        "name": 'say "hi"',
        "objects": ['a"b', "c\\d"],
        "morphisms": [{"id": 'f"x', "src": 'a"b', "dst": "c\\d"}],
    }
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(doc))
    assert main(["export-dot", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "say \\"hi\\"" {')
    assert '    "a\\"b";' in out
    assert '  "a\\"b" -> "c\\\\d" [label="f\\"x"];' in out


def test_factor_resolves_both_ends_when_the_documents_share_a_name(tmp_path, capsys):
    # neither category document carries a name, so both are "unnamed"
    source = {k: v for k, v in category_to_json(walking_iso()).items() if k != "name"}
    docs = {
        "source": source,
        "target": {"objects": ["x"]},
        "functor": {
            "source": "unnamed",
            "target": "unnamed",
            "on_objects": {"a": "x", "b": "x"},
            "on_morphisms": {"f": "id_x", "g": "id_x"},
        },
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    code = main(["factor", "--source", str(paths["source"]), "--functor",
                 str(paths["functor"]), "--target", str(paths["target"]), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "isomorphic to F" in report["status"]["factorization"]


def test_factor_rejects_a_functor_end_naming_an_unknown_category(tmp_path, capsys):
    err = _factor_error(tmp_path, capsys, "functor", ("source",), "elsewhere")
    assert err["type"] == "DanglingReference"
    assert err["pointer"] == "/source"


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
        "products": partial_table(PRODUCTS, C),
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
