"""Every structure block keeps its bytes, and every malformed one its error.

On a corpus of inputs that carry every kind between them (the finset
fragment of 2 and an inflation of it, an inflated codiscrete pair, the
Heyting category of the diamond, and ``random_category(0..11)``), the blocks
``structure_to_json`` writes for ``find_bag(C, KIND_ORDER)`` are pinned as
the digest of their bytes, key order included, and so is the bag
``structure_from_json`` reads back from them.  Each block is then broken
one field or one block at a time: a label replaced by an unknown one, by
null or by a number, or deleted; a whole block or its first entry
replaced by a value of the wrong type; the first entry repeated, as it is
or with its apex moved.  The outcome of each mutant, the digest of the bag read or the
(class, message, pointer) of the refusal, is pinned in
``structure_blocks_pinned.json``, and so is the digest of the document
``catkit complete --carry-structure`` writes for the inflated finset
fragment of 3.

Running this file as a script prints the corpus's current outcomes as
JSON.  Regenerate the pinned file only for a deliberate change of format.
"""
import contextlib
import copy
import io
import dataclasses
import hashlib
import json
import sys
from collections.abc import Mapping
from functools import cache
from pathlib import Path

import pytest

from catkit.cli import main
from catkit.completion import inflate
from catkit.errors import CatkitError
from catkit.generators import (
    finset_fragment,
    heyting_category,
    heyting_diamond,
    random_category,
    setoid_groupoid,
)
from catkit.interchange import category_to_json, structure_from_json, structure_to_json
from catkit.lifting import KIND_ORDER, find_bag

PINNED = Path(__file__).resolve().parent / "structure_blocks_pinned.json"

# the finite-limit blocks under "structure"
_LIMITS = ("binproducts", "equalizers", "pullbacks")
_BAD_LABELS = (("unknown", "nope"), ("null", None), ("number", 7))
_DELETE = object()
_BAD_BLOCKS = (("null", None), ("label", "x"), ("number", 1), ("list", []), ("object", {}))


def _sha(value) -> str:
    return hashlib.sha256(value.encode()).hexdigest()


def corpus():
    F2 = finset_fragment(2)
    codisc = setoid_groupoid(2, {(0, 1)}, name="codisc2")
    return [
        ("finset2", F2),
        ("finset2-inflated", inflate(F2, [1, 2, 1])[0]),
        ("codiscrete2-inflated", inflate(codisc, [2, 1])[0]),
        ("heyting-diamond", heyting_category(heyting_diamond())),
        *((f"random{i}", random_category(i)) for i in range(12)),
    ]


def bag_digest(bag) -> str:
    """A digest of a bag's kinds in order, each entry's witness type and its
    fields, a table by sorted key and a map field by sorted items."""
    def fields(w):
        if isinstance(w, tuple):
            return list(w)
        values = (getattr(w, f.name) for f in dataclasses.fields(w))
        return [sorted(v.items()) if isinstance(v, Mapping) else v for v in values]

    rows = []
    for name, w in bag.items():
        if isinstance(w, Mapping):
            rows.append([name, [[list(k), type(v).__name__, fields(v)] for k, v in sorted(w.items())]])
        else:
            rows.append([name, type(w).__name__, fields(w)])
    return _sha(json.dumps(rows))


def outcome(doc, C):
    try:
        return ["read", bag_digest(structure_from_json(doc, C))]
    except CatkitError as e:
        return [type(e).__name__, str(e), getattr(e, "pointer", None)]


def _entry_mutants(where: str, entry: dict):
    """Each field of entry replaced by a bad label or deleted."""
    for field in entry:
        for how, bad in _BAD_LABELS:
            yield f"{where}/{field}={how}", {**entry, field: bad}
        yield f"{where}/{field} deleted", {k: v for k, v in entry.items() if k != field}


def mutants(doc: dict):
    """(name, mutant) for every single-field and single-block mutant of the
    structure blocks of doc."""
    def at(path, value):
        m = copy.deepcopy(doc)
        *parents, last = path
        node = m
        for p in parents:
            node = node[p]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
        return m

    def appended(path, entry):
        m = copy.deepcopy(doc)
        node = m
        for p in path:
            node = node[p]
        node.append(entry)
        return m

    block = doc.get("structure")
    if block is not None:
        for how, bad in _BAD_BLOCKS[:-1]:
            yield f"/structure={how}", at(("structure",), bad)
        if "terminal" in block:
            for how, bad in _BAD_LABELS:
                yield f"/structure/terminal={how}", at(("structure", "terminal"), bad)
            yield "/structure/terminal deleted", at(("structure", "terminal"), _DELETE)
    lists = [(("structure", n), block[n]) for n in _LIMITS if block and n in block]
    if "exponentials" in doc:
        lists.append((("exponentials",), doc["exponentials"]))
    for path, entries in lists:
        where = "/" + "/".join(path)
        for how, bad in _BAD_BLOCKS:
            if how != "list":
                yield f"{where}={how}", at(path, bad)
        if not entries:
            continue
        first = entries[0]
        for how, bad in _BAD_BLOCKS[:-1]:
            yield f"{where}/0={how}", at((*path, 0), bad)
        for name, entry in _entry_mutants(f"{where}/0", first):
            yield name, at((*path, 0), entry)
        yield f"{where} first repeated", appended(path, dict(first))
        apex = next(k for k in ("apex", "obj") if k in first)
        other = next((e[apex] for e in entries if e[apex] != first[apex]), None)
        if other is not None:
            yield f"{where} first repeated, another apex", appended(path, {**first, apex: other})
    if "subobject_classifier" in doc:
        e = doc["subobject_classifier"]
        for how, bad in _BAD_BLOCKS:
            if how != "object":
                yield f"/subobject_classifier={how}", at(("subobject_classifier",), bad)
        for name, entry in _entry_mutants("/subobject_classifier", {k: e[k] for k in ("omega", "tau")}):
            yield name, at(("subobject_classifier",), {**entry, "chi": e["chi"]})
        for how, bad in (*_BAD_BLOCKS[:-1], ("empty", {})):
            yield f"/subobject_classifier/chi={how}", at(("subobject_classifier", "chi"), bad)
        yield "/subobject_classifier/chi deleted", at(("subobject_classifier", "chi"), _DELETE)
        if e["chi"]:
            mono, chi = next(iter(e["chi"].items()))
            rest = {k: v for k, v in e["chi"].items() if k != mono}
            yield "/subobject_classifier/chi key unknown", at(
                ("subobject_classifier", "chi"), {"nope": chi, **rest})
            for how, bad in _BAD_LABELS:
                yield f"/subobject_classifier/chi/{mono}={how}", at(
                    ("subobject_classifier", "chi", mono), bad)
    if "pnno" in doc:
        for how, bad in _BAD_BLOCKS:
            if how != "object":
                yield f"/pnno={how}", at(("pnno",), bad)
        for name, entry in _entry_mutants("/pnno", doc["pnno"]):
            yield name, at(("pnno",), entry)


def carried_document_digest(tmp: Path) -> str:
    """The digest of the document ``complete --carry-structure`` writes for
    the inflated finset fragment of 3."""
    src, out = tmp / "f3.json", tmp / "f3t.json"
    src.write_text(json.dumps(category_to_json(inflate(finset_fragment(3), [1, 2, 2, 3])[0])))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["complete", str(src), "--carry-structure", "--out", str(out), "--json"]) == 0
    return _sha(out.read_text(encoding="utf-8"))


@cache
def current_outcomes() -> dict[str, object]:
    out = {}
    for name, C in corpus():
        blocks = structure_to_json(C, find_bag(C, KIND_ORDER))
        doc = json.loads(json.dumps(blocks))
        seen = {}
        for mutant, m in mutants(doc):
            assert mutant not in seen, mutant
            seen[mutant] = outcome(m, C)
        out[name] = {
            "written": _sha(json.dumps(blocks)),
            "read": outcome(doc, C),
            "mutants": seen,
        }
    return out


def _pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_the_corpus_is_the_pinned_one():
    pinned = _pinned()
    assert [name for name, _ in corpus()] == [k for k in pinned if k != "complete --carry-structure"]
    assert {k: sorted(v["mutants"]) for k, v in current_outcomes().items()} == {
        k: sorted(v["mutants"]) for k, v in pinned.items() if k != "complete --carry-structure"
    }


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_written_blocks_and_what_reads_back_are_pinned(name):
    got, want = current_outcomes()[name], _pinned()[name]
    assert got["written"] == want["written"]
    assert got["read"] == want["read"]


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_every_mutant_keeps_its_pinned_outcome(name):
    got, want = current_outcomes()[name]["mutants"], _pinned()[name]["mutants"]
    assert {k: v for k, v in got.items() if want.get(k) != v} == {}


def test_a_null_chi_is_refused_and_an_absent_one_is_empty():
    for _, C in corpus():
        doc = json.loads(json.dumps(structure_to_json(C, find_bag(C, KIND_ORDER))))
        if "subobject_classifier" not in doc:
            continue
        block = doc["subobject_classifier"]
        assert outcome({"subobject_classifier": {**block, "chi": None}}, C) == [
            "MalformedInput", "chi must be an object (at /subobject_classifier/chi)",
            "/subobject_classifier/chi"]
        del block["chi"]
        assert structure_from_json(doc, C)["classifier"].chi == {}


def test_the_carried_document_is_pinned(tmp_path):
    assert carried_document_digest(tmp_path) == _pinned()["complete --carry-structure"]


def dump(pinned: dict) -> str:
    """pinned as JSON with one line per document's written and read
    outcomes and one line per mutant."""
    def line(key, value, end):
        return f"{json.dumps(key)}: {json.dumps(value)}{end}"

    out = ["{"]
    for i, (name, v) in enumerate(pinned.items()):
        end = "," if i < len(pinned) - 1 else ""
        if not isinstance(v, dict):
            out.append(" " + line(name, v, end))
            continue
        out += [f" {json.dumps(name)}: {{", "  " + line("written", v["written"], ","),
                "  " + line("read", v["read"], ","), '  "mutants": {']
        out += ["   " + line(k, o, "," if j < len(v["mutants"]) - 1 else "")
                for j, (k, o) in enumerate(v["mutants"].items())]
        out.append(f"  }}}}{end}")
    return "\n".join(out + ["}", ""])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {**current_outcomes(), "complete --carry-structure": carried_document_digest(Path(tmp))}
    sys.stdout.write(dump(pinned))
