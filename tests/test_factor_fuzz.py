"""Mutated ``catkit factor`` documents end in a documented exit code.

A seeded fuzz over the target document's ``structure``, ``exponentials``,
``subobject_classifier`` and ``pnno`` blocks and the functor document's
maps: whatever the mutation, ``factor`` accepts the documents (0) or
refuses them as invalid (1), as lacking or not preserving a structure (2),
or as unreadable (3).  Exit 4, an internal failure, would be an engine bug.
This is the pattern of ``test_interchange``'s mutated category documents,
applied to the documents the structured pipeline reads.
"""
import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from catkit.cli import main
from catkit.completion import inflate
from catkit.generators import heyting_category, heyting_chain, setoid_groupoid
from catkit.interchange import category_to_json, functor_to_json, structure_to_json
from catkit.lifting import KIND_ORDER, find_bag

TARGET_BLOCKS = ("structure", "exponentials", "subobject_classifier", "pnno")
FUNCTOR_BLOCKS = ("on_objects", "on_morphisms")
DELETE = object()


def _scene(base, copies, structures):
    """Documents of an inflation of base, its projection onto base, and base
    with every kind it carries, which factor accepts unmutated."""
    C, proj = inflate(base, copies)
    return {
        "source": category_to_json(C),
        "functor": functor_to_json(proj),
        "target": {**category_to_json(base), **structure_to_json(base, find_bag(base, KIND_ORDER))},
        "structures": structures,
    }


SCENES = [
    # every kind but the classifier, which a Heyting chain lacks
    _scene(heyting_category(heyting_chain(3)), [1, 2, 1],
           "terminal,products,equalizers,pullbacks,exponentials,pnno"),
    # a codiscrete groupoid carries every kind, the classifier included
    _scene(setoid_groupoid(2, {(0, 1)}, name="pair"), [2, 1], None),
]


def _places(node, path=()):
    """Every path into node, node itself included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _places(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _places(child, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _same_kind(target, value) -> list[str]:
    """The target's labels of the kind value names: its objects, its
    morphisms, or none when value names neither."""
    objects, morphisms = list(target["objects"]), [m["id"] for m in target["morphisms"]]
    if value in objects:
        return objects
    return morphisms if value in morphisms else []


def _mutate(doc, path, value):
    node = _at(doc, path[:-1])
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value


def _run(docs, structures) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in ("source", "functor", "target"):
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(docs[name]))
        argv = ["factor", "--source", str(paths["source"]), "--functor", str(paths["functor"]),
                "--target", str(paths["target"]), "--json"]
        if structures is not None:
            argv += ["--structures", structures]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


def test_the_unmutated_scenes_factor():
    for scene in SCENES:
        assert _run(scene, scene["structures"]) == 0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_factor_documents_never_exit_4(data):
    scene = data.draw(st.sampled_from(SCENES))
    docs = copy.deepcopy(scene)
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(["target", "functor"]))
        blocks = TARGET_BLOCKS if name == "target" else FUNCTOR_BLOCKS
        places = [
            (block, *rest)
            for block in blocks if block in docs[name]
            for rest in _places(docs[name][block])
        ]
        path = data.draw(st.sampled_from(places))
        # mostly another label of the same kind, which parses and must then
        # be refused or accepted on its merits; otherwise any JSON value
        same = _same_kind(docs["target"], _at(docs[name], path))
        junk = st.one_of(
            st.integers(-2, 5), st.sampled_from([None, [], {}, "", DELETE]), st.text(max_size=3)
        )
        value = data.draw(
            st.sampled_from(same) if same and data.draw(st.integers(0, 3)) else junk
        )
        _mutate(docs[name], path, value)
    assert _run(docs, scene["structures"]) in (0, 1, 2, 3)
