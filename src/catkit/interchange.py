"""JSON interchange for categories, functors, structure blocks, and
completion results.

The category format:

    {"name": "...",
     "objects": ["a", "b"],
     "morphisms": [{"id": "f", "src": "a", "dst": "b"}, ...],
     "identities": {"a": "id_a"},          # optional
     "composition": [["f", "g", "fg"], ...]}

Identities omitted from the document are synthesized with label
``id_<object>``; composites where either factor is an identity are inferred
from the unit laws.  Every other composable pair must be listed.
"""
from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Container

from .core import (
    CHI,
    MORPHISM,
    MORPHISMS,
    OBJECT,
    FinCat,
    Functor,
    category_from_rows,
    first_bad_field,
    functor,
)
from .errors import (
    CategoryValidationError,
    DanglingReference,
    FunctorValidationError,
    IllTypedComposite,
    InvalidCert,
    MalformedInput,
    MissingIdentity,
)
from .lifting import KIND_ORDER, KINDS, StructureBlock, _check_known


_KIND_NAMES = {list: "a list", dict: "an object", str: "a label"}


def _expect(value: Any, kind: type, what: str, pointer: str) -> Any:
    if not isinstance(value, kind):
        raise MalformedInput(f"{what} must be {_KIND_NAMES[kind]}", pointer=pointer)
    return value


def _enter(table: dict, key: Any, w: Any, pointer: str) -> None:
    """Enter w at key: a repeat is dropped, a second, different entry refused."""
    if table.setdefault(key, w) != w:
        raise MalformedInput("a second, different entry for the same key", pointer=pointer)


def _index_of(indices: dict[str, int], label: Any) -> int | None:
    """The index label names in indices; None for any other value."""
    return indices.get(label) if isinstance(label, str) else None


def _fresh(label: str, taken: Container[str]) -> str:
    while label in taken:
        label += "'"
    return label


def validate_category(doc: dict[str, Any]) -> FinCat:
    """Parse and fully validate a category document.

    Raises a CategoryValidationError subclass with a JSON pointer into the
    document on the first offence.  Labels and each composition triple are
    checked here, and each checked triple is written into its row of the
    composition table; :func:`~catkit.core.category_from_rows` then counts
    the entries against the composable pairs and checks the unit and
    associativity laws, and its errors point at ``/composition``.
    """
    if not isinstance(doc, dict):
        raise MalformedInput("category document must be an object")
    name = _expect(doc.get("name", "unnamed"), str, "name", "/name")
    raw_objects = doc.get("objects")
    if not isinstance(raw_objects, list) or not all(isinstance(o, str) for o in raw_objects):
        raise MalformedInput("objects must be a list of labels", pointer="/objects")

    objects = list(dict.fromkeys(raw_objects))   # de-duplicated, first occurrence wins
    obj_index = {o: i for i, o in enumerate(objects)}

    raw_mors = doc.get("morphisms", [])
    if not isinstance(raw_mors, list):
        raise MalformedInput("morphisms must be a list", pointer="/morphisms")

    labels: list[str] = []
    srcs: list[int] = []
    dsts: list[int] = []
    mor_index: dict[str, int] = {}
    for k, entry in enumerate(raw_mors):
        ptr = f"/morphisms/{k}"
        if not isinstance(entry, dict) or not {"id", "src", "dst"} <= set(entry):
            raise MalformedInput("morphism entries need id/src/dst", pointer=ptr)
        mid, s, d = entry["id"], entry["src"], entry["dst"]
        for key in ("id", "src", "dst"):
            if not isinstance(entry[key], str):
                raise MalformedInput(f"morphism {key} must be a label", pointer=f"{ptr}/{key}")
        if s not in obj_index:
            raise DanglingReference(f"unknown object {s!r}", pointer=f"{ptr}/src")
        if d not in obj_index:
            raise DanglingReference(f"unknown object {d!r}", pointer=f"{ptr}/dst")
        if mid in mor_index:
            prev = mor_index[mid]
            if srcs[prev] == obj_index[s] and dsts[prev] == obj_index[d]:
                continue  # exact duplicate entry, drop it
            raise DanglingReference(
                f"morphism id {mid!r} re-declared with different endpoints", pointer=ptr
            )
        mor_index[mid] = len(labels)
        labels.append(mid)
        srcs.append(obj_index[s])
        dsts.append(obj_index[d])

    # identities: explicit assignments first, then synthesis
    identity: list[int | None] = [None] * len(objects)
    declared = doc.get("identities", {})
    if not isinstance(declared, dict):
        raise MalformedInput("identities must be an object", pointer="/identities")
    for obj_label, mid in declared.items():
        ptr = f"/identities/{obj_label}"
        if obj_label not in obj_index:
            raise DanglingReference(f"unknown object {obj_label!r}", pointer=ptr)
        x = obj_index[obj_label]
        if not isinstance(mid, str):
            raise MalformedInput("identity must be a morphism label", pointer=ptr)
        if mid in mor_index:
            f = mor_index[mid]
            if srcs[f] != x or dsts[f] != x:
                raise MissingIdentity(
                    f"identity of {obj_label!r} must be an endomorphism on it", pointer=ptr
                )
        else:
            f = len(labels)
            mor_index[mid] = f
            labels.append(mid)
            srcs.append(x)
            dsts.append(x)
        identity[x] = mor_index[mid]
    for x, lbl in enumerate(objects):
        if identity[x] is None:
            mid = _fresh(f"id_{lbl}", mor_index)
            mor_index[mid] = len(labels)
            labels.append(mid)
            srcs.append(x)
            dsts.append(x)
            identity[x] = mor_index[mid]

    # composition: the declared triples, each typed and consistent, written
    # straight into the rows of the composition table
    raw_comp = doc.get("composition", [])
    if not isinstance(raw_comp, list):
        raise MalformedInput("composition must be a list of triples", pointer="/composition")
    m = len(labels)
    rows: list[list[int | None]] = [[None] * m for _ in range(m)]
    repeats = 0
    # an accepted triple costs one lookup per label; pointers and messages
    # are built only for the triple that fails
    label_of = mor_index.get
    for k, triple in enumerate(raw_comp):
        if not (isinstance(triple, list) and len(triple) == 3):
            raise MalformedInput(
                "composition entries are [f, g, fg] triples", pointer=f"/composition/{k}"
            )
        a, b, c = triple
        try:   # the keys are labels, so a hit is a label
            f, g, fg = label_of(a), label_of(b), label_of(c)
        except TypeError:   # an unhashable entry, named below
            f = None
        if f is None or g is None or fg is None:
            _raise_label_offence(triple, mor_index, f"/composition/{k}")
        if dsts[f] != srcs[g]:
            raise IllTypedComposite(
                f"{a!r} then {b!r} is not composable", pointer=f"/composition/{k}"
            )
        if srcs[fg] != srcs[f] or dsts[fg] != dsts[g]:
            raise IllTypedComposite(
                f"composite {c!r} has the wrong endpoints", pointer=f"/composition/{k}"
            )
        row = rows[f]
        if row[g] is None:
            row[g] = fg
        elif row[g] == fg:
            repeats += 1
        else:
            raise IllTypedComposite(
                f"conflicting composite for ({a!r}, {b!r})", pointer=f"/composition/{k}"
            )

    # every set entry is typed, so the law check is a completeness count
    # and the unit and associativity laws; its errors concern the
    # composition block as a whole
    try:
        return category_from_rows(
            name, objects, labels, srcs, dsts, identity, rows, len(raw_comp) - repeats
        )
    except CategoryValidationError as e:
        raise type(e)(str(e), pointer="/composition") from e


def _raise_label_offence(triple: list, mor_index: dict[str, int], ptr: str) -> None:
    """Raise for the first entry of triple that is not a morphism label."""
    for j, mid in enumerate(triple):
        if not isinstance(mid, str):
            raise MalformedInput("composition entries must be labels", pointer=f"{ptr}/{j}")
        if mid not in mor_index:
            raise DanglingReference(f"unknown morphism {mid!r}", pointer=ptr)


def category_to_json(C: FinCat) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "name": C.name,
        "objects": list(C.objects),
        "morphisms": [
            {"id": C.mor_labels[f], "src": C.objects[C.mor_src[f]], "dst": C.objects[C.mor_dst[f]]}
            for f in range(C.n_morphisms)
        ],
        "identities": {C.objects[x]: C.mor_labels[C.identity[x]] for x in range(C.n_objects)},
        "composition": [],
    }
    # the composable pairs of f are f with out_of[dst f], in index order
    ident, labels, out_of = set(C.identity), C.mor_labels, C.out_of
    comp = doc["composition"]
    for f, (row, y) in enumerate(zip(C.comp_table, C.mor_dst)):
        if f in ident:
            continue
        for g in out_of[y]:
            fg = row[g]
            if fg is not None and g not in ident:
                comp.append([labels[f], labels[g], labels[fg]])
    return doc


def functor_from_json(doc: dict[str, Any], categories: dict[str, FinCat]) -> Functor:
    """Resolve a functor document against named categories."""
    if not isinstance(doc, dict):
        raise MalformedInput("functor document must be an object")
    for key, kind in (("source", str), ("target", str), ("on_objects", dict),
                      ("on_morphisms", dict)):
        if key not in doc:
            raise MalformedInput(f"functor document lacks {key!r}", pointer=f"/{key}")
        _expect(doc[key], kind, key, f"/{key}")
    if doc["source"] not in categories:
        raise DanglingReference(f"unknown category {doc['source']!r}", pointer="/source")
    if doc["target"] not in categories:
        raise DanglingReference(f"unknown category {doc['target']!r}", pointer="/target")
    C, D = categories[doc["source"]], categories[doc["target"]]
    obj_map = []
    for x, lbl in enumerate(C.objects):
        img = doc["on_objects"].get(lbl)
        if img is None:
            raise MalformedInput(f"no image for object {lbl!r}", pointer="/on_objects")
        y = _index_of(D.object_indices, img)
        if y is None:
            raise DanglingReference(f"unknown target object {img!r}", pointer=f"/on_objects/{lbl}")
        obj_map.append(y)
    mor_map = []
    for f, lbl in enumerate(C.mor_labels):
        img = doc["on_morphisms"].get(lbl)
        if img is None:
            if C.is_identity(f):
                mor_map.append(D.identity[obj_map[C.mor_src[f]]])
                continue
            raise MalformedInput(f"no image for morphism {lbl!r}", pointer="/on_morphisms")
        g = _index_of(D.morphism_indices, img)
        if g is None:
            raise DanglingReference(
                f"unknown target morphism {img!r}", pointer=f"/on_morphisms/{lbl}"
            )
        mor_map.append(g)
    try:
        return functor(C, D, obj_map, mor_map, name=doc.get("name", ""))
    except FunctorValidationError as e:
        raise type(e)(str(e), pointer="/on_morphisms") from e


def functor_to_json(F: Functor) -> dict[str, Any]:
    C, D = F.source, F.target
    return {
        "name": F.name,
        "source": C.name,
        "target": D.name,
        "on_objects": {C.objects[x]: D.objects[F.obj_map[x]] for x in range(C.n_objects)},
        "on_morphisms": {
            C.mor_labels[f]: D.mor_labels[F.mor_map[f]] for f in range(C.n_morphisms)
        },
    }


# ---------------------------------------------------------------------------
# structure blocks


def _reader(C: FinCat, field: str | None, ref: str):
    """For a field of a block on C, what takes a label, at its entry's
    pointer, to the index of what it names, as ref says; for CHI, a map's
    keys and values."""
    indices, what = ((C.object_indices, "object") if ref == OBJECT
                     else (C.morphism_indices, "morphism"))

    def read(label: Any, pointer: str) -> int:
        x = _index_of(indices, label)
        if x is None:
            raise DanglingReference(f"unknown {what} {label!r}", pointer=pointer)
        return x

    if ref != CHI:
        return read

    def read_map(value: Any, pointer: str) -> dict[int, int]:
        p = f"{pointer}/{field}"
        return {read(k, p): read(v, p) for k, v in _expect(value, dict, field, p).items()}

    return read_map


def _write_block(C: FinCat, name: str, block: StructureBlock, w: Any) -> Any:
    """Kind name's bag entry w as its block, once every field of every
    entry names something of C, as ``core.first_bad_field`` decides."""
    entries = sorted(w.items()) if block.key else [(None, w)]
    hit = first_bad_field(C, block.fields, list(zip(*[v for _, v in entries])))
    if hit is not None:
        raise _misnamed(C, name, block, *entries[hit[0]], hit[1])
    labels = {OBJECT: C.objects.__getitem__, MORPHISM: C.mor_labels.__getitem__,
              CHI: lambda chi: {C.mor_labels[f]: C.mor_labels[g] for f, g in sorted(chi.items())}}
    rows = [{f: labels[ref](v) for (f, ref), v in zip(block.fields, w)} for _, w in entries]
    return rows if block.key else rows[0] if block.fields[0][0] else rows[0][None]


def _misnamed(C: FinCat, name: str, block: StructureBlock, key: Any, w: Any,
              j: int) -> InvalidCert:
    """The refusal of field j of kind name's entry w, at key, which names
    nothing of C: in a chi table, of its first key or value that does not,
    at that key."""
    field, ref = block.fields[j]
    x = tuple(w)[j]
    if ref == CHI and isinstance(x, Mapping):
        pairs = list(x.items())
        i, side = first_bad_field(C, MORPHISMS * 2, list(zip(*pairs)))
        key, x = pairs[i][0], pairs[i][side]
    what = "object" if ref == OBJECT else "morphism"
    at = "" if key is None else f" at key {key!r}"
    return InvalidCert(f"'{name}'{at}: {field or 'label'} {x!r} names no {what} of {C.name}")


def _read_block(C: FinCat, block: StructureBlock, value: Any, pointer: str) -> Any:
    """The bag entry a kind's block holds.  An absent map is empty, and an
    absent label is read as null."""
    readers = [(f, {} if r == CHI else None, _reader(C, f, r)) for f, r in block.fields]
    maps = [f for f, ref in block.fields if ref == CHI]
    last = block.path[-1]
    if not block.fields[0][0]:
        return block.witness(readers[0][2](value, pointer))

    def entry(e: Any, p: str, what: str):
        _expect(e, dict, what, p)
        for f in maps:   # a map's type is checked before any label is read
            _expect(e.get(f, {}), dict, f, f"{p}/{f}")
        return block.witness(*[read(e.get(f, absent), p) for f, absent, read in readers])

    if not block.key:
        return entry(value, pointer, last)
    table: dict = {}
    for i, e in enumerate(_expect(value, list, last, pointer)):
        w = entry(e, f"{pointer}/{i}", f"each {last} entry")
        _enter(table, w[:block.key], w, f"{pointer}/{i}")
    return table


def structure_to_json(C: FinCat, bag: dict[str, Any]) -> dict[str, Any]:
    """JSON blocks for a witness bag, ready to merge into the category's
    document, each where its kind's ``block`` says, in dependency order.
    A bag keyed by anything but a kind raises PreconditionViolation, and an
    index that names nothing of C raises InvalidCert."""
    _check_known(bag)
    out: dict[str, Any] = {}
    for name in KIND_ORDER:
        if name in bag:
            block = KINDS[name].block
            node = out
            for step in block.path[:-1]:
                node = node.setdefault(step, {})
            node[block.path[-1]] = _write_block(C, name, block, bag[name])
    return out


def structure_from_json(doc: dict[str, Any], C: FinCat) -> dict[str, Any]:
    """Parse whatever structure blocks a category document carries into a
    witness bag.  Reference shape is checked here, and so is that no key
    has two different entries; semantic validity is the caller's job."""
    if not isinstance(doc, dict):
        raise MalformedInput("category document must be an object")
    bag: dict[str, Any] = {}
    for name in KIND_ORDER:
        block = KINDS[name].block
        node, pointer = doc, ""
        for step in block.path[:-1]:
            pointer += f"/{step}"
            node = _expect(node.get(step, {}), dict, step, pointer)
        last = block.path[-1]
        if last in node:
            bag[name] = _read_block(C, block, node[last], f"{pointer}/{last}")
    return bag
