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

from typing import Any, Container

from .core import FinCat, Functor, fincat, functor
from .errors import (
    CategoryValidationError,
    DanglingReference,
    FunctorValidationError,
    IllTypedComposite,
    MalformedInput,
    MissingIdentity,
)
from .limits import EQUALIZERS, PRODUCTS, PULLBACKS, ChosenTerminal


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
    checked here; the category laws are judged by
    :func:`~catkit.core.check_category_tables`, and their errors point at
    ``/composition``.
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

    # composition: the declared triples, each typed and consistent
    comp: dict[tuple[int, int], int] = {}
    raw_comp = doc.get("composition", [])
    if not isinstance(raw_comp, list):
        raise MalformedInput("composition must be a list of triples", pointer="/composition")
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
        if comp.setdefault((f, g), fg) != fg:
            raise IllTypedComposite(
                f"conflicting composite for ({a!r}, {b!r})", pointer=f"/composition/{k}"
            )

    # fincat fills the identity composites in and judges the laws; its
    # errors concern the composition block as a whole
    try:
        return fincat(name, objects, labels, srcs, dsts, identity, comp)
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
    ident = set(C.identity)
    for f in range(C.n_morphisms):
        for g in range(C.n_morphisms):
            fg = C.comp_table[f][g]
            if fg is None or f in ident or g in ident:
                continue
            doc["composition"].append([C.mor_labels[f], C.mor_labels[g], C.mor_labels[fg]])
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


def _obj_ref(C: FinCat, label: Any, pointer: str) -> int:
    x = _index_of(C.object_indices, label)
    if x is None:
        raise DanglingReference(f"unknown object {label!r}", pointer=pointer)
    return x


def _mor_ref(C: FinCat, label: Any, pointer: str) -> int:
    f = _index_of(C.morphism_indices, label)
    if f is None:
        raise DanglingReference(f"unknown morphism {label!r}", pointer=pointer)
    return f


# bag kind, block name under "structure", and shape of the keyed limits; a
# block entry's keys are the witness's field names
_KEYED_LIMITS = (
    ("products", "binproducts", PRODUCTS),
    ("equalizers", "equalizers", EQUALIZERS),
    ("pullbacks", "pullbacks", PULLBACKS),
)


def structure_to_json(C: FinCat, bag: dict[str, Any]) -> dict[str, Any]:
    """JSON blocks for a witness bag, ready to merge into the category's
    document.  Finite-limit witnesses live under "structure"; exponentials,
    the classifier, and the parameterized N are top-level blocks.
    """
    o, m = (lambda i: C.objects[i]), (lambda i: C.mor_labels[i])
    out: dict[str, Any] = {}
    block: dict[str, Any] = {}
    if "terminal" in bag:
        block["terminal"] = o(bag["terminal"].t)
    for kind, name, shape in _KEYED_LIMITS:
        if kind in bag:
            block[name] = [
                {
                    f: (o if is_obj else m)(v)
                    for (f, is_obj), v in zip(shape.field_kinds, shape.unpack(w))
                }
                for _, w in sorted(bag[kind].items())
            ]
    if block:
        out["structure"] = block
    if "exponentials" in bag:
        out["exponentials"] = [
            {"base": o(w.x), "target": o(w.y), "obj": o(w.obj), "ev": m(w.ev)}
            for _, w in sorted(bag["exponentials"].items())
        ]
    if "classifier" in bag:
        w = bag["classifier"]
        out["subobject_classifier"] = {
            "omega": o(w.omega),
            "tau": m(w.tau),
            "chi": {m(mono): m(chi) for mono, chi in sorted(w.chi.items())},
        }
    if "pnno" in bag:
        w = bag["pnno"]
        out["pnno"] = {"N": o(w.N), "z": m(w.z), "s": m(w.s)}
    return out


def structure_from_json(doc: dict[str, Any], C: FinCat) -> dict[str, Any]:
    """Parse whatever structure blocks a category document carries into a
    witness bag.  Reference shape is checked here, and so is that no key
    has two different entries; semantic validity is the caller's job."""
    from .classifier import SubobjectClassifierW
    from .exponentials import ExponentialW
    from .nno import PNNOW

    bag: dict[str, Any] = {}
    block = _expect(doc.get("structure", {}), dict, "structure", "/structure")
    if "terminal" in block:
        bag["terminal"] = ChosenTerminal(_obj_ref(C, block["terminal"], "/structure/terminal"))
    for kind, name, shape in _KEYED_LIMITS:
        if name not in block:
            continue
        table = {}
        for i, e in enumerate(_expect(block[name], list, name, f"/structure/{name}")):
            p = f"/structure/{name}/{i}"
            _expect(e, dict, f"each {name} entry", p)
            w = shape.witness(*(
                (_obj_ref if is_obj else _mor_ref)(C, e.get(f), p)
                for f, is_obj in shape.field_kinds
            ))
            _enter(table, shape.split(w)[0], w, p)
        bag[kind] = table
    if "exponentials" in doc:
        table = {}
        for i, e in enumerate(_expect(doc["exponentials"], list, "exponentials", "/exponentials")):
            p = f"/exponentials/{i}"
            _expect(e, dict, "each exponentials entry", p)
            w = ExponentialW(
                _obj_ref(C, e.get("base"), p), _obj_ref(C, e.get("target"), p),
                _obj_ref(C, e.get("obj"), p), _mor_ref(C, e.get("ev"), p),
            )
            _enter(table, (w.x, w.y), w, p)
        bag["exponentials"] = table
    if "subobject_classifier" in doc:
        p = "/subobject_classifier"
        e = _expect(doc["subobject_classifier"], dict, "subobject_classifier", p)
        chi_raw = _expect(e.get("chi", {}), dict, "chi", f"{p}/chi")
        bag["classifier"] = SubobjectClassifierW(
            _obj_ref(C, e.get("omega"), p),
            _mor_ref(C, e.get("tau"), p),
            {_mor_ref(C, k, f"{p}/chi"): _mor_ref(C, v, f"{p}/chi") for k, v in chi_raw.items()},
        )
    if "pnno" in doc:
        e = _expect(doc["pnno"], dict, "pnno", "/pnno")
        bag["pnno"] = PNNOW(
            _obj_ref(C, e.get("N"), "/pnno"),
            _mor_ref(C, e.get("z"), "/pnno"),
            _mor_ref(C, e.get("s"), "/pnno"),
        )
    return bag
