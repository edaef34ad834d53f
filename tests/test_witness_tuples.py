"""Witnesses whose fields are all indices are tuples of their own class.

A witness compares equal to the plain tuple of its fields, so a parity test
would pass a bare tuple where a witness belongs; these tests read the
representation directly: the class of every entry each verb returns, the
field names and their order, the hash and the repr."""
import contextlib
import dataclasses
import json
from collections.abc import Mapping

import pytest

from catkit import classifier, core, exponentials, limits, nno
from catkit.classifier import SubobjectClassifierW
from catkit.completion import inflate, skeletality, skeletize, skeleton_inclusion
from catkit.exponentials import ExponentialW
from catkit.generators import chain_poset, finset_fragment, setoid_groupoid
from catkit.interchange import category_to_json, structure_from_json, structure_to_json
from catkit.lifting import KIND_ORDER, KINDS, complete_structured, factor_structured, find_bag
from catkit.limits import (
    EQUALIZERS,
    PRODUCTS,
    PULLBACKS,
    TERMINAL,
    BinCoproductW,
    BinProductW,
    ChosenInitial,
    ChosenTerminal,
    CoequalizerW,
    EqualizerW,
    PullbackW,
)
from catkit.nno import PNNOW

# each tuple witness and the fields it had as a dataclass, in order
FIELDS = {
    ChosenTerminal: ("t",),
    BinProductW: ("x1", "x2", "apex", "pi1", "pi2"),
    EqualizerW: ("f", "g", "obj", "arrow"),
    PullbackW: ("f", "g", "apex", "p1", "p2"),
    ChosenInitial: ("i",),
    BinCoproductW: ("x1", "x2", "apex", "in1", "in2"),
    CoequalizerW: ("f", "g", "obj", "arrow"),
    ExponentialW: ("x", "y", "obj", "ev"),
    PNNOW: ("N", "z", "s"),
}

WITNESS = {
    "terminal": ChosenTerminal, "products": BinProductW, "equalizers": EqualizerW,
    "pullbacks": PullbackW, "exponentials": ExponentialW, "classifier": SubobjectClassifierW,
    "pnno": PNNOW,
}

SHAPES = {"terminal": TERMINAL, "products": PRODUCTS, "equalizers": EQUALIZERS,
          "pullbacks": PULLBACKS}


def _inputs():
    """A thin inflation, an inflated pair that carries all seven kinds, and
    a fragment that is not thin, each with its projection or None."""
    return [
        inflate(chain_poset(3), [1, 2, 2]),
        inflate(setoid_groupoid(2, {(0, 1)}, name="pair"), [2, 1]),
        (finset_fragment(3), None),
    ]


def _entries(entry) -> list:
    """The witnesses of a bag entry: a table's values, or the entry itself."""
    return list(entry.values()) if isinstance(entry, Mapping) else [entry]


def _assert_typed(bag: dict, where) -> None:
    assert bag, where
    for name, entry in bag.items():
        ws = _entries(entry)
        assert ws, (where, name)
        for w in ws:
            assert type(w) is WITNESS[name], (where, name, w)


def test_each_tuple_witness_keeps_its_fields_repr_and_hash():
    for W, names in FIELDS.items():
        assert issubclass(W, tuple) and W._fields == names, W
        values = tuple(range(3, 3 + len(names)))
        w = W(*values)
        assert repr(w) == W.__name__ + "(" + ", ".join(
            f"{n}={v}" for n, v in zip(names, values)) + ")"
        assert str(w) == repr(w)
        assert hash(w) == hash(tuple(w)) == hash(values)
        moved = w._replace(**{names[-1]: 99})
        assert type(moved) is W and moved == values[:-1] + (99,)


def test_the_classifier_witness_and_the_certificates_stay_dataclasses():
    for cls in (SubobjectClassifierW, core.Iso, limits.LimitPreservationCert,
                exponentials.ExpPreservationCert, nno.PNNOPreservationCert,
                classifier.OmegaPreservationCert):
        assert dataclasses.is_dataclass(cls) and not issubclass(cls, tuple), cls
    w = SubobjectClassifierW(1, 2, {3: 4})
    assert w._replace(tau=5) == SubobjectClassifierW(1, 5, {3: 4})


def test_every_search_returns_witnesses_of_its_class():
    for C, _ in _inputs():
        bag = find_bag(C, KIND_ORDER)
        _assert_typed(bag, C.name)
        for name, shape in SHAPES.items():
            for table in (limits.find_table(shape, C), limits.partial_table(shape, C)):
                if table is not None:
                    _assert_typed({name: table}, (C.name, name))
        found = [limits.find_terminal(C), limits.find_binary_products(C),
                 limits.find_equalizers(C), limits.find_pullbacks(C)]
        for name, entry in zip(SHAPES, found):
            if entry is not None:
                _assert_typed({name: entry}, (C.name, name))
        if "products" in bag:
            _assert_typed({"exponentials": {(0, 0): exponentials.find_exponential(
                C, bag["products"], 0, 0)}}, C.name)
        duals = [(ChosenInitial, limits.find_initial(C)),
                 (BinCoproductW, limits.find_binary_coproducts(C)),
                 (CoequalizerW, limits.find_coequalizers(C)),
                 (BinCoproductW, limits.find_binary_coproduct(C, 0, 0)),
                 (CoequalizerW, limits.find_coequalizer(C, 0, 0))]
        for W, entry in duals:
            if entry is not None:
                assert all(type(w) is W for w in _entries(entry)), (C.name, W)


def test_every_carry_and_transfer_returns_witnesses_of_its_class():
    for C, _ in _inputs():
        res = skeletize(C)
        D, incl = res.completed, skeleton_inclusion(res)
        on_skeleton = find_bag(D, KIND_ORDER)
        transferred: dict = {}
        for name in KIND_ORDER:
            if name in on_skeleton:
                transferred[name] = KINDS[name].transfer(incl, on_skeleton, transferred)
        _assert_typed(transferred, (C.name, "transfer"))
        carried = {}
        for name, shape in SHAPES.items():
            if name in on_skeleton:
                table = on_skeleton[name] if shape.n_key else {(): on_skeleton[name]}
                carried[name] = limits.carry(shape, incl, table)
        _assert_typed(carried, (C.name, "carry"))
        if "exponentials" in on_skeleton:
            _assert_typed({"exponentials": exponentials.carry_exponentials(
                incl, on_skeleton, transferred)}, (C.name, "carry_exponentials"))
        if "pnno" in on_skeleton:
            _assert_typed({"pnno": nno.carry_pnno(incl, on_skeleton, transferred)},
                          (C.name, "carry_pnno"))


def test_structure_read_from_json_holds_witnesses_of_their_class():
    for C, _ in _inputs():
        bag = find_bag(C, KIND_ORDER)
        doc = {**category_to_json(C), **structure_to_json(C, bag)}
        read = structure_from_json(json.loads(json.dumps(doc)), C)
        assert read == bag, C.name
        _assert_typed(read, C.name)


def test_the_bags_of_a_structured_completion_and_factorization_hold_witnesses_of_their_class():
    for C, proj in _inputs():
        if proj is None:
            continue
        sc = complete_structured(C)
        _assert_typed(sc.source, (C.name, "source"))
        _assert_typed(sc.completed, (C.name, "completed"))
        for F in (proj, sc.result.eta):
            rigid = skeletality(F.target).is_gaunt
            with pytest.warns(UserWarning, match="not gaunt") if not rigid \
                    else contextlib.nullcontext():
                sf = factor_structured(sc, F)
            _assert_typed(sf.target, (C.name, F.name))
