"""The transfers trust only what was found on the very skeleton they read.

``complete_structured`` records each entry it finds on its skeleton ``D``
against that category instance (``core.record_found``), and its
``transfer_*`` along the inclusion skip their source check of exactly those
objects.  Everything else is checked in full, with the message the kind's
``check`` gives: a corrupted copy of a found table, the found entries read
on another instance with the same tables, and a supplied witness.  Every
public check still runs its checker on the found entries, and the record
keeps no skeleton alive.
"""
import dataclasses
import gc
import weakref
from types import MappingProxyType

import pytest

from catkit import classifier, core, exponentials, limits, nno
from catkit.completion import inflate, skeleton_inclusion
from catkit.core import FinCat, Functor, WeakEquivalenceCert
from catkit.errors import InvalidCert
from catkit.generators import chain_poset, finset_fragment
from catkit.lifting import KINDS, complete_structured, find_bag

# each transfer's source check, by the module whose transfer looks it up
SOURCE_CHECKS = {
    limits: ("check_table",),
    exponentials: ("check_exponentials",),
    classifier: ("check_subobject_classifier",),
    nno: ("check_pnno",),
}
TRANSFERS = {
    limits: ("transfer",),
    exponentials: ("transfer_exponentials",),
    classifier: ("transfer_subobject_classifier",),
    nno: ("transfer_pnno",),
}
# what each kind's check runs, by the module that looks it up
CHECKERS = {
    limits: ("is_terminal", "is_binary_product", "is_equalizer", "is_pullback"),
    exponentials: ("_exponential_universal",),
    classifier: ("subobject_classifier_cert",),
    nno: ("is_pnno",),
}


def inputs():
    """Two inflations that, between them, carry all seven kinds: an
    inflated chain on a gaunt skeleton, and inflated finite sets, whose
    skeleton is not gaunt, with a classifier."""
    return [inflate(chain_poset(3), [1, 2, 2])[0], inflate(finset_fragment(2), [1, 2, 1])[0]]


def _watch(monkeypatch, names: dict, calls: list, running: list, marks: bool = False):
    """Wrap each named function of each module so that it appends (name,
    the category it reads, whether a marking function is running) to
    calls; with marks, each wrapped function is on running while it runs."""
    for mod, fns in names.items():
        for name in fns:
            real = getattr(mod, name)

            def wrapped(*args, _real=real, _name=name):
                calls.append((_name, _category(args), bool(running)))
                if marks:
                    running.append(_name)
                try:
                    return _real(*args)
                finally:
                    if marks:
                        running.pop()
            monkeypatch.setattr(mod, name, wrapped)


def _category(args):
    """The category a call reads: its first category argument, or the
    source of its certificate."""
    for a in args:
        if isinstance(a, FinCat):
            return a
        if isinstance(a, WeakEquivalenceCert):
            return a.functor.source
    return None


@pytest.mark.parametrize("C", inputs(), ids=lambda C: C.name)
def test_the_found_route_makes_no_source_check_on_the_skeleton(monkeypatch, C):
    checks, transfers, running = [], [], []
    _watch(monkeypatch, SOURCE_CHECKS, checks, running)
    _watch(monkeypatch, TRANSFERS, transfers, running, marks=True)
    sc = complete_structured(C)
    D = sc.result.completed
    assert [(name, cat) for name, cat, in_transfer in checks if in_transfer and cat is D] == []
    # every kind still goes through its transfer, each from the skeleton
    assert len(transfers) == len(sc.kinds)
    assert all(cat is D for _, cat, _ in transfers)


def _corrupted(name: str, D, entry):
    """entry, found on D, with one field out of range: a table copied with
    dict(...) and its first entry's last field replaced, the terminal's
    apex, the classifier's chi at its first key in a copied chi table, the
    parameterized N's successor."""
    if isinstance(entry, classifier.SubobjectClassifierW):
        first = min(entry.chi)
        return entry._replace(chi={**dict(entry.chi), first: D.n_morphisms})
    if isinstance(entry, limits.ChosenTerminal):
        return entry._replace(t=D.n_objects)
    if isinstance(entry, nno.PNNOW):
        return entry._replace(s=D.n_morphisms)
    table = dict(entry)
    key = min(table)
    table[key] = table[key]._replace(**{table[key]._fields[-1]: D.n_morphisms})
    return table


def _refusal(call) -> str:
    with pytest.raises(InvalidCert) as e:
        call()
    return str(e.value)


def _swapped(table):
    """A dict(...) copy of a table whose first entry is replaced by its
    last: every field names something, but the entry is keyed wrongly."""
    table = dict(table)
    keys = sorted(table)
    table[keys[0]] = table[keys[-1]]
    return table


@pytest.mark.parametrize("C", inputs(), ids=lambda C: C.name)
def test_each_transfer_checks_a_corrupted_copy_of_a_found_entry_in_full(C):
    sc = complete_structured(C)
    D, incl = sc.result.completed, skeleton_inclusion(sc.result)
    for name in sc.kinds:
        bads = [_corrupted(name, D, sc.completed[name])]
        if KINDS[name].block.key and len(sc.completed[name]) > 1:
            bads.append(_swapped(sc.completed[name]))
        for bad in ({**sc.completed, name: entry} for entry in bads):
            want = _refusal(lambda: KINDS[name].check(D, bad))
            assert _refusal(lambda: KINDS[name].transfer(incl, bad, dict(sc.source))) == want, name


def _copy(entry):
    """An entry equal to entry but not it: a table or chi table copied
    with dict(...), a tuple witness rebuilt."""
    if isinstance(entry, classifier.SubobjectClassifierW):
        return entry._replace(chi=dict(entry.chi))
    return dict(entry) if isinstance(entry, dict | MappingProxyType) else type(entry)(*entry)


@pytest.mark.parametrize("C", inputs(), ids=lambda C: C.name)
def test_only_the_found_objects_on_that_instance_skip_the_check(monkeypatch, C):
    """On dataclasses.replace(D), a category with D's tables, the very
    views found on D are checked again, and so are equal copies of them on
    D itself; each carries as it does from D."""
    sc = complete_structured(C)
    D, incl = sc.result.completed, skeleton_inclusion(sc.result)
    twin = dataclasses.replace(D)
    F = incl.functor
    along_twin = WeakEquivalenceCert(Functor(twin, F.target, F.obj_map, F.mor_map, F.name),
                                     incl.ff_witness, incl.eso_witness)
    copies = {name: _copy(entry) for name, entry in sc.completed.items()}
    checks = []
    _watch(monkeypatch, SOURCE_CHECKS, checks, [])
    for cert, bag in ((along_twin, sc.completed), (incl, copies)):
        for name in sc.kinds:
            checks.clear()
            carried = KINDS[name].transfer(cert, bag, dict(sc.source))
            assert [cat for _, cat, _ in checks] == [cert.functor.source], name
            assert carried == sc.source[name], name


@pytest.mark.parametrize("C", inputs(), ids=lambda C: C.name)
def test_a_corrupted_supplied_witness_is_refused(C):
    found = find_bag(C, tuple(KINDS))
    for name in found:
        bad = _corrupted(name, C, found[name])
        want = _refusal(lambda: KINDS[name].check(C, {**found, name: bad}))
        supplied = {**found, name: bad}
        assert _refusal(lambda: complete_structured(C, witnesses=supplied)) == want, name


@pytest.mark.parametrize("C", inputs(), ids=lambda C: C.name)
def test_every_check_runs_its_checker_on_the_found_entries(monkeypatch, C):
    sc = complete_structured(C)
    D = sc.result.completed
    for name in sc.kinds:
        calls = []
        _watch(monkeypatch, CHECKERS, calls, [])
        KINDS[name].check(D, sc.completed)
        monkeypatch.undo()
        assert any(cat is D for _, cat, _ in calls), name


def test_the_record_holds_read_only_entries_and_no_skeleton():
    sc = complete_structured(inputs()[0])
    D = sc.result.completed
    found = core._found_entries[D]
    assert set(found) == set(sc.kinds)
    assert all(found[name] is sc.completed[name] for name in found)
    assert all(not isinstance(e, dict) for e in found.values())
    gone = weakref.ref(D)
    del sc, D, found
    gc.collect()
    assert gone() is None
