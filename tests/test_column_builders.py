"""The tables built column by column against the loops that build them key
by key: ``limits._thin_table`` against the generic search, entries and
ticks alike, ``exponentials.transfer_exponentials`` against its walk over
the pairs, entries and raises alike, and the identity route of
``limits.preserves`` against the walk over the source."""
import itertools
from collections import Counter

import limit_oracles
from catkit import core, limits
from catkit.completion import skeletize, skeleton_inclusion
from catkit.core import check_weak_equivalence_cert, fincat, identity_functor
from catkit.errors import InvalidCert, SearchBudgetExceeded
from catkit.exponentials import ExponentialW, check_exponentials, transfer_exponentials
from catkit.lifting import find_bag
from test_limit_oracles import _carry_corpus, _outcome
from test_limit_routes import corpus, oracle_bag
from test_reflected_checks import _limit_corruptions, _sample, _twins

SHAPES = {"terminal": limits.TERMINAL, "products": limits.PRODUCTS,
          "equalizers": limits.EQUALIZERS, "pullbacks": limits.PULLBACKS}


def _ticks(call):
    """What call returns and the ticks it took, or SearchBudgetExceeded
    under the given budget."""
    def run(limit=10**18):
        core.set_search_budget(limit)
        try:
            return call(), core._budget.used
        except SearchBudgetExceeded:
            return SearchBudgetExceeded
        finally:
            core.set_search_budget(None)
    return run


def test_thin_tables_are_the_generic_searches_witnesses_one_tick_per_key():
    seen = set()
    for i, C in enumerate(corpus()):
        if C.down_sets is None:
            continue
        bag = oracle_bag(i)
        G = limit_oracles.generic_view(C)
        for name, shape in SHAPES.items():
            want = bag.get(name)
            if want is not None and not shape.n_key:
                want = {(): want}
            keys = shape.keys(C)
            # one tick per key, as far as the first key without a limit
            ticks = len(keys) if want is not None else 1 + next(
                i for i, key in enumerate(keys) if limits.find_limit(shape, G, key) is None)
            run = _ticks(lambda: limits._thin_table(shape, C))
            assert run() == (want, ticks), (C.name, name)
            assert want is None or all(type(w) is shape.witness for w in run()[0].values())
            assert run(ticks - 1) is SearchBudgetExceeded, (C.name, name)
            seen.add((name, want is not None))
    # a thin category has every equalizer: each parallel pair is an arrow twice
    assert {(name, found) for name in SHAPES for found in (True, False)} - seen == {
        ("equalizers", False)}, seen


def carry_by_pair(cert, src: dict, dst: dict) -> dict:
    """``exponentials.transfer_exponentials`` as a walk over the pairs in
    order: the source exponentials and the certificate are refused first,
    as the transfer refuses them, and then each entry is imaged and its
    evaluation read key by key."""
    check_exponentials(cert.functor.source, src)
    check_weak_equivalence_cert(cert)
    G = cert.functor
    D = G.target
    expsC, prodsD, hom = src["exponentials"], dst["products"], D.hom_map
    out = {}
    for d1, d2 in itertools.product(range(D.n_objects), repeat=2):
        x1, x2 = cert.eso_witness[d1][0], cert.eso_witness[d2][0]
        obj = G.obj_map[expsC[(x1, x2)].obj]
        entry = prodsD.get((obj, d1))
        ev = None if entry is None else hom.get((entry.apex, d2))
        if ev is None:
            raise InvalidCert(f"target products lack a product of ({obj},{d1}) below {d2}")
        out[(d1, d2)] = ExponentialW(d1, d2, obj, ev[0])
    return out


def _exp_cases(cert, src: dict, dst: dict):
    """(src, dst) as given, then with one source entry missing or with its
    object out of range, and with the middle chosen product of dst missing
    or on each other apex."""
    exps, prods = src["exponentials"], dst["products"]
    n, m = cert.functor.source.n_objects, cert.functor.target.n_objects
    yield src, dst
    for key in _sample(exps):
        w = exps[key]
        yield {**src, "exponentials": {k: v for k, v in exps.items() if k != key}}, dst
        for bad in (-1, n):
            yield {**src, "exponentials": {**exps, key: w._replace(obj=bad)}}, dst
    for key in sorted(prods)[len(prods) // 2:][:1]:
        yield src, {**dst, "products": {k: v for k, v in prods.items() if k != key}}
        for apex in range(m):
            yield src, {**dst, "products": {**prods, key: prods[key]._replace(apex=apex)}}


def test_transfer_exponentials_gives_the_entries_and_raises_of_its_walk():
    """Corrupted source and target tables go through
    ``transfer_exponentials``: the source is refused by its check before
    the carry, and a target product the carry cannot read by one refusal."""
    seen = Counter()
    for i, C in enumerate(corpus()):
        bag = oracle_bag(i)
        if "exponentials" not in bag:
            continue
        res = skeletize(C)
        D, incl = res.completed, skeleton_inclusion(res)
        on_skeleton = find_bag(D, ("products", "exponentials"))
        carried = {"products": limits.carry(limits.PRODUCTS, incl, on_skeleton["products"])}
        # onto the source along the inclusion, and onto the skeleton along eta
        for cert, src, dst in ((incl, on_skeleton, carried), (res.cert, bag, on_skeleton)):
            for case in _exp_cases(cert, src, dst):
                got = _outcome(transfer_exponentials, cert, *case)
                assert got == _outcome(carry_by_pair, cert, *case), C.name
                if isinstance(got[0], type):
                    seen[got[0], got[1].split(" ")[0]] += 1
                else:
                    assert all(type(w) is ExponentialW for w in got[0].values()), C.name
                    seen["ok"] += 1
    assert {"ok", (InvalidCert, "exponential"), (InvalidCert, "target")} <= set(seen), seen


class _Watched(dict):
    """A target table that counts its reads by ``get``."""

    reads = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)


def test_preserves_along_the_identity_gives_the_certificates_and_raises_of_its_walk():
    """A table into itself along the identity, whole and with its middle
    entry corrupted on both sides: mu, answer and raise are the walk's, and
    the table in range and keyed by its keys is decided without reading the
    target."""
    seen = Counter()
    for C, _ in _carry_corpus():
        F, twins = identity_functor(C), _twins(C)
        for shape in SHAPES.values():
            table = limits.partial_table(shape, C)
            if not table:
                continue
            target = _Watched(table)
            got = _outcome(limits.preserves, shape, F, table, target)
            assert got == _outcome(limit_oracles.preserves, shape, F, table, table), C.name
            assert got[1] is not None and target.reads == 0, (C.name, shape.name)
            assert all(iso.fwd == iso.inv == C.identity[w[shape.n_key]]
                       for iso, w in zip(got[1][3].values(), table.values()))
            key = sorted(table)[len(table) // 2]
            for how, bad in _limit_corruptions(shape, C, table[key], twins):
                case = {**table, key: bad}
                got = _outcome(limits.preserves, shape, F, case, dict(case))
                assert got == _outcome(limit_oracles.preserves, shape, F, case, case), (
                    C.name, shape.name, how)
                seen[got[0] if isinstance(got[0], type) else got[1] is not None] += 1
    assert {True, InvalidCert} <= set(seen), seen


def test_preserves_along_the_identity_walks_an_entry_keyed_by_another_key():
    """An entry at (a, b) that is the cone (p, p) over (b, b), with two
    mediators from a, an idempotent e besides the identity: the walk
    compares its image, keyed (a, b), with it and refuses the entry, and so
    does the table into itself along the identity."""
    C = fincat("idempotent", ["a", "b"], ["id_a", "id_b", "e", "p"], [0, 1, 0, 0],
               [0, 1, 0, 1], [0, 1], {(2, 2): 2, (2, 3): 3})
    F, table = identity_functor(C), {(0, 1): limits.BinProductW(1, 1, 0, 3, 3)}
    got = _outcome(limits.preserves, limits.PRODUCTS, F, table, dict(table))
    assert got == _outcome(limit_oracles.preserves, limits.PRODUCTS, F, table, table)
    assert got[0] is InvalidCert and "admits 2 mediators" in got[1]
