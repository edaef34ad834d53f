"""The ``is_*`` checks against the loops kept in ``limit_oracles``, which
rescan hom(z, apex) for every cone: the same verdict on every candidate the
oracle searches enumerate and on corrupted table entries.  A check decides
by order on a thin category and by counting cones elsewhere, one tick per
call where the loop reaches its universal property, so each check runs out
of budget at that tick, and the oracle at its own count.  The exponential
and parameterized-N checks have no route but the order: they decide by
order where the chosen products they read are meets, and answer no, with
no tick, elsewhere.  The searches, which skip the checks' preamble, against
the oracle searches, which build a witness per candidate and hand it to
``is_*``: the same witnesses everywhere, and the same ticks where the
search decides candidate by candidate, as ``partial_table`` does on a thin
category; a search that decides by order or by counting ticks once per
key."""
import itertools
from collections import Counter
from collections.abc import Mapping
from functools import cache

import pytest

import limit_oracles
from catkit import core, exponentials, limits, nno
from catkit.completion import inflate, skeletize, skeleton_inclusion
from catkit.errors import (
    IllTypedComposite,
    InvalidCert,
    PreconditionViolation,
    SearchBudgetExceeded,
)
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_category,
    heyting_diamond,
    random_category,
)
from completion_helpers import shifted_copies
from test_reflected_checks import _exp_corruptions, _limit_corruptions, _sample, _twins

# (module, name): the check in catkit and its oracle share the name
CHECKS = (
    (limits, "is_binary_product"),
    (limits, "is_equalizer"),
    (limits, "is_pullback"),
    (exponentials, "is_exponential"),
    (nno, "is_pnno"),
)


@cache
def corpus():
    out = [random_category(seed) for seed in range(40)]
    out += [finset_fragment(2), finset_fragment(3), chain_poset(4)]
    out.append(heyting_category(heyting_diamond()))
    out.append(inflate(finset_fragment(2), [1, 2, 2])[0])
    return tuple(out)


def _oracle_table(shape, C, partial=False):
    """``limits.partial_table``, or ``find_table``, through the oracle search."""
    out = {}
    for key in shape.keys(C):
        w = limit_oracles.find_limit(shape, C, key)
        if w is not None:
            out[key] = w
        elif not partial:
            return None
    return out


def _oracle_exponentials(C, prods):
    """``exponentials.find_exponentials`` through the oracle search."""
    out = {}
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            w = limit_oracles.find_exponential(C, prods, x, y)
            if w is None:
                return None
            out[(x, y)] = w
    return out


def _searches(C):
    """Run every search whose candidates go through the checks above, the
    limit and exponential ones as oracle searches, which hand each candidate
    to a check; the exponential and pnno searches get the partial product
    table, so that product-incomplete categories exercise them too.  Returns
    the chosen tables."""
    prods = _oracle_table(limits.PRODUCTS, C, partial=True)
    found = {
        "products": _oracle_table(limits.PRODUCTS, C),
        "equalizers": _oracle_table(limits.EQUALIZERS, C),
        "pullbacks": _oracle_table(limits.PULLBACKS, C),
        "exponentials": _oracle_exponentials(C, prods),
    }
    term = limits.find_terminal(C)
    if term is not None:
        found["pnno"] = nno.find_pnno(C, {"terminal": term, "products": prods})
    return prods, found


@cache
def candidates():
    """(name, C, args) for every call the searches make to a check."""
    calls = []
    real = {name: getattr(mod, name) for mod, name in CHECKS}
    try:
        for mod, name in CHECKS:
            def record(C, *args, _name=name):
                calls.append((_name, C, args))
                return real[_name](C, *args)
            setattr(mod, name, record)
        for C in corpus():
            _searches(C)
    finally:
        for mod, name in CHECKS:
            setattr(mod, name, real[name])
    return tuple(calls)


def _run(check, C, args, limit=10**18):
    """The verdict of check and the ticks it took, or SearchBudgetExceeded
    when the budget ran out.  C's thinness scan, which runs once per
    category, is made before the count starts."""
    C.down_sets
    core.set_search_budget(limit)
    try:
        return check(C, *args), core._budget.used
    except SearchBudgetExceeded:
        return SearchBudgetExceeded
    finally:
        core.set_search_budget(None)


def _kernel(name):
    return next(getattr(mod, name) for mod, n in CHECKS if n == name)


# the checks that have no generic route: off the order route they answer no
ORDER_ONLY = {"is_exponential": False, "is_pnno": None}


def _thin_route(name, C, args) -> bool:
    """Whether the check decides these arguments by order: on a thin
    category, the exponential and parameterized-N checks only where the
    chosen products they read, with x or with N, are all meets."""
    if name == "is_exponential":
        prods, w = args
        return limits._meet_apexes(C, prods, w.x) is not None
    if name == "is_pnno":
        return limits._meet_apexes(C, args[1], args[2]) is not None
    return C.down_sets is not None


def _owed(name, C, args, oracle):
    """The verdict and ticks the check owes where the oracle's run gave
    oracle: the same verdict with one tick where the oracle ticks, which it
    does whenever the check reaches its universal property, and no, with
    no tick, off the order route for the checks that have no other."""
    verdict, used = oracle
    if name in ORDER_ONLY and not _thin_route(name, C, args):
        return ORDER_ONLY[name], 0
    return verdict, min(used, 1)


def test_every_searched_candidate_gets_the_oracles_verdict_and_ticks():
    seen = {name: set() for _, name in CHECKS}
    routes = {name: set() for _, name in CHECKS}
    differ = set()
    views = {}
    for name, C, args in candidates():
        got = _run(_kernel(name), C, args)
        oracle = _run(getattr(limit_oracles, name), C, args)
        assert got == _owed(name, C, args, oracle), (name, C.name, args)
        if name not in ORDER_ONLY:
            # the counting kernel, which the order route stands in for on a
            # thin category, gives the oracle's verdict with one tick there too
            G = views.setdefault(C, limit_oracles.generic_view(C))
            assert _run(_kernel(name), G, args) == (oracle[0], min(oracle[1], 1)), (
                name, C.name, args)
        elif bool(got[0]) != bool(oracle[0]):
            # off a preorder, over a partial products table
            differ.add(name)
        seen[name].add(bool(got[0]))
        routes[name].add(_thin_route(name, C, args))
    # each check is met with both verdicts and on both routes, so the parity
    # is not vacuous; the exponential check answers no where a partial
    # products table on a category that is not thin let the loop answer yes
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen
    assert all(r == {True, False} for r in routes.values()), routes
    assert differ == {"is_exponential"}, differ


def test_corrupted_entries_get_the_oracles_verdict_and_ticks():
    shapes = {
        "products": (limits.PRODUCTS, "is_binary_product"),
        "equalizers": (limits.EQUALIZERS, "is_equalizer"),
        "pullbacks": (limits.PULLBACKS, "is_pullback"),
    }
    seen = set()
    for C in corpus():
        prods, found = _searches(C)
        twins = _twins(C)
        for kind, (shape, check) in shapes.items():
            table = found[kind] or limits.partial_table(shape, C)
            for key in _sample(table):
                for how, bad in _limit_corruptions(shape, C, table[key], twins):
                    got = _run(_kernel(check), C, (bad,))
                    oracle = _run(getattr(limit_oracles, check), C, (bad,))
                    assert got == _owed(check, C, (bad,), oracle), (C.name, kind, key, how, bad)
                    seen.add((kind, got[0]))
        exps = found["exponentials"] or {}
        for key in _sample(exps):
            for how, bad in _exp_corruptions(C, prods, exps[key], twins):
                got = _run(exponentials.is_exponential, C, (prods, bad))
                oracle = _run(limit_oracles.is_exponential, C, (prods, bad))
                assert got == _owed("is_exponential", C, (prods, bad), oracle), (
                    C.name, key, how, bad)
                seen.add(("exponentials", got[0]))
    assert {(k, v) for k in [*shapes, "exponentials"] for v in (True, False)} <= seen, seen


@pytest.mark.parametrize("name", [name for _, name in CHECKS])
def test_the_budget_runs_out_at_the_same_count(name):
    """The check and its oracle each finish at the count they tick and run
    out one below it; the check's count is one where the oracle's loop
    reaches the universal property, on the order route and off it, and
    none where the exponential and parameterized-N checks answer no off
    the order route."""
    calls = [(C, args) for n, C, args in candidates() if n == name]
    ticked = 0
    for C, args in calls[:: max(1, len(calls) // 200)]:
        oracle = _run(getattr(limit_oracles, name), C, args)
        used = _owed(name, C, args, oracle)[1]
        for check, count in ((_kernel(name), used), (getattr(limit_oracles, name), oracle[1])):
            assert _run(check, C, args, count)[1] == count, (name, C.name, args)
            if count:
                assert _run(check, C, args, count - 1) is SearchBudgetExceeded, (
                    name, C.name, args)
        ticked += used > 0
    assert ticked > 0


def _keys_to_first_gap(keys, table) -> int:
    """The keys a search that stops at the first key without an entry in
    table visits."""
    return next((i + 1 for i, key in enumerate(keys) if key not in table), len(keys))


def test_the_searches_find_the_oracle_searches_witnesses_with_the_same_ticks():
    """The same witnesses everywhere, and the oracle search's ticks where
    the search decides candidate by candidate: ``partial_table`` on a thin
    category, and ``find_exponentials`` unless every chosen product is a
    meet.  Elsewhere the search decides by order or by counting, one tick
    per key it visits: ``find_table`` always, and ``partial_table`` off a
    thin category, at every key."""
    seen = set()
    for C in corpus():
        thin = C.down_sets is not None
        searches = []
        for shape in (limits.PRODUCTS, limits.EQUALIZERS, limits.PULLBACKS):
            keys = shape.keys(C)
            gap = _keys_to_first_gap(keys, _oracle_table(shape, C, partial=True))
            for partial in (True, False):
                verb = limits.partial_table if partial else limits.find_table
                searches.append((
                    (shape.name, verb.__name__),
                    lambda C, shape=shape, verb=verb: verb(shape, C),
                    lambda C, shape=shape, partial=partial: _oracle_table(shape, C, partial),
                    gap if not partial else None if thin else len(keys),
                ))
        prods = limits.partial_table(limits.PRODUCTS, C)
        ordered = thin and all(limits._meet_apexes(C, prods, x) is not None
                               for x in range(C.n_objects))
        per_key = None
        if ordered:
            pairs = list(itertools.product(range(C.n_objects), repeat=2))
            exps = {(x, y): w for x, y in pairs
                    if (w := limit_oracles.find_exponential(C, prods, x, y)) is not None}
            per_key = _keys_to_first_gap(pairs, exps)
        searches.append((
            ("exponential", "find_exponentials"),
            lambda C: exponentials.find_exponentials(C, {"products": prods}),
            lambda C: _oracle_exponentials(C, prods),
            per_key,
        ))
        for what, search, oracle, per_key in searches:
            got, want = _run(search, C, ()), _run(oracle, C, ())
            assert got == (want if per_key is None else (want[0], per_key)), (C.name, what)
            seen.add((what, got[0] is not None))
            seen.add((what, "per key" if per_key is not None else "per candidate"))
            for run, (_, used) in ((search, got), (oracle, want)):
                if used:
                    assert _run(run, C, (), used - 1) is SearchBudgetExceeded, (C.name, what)
    # every search that can fail both succeeds and fails somewhere in the
    # corpus; the limit finds tick per key, the exponential search both per
    # key and per candidate, and partial_table both per key and per candidate
    finds = {what for what, _ in seen if what[1] != "partial_table"}
    assert {(what, ok) for what in finds for ok in (True, False)} <= seen, seen
    partials = {what for what, _ in seen if what[1] == "partial_table"}
    assert {(what, "per key") for what in finds} <= seen, seen
    assert {(what, route) for what in partials | {("exponential", "find_exponentials")}
            for route in ("per key", "per candidate")} <= seen, seen


def test_the_searches_do_not_go_through_the_public_checks(monkeypatch):
    """Nor, for the exponentials, through the check's own verdict: one tick
    per pair on the diamond, whose products are meets, and none on the
    fragment, which is not thin."""
    def refuse(*args):
        raise AssertionError("a search went through a public check")

    for name in ("is_binary_product", "is_equalizer", "is_pullback"):
        monkeypatch.setattr(limits, name, refuse)
    monkeypatch.setattr(exponentials, "is_exponential", refuse)
    monkeypatch.setattr(exponentials, "_exponential_universal", refuse)
    for C in (finset_fragment(2), heyting_category(heyting_diamond())):
        for shape in (limits.PRODUCTS, limits.EQUALIZERS, limits.PULLBACKS):
            limits.find_table(shape, C)
        prods = limits.partial_table(limits.PRODUCTS, C)
        found, used = _run(exponentials.find_exponentials, C, ({"products": prods},))
        thin = C.down_sets is not None
        assert (found is not None, used) == (thin, C.n_objects ** 2 if thin else 0), C.name


def _carry_corpus():
    """Inflations of the random corpus, then the five inputs of the
    benchmark's structured-pipeline workload, each with its projection."""
    out = []
    for seed in range(40):
        C = random_category(seed)
        out.append(inflate(C, [1 + (seed + i) % 2 for i in range(C.n_objects)]))
    diamond = heyting_category(heyting_diamond())
    for base, copies in ((chain_poset(4), (3, 4, 4, 5)), (chain_poset(4), (2, 3, 3, 3)),
                         (chain_poset(5), (1, 1, 2, 2, 2)), (chain_poset(4), (1, 2, 2, 3)),
                         (diamond, (2, 2, 2, 2))):
        out.append(inflate(base, copies))
    return out


def _outcome(verb, *args):
    """What verb returns, a carried table or a certificate as its fields, or
    the type and message of what it raises."""
    try:
        out = verb(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, Mapping):
        return out, None
    return None, None if out is None else (out.functor, out.source, out.target, out.mu)


def _one_corrupted(shape, C, table):
    """table, then copies with the entry at one key corrupted, its fields
    among others set to -1 and past the last index."""
    if not table:
        return [table]
    keys = _sample(table)
    key = keys[len(keys) // 2]
    return [table] + [
        {**table, key: bad} for _, bad in _limit_corruptions(shape, C, table[key], _twins(C))
    ]


def test_carry_and_preserves_give_the_entries_certificates_and_raises_of_their_loops():
    seen = Counter()
    for C, _ in _carry_corpus():
        res = skeletize(C)
        D, eta, incl = res.completed, res.eta, skeleton_inclusion(res)
        twins = _twins(C)
        for shape in (limits.TERMINAL, limits.PRODUCTS, limits.EQUALIZERS, limits.PULLBACKS):
            table = limits.partial_table(shape, D)
            for case in _one_corrupted(shape, D, table):
                got = _outcome(limits.carry, shape, incl, case)
                assert got == _outcome(limit_oracles.carry, shape, incl, case), (C.name, shape.name)
                seen["carry", got[0] if isinstance(got[0], type) else "ok"] += 1
            carried = _outcome(limits.carry, shape, incl, table)[0]
            if isinstance(carried, type):
                continue
            # eta's preserves of the carried table, whole, then one entry at a
            # time, corrupted
            cases = [carried] + [
                {key: bad} for key in _sample(carried)
                for _, bad in _limit_corruptions(shape, C, carried[key], twins)
            ]
            for case in cases:
                got = _outcome(limits.preserves, shape, eta, case, table)
                assert got == _outcome(limit_oracles.preserves, shape, eta, case, table), (
                    C.name, shape.name, case if len(case) == 1 else "whole")
                seen["preserves", got[0] if isinstance(got[0], type) else got[1] is not None] += 1
    # each verb meets each outcome, so the parity is not vacuous
    assert {("carry", "ok"), ("carry", PreconditionViolation), ("carry", IllTypedComposite),
            ("carry", IndexError), ("preserves", True), ("preserves", False),
            ("preserves", InvalidCert)} <= set(seen), seen


def test_carry_and_preserves_keep_the_parity_along_copy_shifting_automorphisms():
    """Along the automorphism of an inflation that moves each copy of an
    object onto the next, preserves of the found table into itself and
    carry along the shift's certificate give the oracles' answers.  The
    shift moves chosen entries onto other copies, so some comparisons of
    preserves are not identities and some carried entries are not the
    found ones."""
    moved = Counter()
    for C, proj in _carry_corpus():
        shift = shifted_copies(proj)
        cert = core.is_weak_equivalence(shift)
        for shape in (limits.TERMINAL, limits.PRODUCTS, limits.EQUALIZERS, limits.PULLBACKS):
            table = limits.partial_table(shape, C)
            got = _outcome(limits.preserves, shape, shift, table, table)
            assert got == _outcome(limit_oracles.preserves, shape, shift, table, table), (
                C.name, shape.name)
            if not isinstance(got[0], type) and got[1] is not None:
                moved["mu"] += sum(not C.is_identity(iso.fwd) for iso in got[1][3].values())
            got = _outcome(limits.carry, shape, cert, table)
            assert got == _outcome(limit_oracles.carry, shape, cert, table), (C.name, shape.name)
            if not isinstance(got[0], type):
                moved["carried"] += sum(w != table.get(key) for key, w in got[0].items())
    assert moved["mu"] and moved["carried"], moved
