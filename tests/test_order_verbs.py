"""The exponential and parameterized-N verbs, which decide by order, against
the general loops kept in ``limit_oracles``: the same searches and checks on
every thin category of the corpus, and the same preservation certificates
along projections of inflations, their sections, and sections into the
last copy of each object, whose comparisons are not identities."""
from functools import cache

import pytest

import limit_oracles
from catkit import exponentials, limits, nno
from catkit.completion import inflate_section
from catkit.core import functor
from catkit.errors import InvalidCert, SearchBudgetExceeded
from catkit.generators import finset_fragment, heyting_category, heyting_chain
from catkit.lifting import find_bag
from test_limit_oracles import _carry_corpus, _run
from test_limit_routes import corpus, oracle_bag
from test_reflected_checks import _exp_corruptions, _sample, _twins


@cache
def thin_bags() -> tuple:
    """(category, generic bag) for every thin member of the corpus of the
    limit routes, which holds the pinned Heyting categories."""
    return tuple((C, oracle_bag(i)) for i, C in enumerate(corpus()) if C.down_sets is not None)


def _raises(call) -> bool:
    try:
        call()
    except InvalidCert:
        return True
    return False


def test_the_searches_find_the_general_searches_witnesses():
    """A thin category with a terminal and products always has a
    parameterized N, its lowest top; its exponentials may be missing."""
    seen = set()
    for C, bag in thin_bags():
        if "products" not in bag:
            continue
        assert exponentials.find_exponentials(C, bag) == bag.get("exponentials"), C.name
        assert ("pnno" in bag) == ("terminal" in bag), C.name
        if "terminal" in bag:
            assert nno.find_pnno(C, bag) == bag["pnno"], C.name
        seen.add(("exponentials" in bag, "terminal" in bag))
    assert {(True, True), (False, True), (False, False)} <= seen, seen


def test_the_checks_give_the_general_loops_verdicts():
    """check_exponentials on the found table and on copies with one entry
    corrupted, and check_pnno on every typed triple under every terminal,
    raise exactly where the loops over curried forms and recursors
    refuse."""
    seen = set()
    for C, bag in thin_bags():
        prods = bag.get("products")
        if prods is None:
            continue
        exps = bag.get("exponentials")
        cases = [] if exps is None else [exps] + [
            {**exps, key: bad} for key in _sample(exps)
            for _, bad in _exp_corruptions(C, prods, exps[key], _twins(C))
        ]
        for table in cases:
            want = not all(limit_oracles.is_exponential(C, prods, table[(x, y)])
                           and (table[(x, y)].x, table[(x, y)].y) == (x, y) for x, y in table)
            got = _raises(lambda: exponentials.check_exponentials(
                C, {"products": prods, "exponentials": table}))
            assert got == want, (C.name, table)
            seen.add(("exponentials", got))
        for t in range(C.n_objects):
            if not limits.is_terminal(C, t):
                continue
            term = limits.ChosenTerminal(t)
            for N in range(C.n_objects):
                for z in C.hom(t, N):
                    for s in C.hom(N, N):
                        w = nno.PNNOW(N, z, s)
                        want = limit_oracles.is_pnno(C, term, prods, N, z, s) is None
                        got = _raises(lambda: nno.check_pnno(
                            C, {"terminal": term, "products": prods, "pnno": w}))
                        assert got == want, (C.name, term, w)
                        seen.add(("pnno", got))
    assert {("exponentials", True), ("exponentials", False), ("pnno", False)} <= seen, seen


def _last_copies(proj):
    """The section of an inflation's projection into the last copy of each
    object, each morphism sent to the one over it between those copies."""
    infl, base = proj.source, proj.target
    last = {proj.obj_map[y]: y for y in range(infl.n_objects)}
    obj_map = [last[x] for x in range(base.n_objects)]
    mor_map = [
        next(h for h in infl.hom(obj_map[base.mor_src[f]], obj_map[base.mor_dst[f]])
             if proj.mor_map[h] == f)
        for f in range(base.n_morphisms)
    ]
    return functor(base, infl, obj_map, mor_map, name=f"last_{base.name}")


KINDS = ("terminal", "products", "exponentials", "pnno")


@pytest.mark.parametrize("kind", ["exponentials", "pnno"])
def test_preserves_gives_the_general_certificates(kind):
    """Along each functor, preserves compares an image with the chosen
    entry by the pair of arrows between their objects; the oracle curries,
    or recurses, through the chosen entry.  Their comparisons agree."""
    verb = getattr(exponentials if kind == "exponentials" else nno, f"preserves_{kind}")
    oracle = getattr(limit_oracles, f"preserves_{kind}")
    moved = 0
    for infl, proj in _carry_corpus():
        if infl.down_sets is None:
            continue
        base = proj.target
        bags = {infl: find_bag(infl, KINDS), base: find_bag(base, KINDS)}
        for F in (proj, inflate_section(proj), _last_copies(proj)):
            src, dst = bags[F.source], bags[F.target]
            if kind not in src:
                continue
            got = verb(F, src, dst)
            if kind == "exponentials":   # the currying oracle reads F's products certificate
                muF = limits.preserves_binary_products(F, src["products"], dst["products"])
                want = oracle(F, src, dst, muF)
            else:
                want = oracle(F, src, dst)
            assert (got is None) == (want is None), (infl.name, F.name)
            if got is None:
                continue
            comparisons = got.comparison if kind == "exponentials" else {(): got.comparison}
            assert comparisons == (want.comparison if kind == "exponentials"
                                   else {(): want.comparison}), (infl.name, F.name)
            moved += sum(not F.target.is_identity(iso.fwd) for iso in comparisons.values())
    assert moved > 0


def test_preserves_refuses_a_category_that_is_not_thin():
    """No bag of products, exponentials and parameterized N exists off a
    preorder, so an entry there is refused rather than compared."""
    C, bag = next((C, bag) for C, _ in _carry_corpus()
                  if "pnno" in (bag := find_bag(C, KINDS)) and "exponentials" in bag)
    G = limit_oracles.generic_view(C)
    F = functor(C, G, list(range(C.n_objects)), list(range(C.n_morphisms)))
    with pytest.raises(InvalidCert):
        exponentials.preserves_exponentials(F, bag, bag)
    with pytest.raises(InvalidCert):
        nno.preserves_pnno(F, bag, bag)


def test_each_order_verb_ticks_once_per_decision():
    """One check per pair for the exponential searches and checks, one for
    each parameterized-N verb, and none where there is no preorder to
    decide on; each stops at a budget one short."""
    C, F = heyting_category(heyting_chain(3)), finset_fragment(2)
    bag = find_bag(C, KINDS)
    prods, partial = bag["products"], limits.partial_table(limits.PRODUCTS, F)
    w, p, n = bag["exponentials"][(1, 0)], bag["pnno"], C.n_objects ** 2
    for verb, D, args, want in [
        (exponentials.find_exponentials, C, (bag,), (bag["exponentials"], n)),
        (exponentials.check_exponentials, C, (bag,), (None, n)),
        (exponentials.find_exponential, C, (prods, 1, 0), (w, 1)),
        (exponentials.is_exponential, C, (prods, w), (True, 1)),
        (nno.find_pnno, C, (bag,), (p, 1)),
        (nno.is_pnno, C, (bag["terminal"], prods, p.N, p.z, p.s), (p, 1)),
        (nno.check_pnno, C, (bag,), (None, 1)),
        (exponentials.find_exponentials, F, ({"products": partial},), (None, 0)),
        (exponentials.find_exponential, F, (partial, 1, 2), (None, 0)),
    ]:
        assert _run(verb, D, args) == want, verb.__name__
        if want[1]:
            assert _run(verb, D, args, want[1] - 1) is SearchBudgetExceeded, verb.__name__
