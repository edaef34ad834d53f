"""Exponential objects relative to chosen binary products.

An exponential witness for a pair (x, y) names the object of maps from x to
y together with its evaluation morphism out of the chosen product.  All
checks quantify exhaustively over currying candidates, and
:func:`preserves_exponentials` is the one place that compares an image
with a chosen exponential and that certifies an equivalence.  The registry
verbs (``check``, ``find``, ``transfer``, ``preserves`` and
``lift_preservation``) take witness bags and read the chosen products, or
a functor's certificate for them, from them.  ``transfer`` is ``check`` on
the source followed by :func:`carry_exponentials`, and returns only the
table carried; the lift is :func:`limits.decide_lift` by ``preserves``.
``is_exponential``, ``curry`` and ``find_exponential`` take the product
table itself.  The searches test each typed candidate ``ev`` with the
universal-property loop alone, and one sweep of ``find_exponentials`` or
``check_exponentials`` computes each ``lam x id_x`` once.

On a thin category whose chosen products are all meets, an exponential is
a Heyting implication: the search takes each at once, one tick per pair,
and the check is one bitset test, so an absence follows from the order
rather than from a search over candidates.  Exponentials depend on
products, which a finite category has only when it is thin (Freyd); a
partial or wrong products table keeps the general loops.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Functor,
    FinCat,
    Iso,
    NatIso,
    WeakEquivalenceCert,
    budget_tick,
    find_iso,
)
from .errors import (
    InvalidCert,
    NotACone,
    OracleDisagreement,
    PreconditionViolation,
)
from .limits import (
    PRODUCTS,
    BinProductW,
    decide_lift,
    mediating,
    refuse_other_keys,
    _first_out_of_range,
    _lowest_by_down_set,
)


@dataclass(frozen=True)
class ExponentialW:
    """obj is the object of maps from x to y; ev evaluates out of the chosen
    product of (obj, x)."""

    x: int
    y: int
    obj: int
    ev: int


@dataclass(frozen=True, eq=False)
class ExpPreservationCert:
    """comparison[(x, y)] runs from F(obj) to the chosen exponential of the
    images, commuting with evaluations through the product comparison."""

    functor: Functor
    source: dict[tuple[int, int], ExponentialW]
    target: dict[tuple[int, int], ExponentialW]
    comparison: dict[tuple[int, int], Iso]


def _pairing(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], lam: int, x: int
) -> int:
    """lam x id_x: the mediator taking the product of (src lam, x) to the
    product of (dst lam, x)."""
    src_w = prods[(C.mor_src[lam], x)]
    dst_w = prods[(C.mor_dst[lam], x)]
    return mediating(C, dst_w, C.compose(src_w.pi1, lam), src_w.pi2)


def is_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], w: ExponentialW
) -> bool:
    return _is_exponential(C, prods, w, {})


def _is_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], w: ExponentialW, pairs: dict
) -> bool:
    """:func:`is_exponential`, reading lam x id_x through the memo pairs,
    which maps (lam, x) to :func:`_pairing` and x to :func:`_meet_apexes`
    for these C and prods: ev runs from the chosen product of (obj, x) into
    y and passes the universal-property loop."""
    entry = prods.get((w.obj, w.x))
    return (
        entry is not None and C.has_morphisms(w.ev)
        and (C.mor_src[w.ev], C.mor_dst[w.ev]) == (entry.apex, w.y)
        and _exponential_universal(C, prods, w.x, w.y, w.obj, w.ev, pairs)
    )


def _exponential_universal(
    C: FinCat,
    prods: dict[tuple[int, int], BinProductW],
    x: int,
    y: int,
    obj: int,
    ev: int,
    pairs: dict,
) -> bool:
    """Every f out of the chosen product of (z, x) into y curries exactly
    once; ev is typed out of the chosen product of (obj, x) into y.  On a
    thin category whose chosen products of (z, x) are all meets, with one
    tick: every z whose product with x lies below y lies below obj, since
    the curried forms are then unique."""
    if x not in pairs:
        pairs[x] = _meet_apexes(C, prods, x)
    apexes = pairs[x]
    if apexes is not None and 0 <= obj < C.n_objects:
        budget_tick()
        return not _below(C, apexes, y) & ~C.down_sets[obj]
    comp, hom = C.comp_table, C.hom_map.get
    for z in range(C.n_objects):
        zx = prods.get((z, x))
        if zx is None:
            return False
        once = None   # the image table of hom(z, obj), built at the first cone from z
        for f in hom((zx.apex, y), ()):
            budget_tick()
            if once is None:
                once = {}
                for lam in hom((z, obj), ()):
                    pair = pairs.get((lam, x))
                    if pair is None:
                        pair = pairs[(lam, x)] = _pairing(C, prods, lam, x)
                    g = comp[pair][ev]
                    once[g] = g not in once
            if not once.get(f):
                return False
    return True


def _meet_apexes(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], x: int
) -> list[int] | None:
    """On a thin category, the apex of the chosen product of (z, x) for
    each z, when every one is there and is a product: its apex has the
    lower bounds of z and x as its down-set, and its legs are typed.  None
    otherwise, and on a category that is not thin."""
    down, n = C.down_sets, C.n_objects
    if down is None or not 0 <= x < n:
        return None
    src, dst = C.mor_src, C.mor_dst
    apexes = []
    for z in range(n):
        w = prods.get((z, x))
        if w is None or not (0 <= w.apex < n and C.has_morphisms(w.pi1, w.pi2)) \
                or down[w.apex] != down[z] & down[x] \
                or (src[w.pi1], dst[w.pi1], src[w.pi2], dst[w.pi2]) != (w.apex, z, w.apex, x):
            return None
        apexes.append(w.apex)
    return apexes


def _below(C: FinCat, apexes: list[int], y: int) -> int:
    """The z whose apex in apexes lies below y, as a bitset."""
    down_y = C.down_sets[y]
    return sum(1 << z for z, a in enumerate(apexes) if down_y >> a & 1)


def curry(
    C: FinCat,
    prods: dict[tuple[int, int], BinProductW],
    w: ExponentialW,
    z: int,
    f: int,
) -> int:
    """The unique lam out of z with (lam x id);ev = f, for f out of the
    chosen product of (z, w.x)."""
    entry = prods.get((z, w.x))
    if entry is None or entry.apex != C.mor_src[f] or C.mor_dst[f] != w.y:
        raise NotACone("morphism is not shaped like an uncurried map out of z")
    hits = [
        lam
        for lam in C.hom(z, w.obj)
        if C.compose(_pairing(C, prods, lam, w.x), w.ev) == f
    ]
    if len(hits) != 1:
        raise InvalidCert(f"exponential witness admits {len(hits)} curried forms")
    return hits[0]


def find_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], x: int, y: int
) -> ExponentialW | None:
    return _find_exponential(C, prods, x, y, {})


def _find_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], x: int, y: int, pairs: dict
) -> ExponentialW | None:
    """Lowest obj first, then lowest ev.  Each ev is drawn from the hom out
    of the chosen product of (obj, x) into y, so it is typed and goes
    straight to the universal property; only the winner becomes a
    witness."""
    for obj in range(C.n_objects):
        entry = prods.get((obj, x))
        if entry is None:
            return None
        for ev in C.hom(entry.apex, y):
            if _exponential_universal(C, prods, x, y, obj, ev, pairs):
                return ExponentialW(x, y, obj, ev)
    return None


def check_exponentials(C: FinCat, bag: dict) -> None:
    """Every pair of objects of C carries a valid exponential keyed by it,
    and the table has no other entry."""
    table = bag["exponentials"]
    prods = bag["products"]
    pairs: dict = {}   # (lam, x) -> lam x id_x and x -> its meet apexes, for the whole sweep
    keys = list(itertools.product(range(C.n_objects), repeat=2))
    for x, y in keys:
        w = table.get((x, y))
        if w is None or (w.x, w.y) != (x, y) or not _is_exponential(C, prods, w, pairs):
            raise InvalidCert(f"exponential table is wrong at ({x},{y})")
    refuse_other_keys("exponential", "pair of objects", table, keys)


def find_exponentials(C: FinCat, bag: dict) -> dict[tuple[int, int], ExponentialW] | None:
    """The witnesses :func:`_find_exponential` returns for every pair, or
    None if some pair has none; by :func:`_thin_exponentials` on a thin
    category whose chosen products are all meets."""
    prods = bag["products"]
    apexes = [_meet_apexes(C, prods, x) for x in range(C.n_objects)]
    if None not in apexes:
        return _thin_exponentials(C, apexes)
    pairs: dict = dict(enumerate(apexes))   # the sweep's memo, as in check_exponentials
    out = {}
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            w = _find_exponential(C, prods, x, y, pairs)
            if w is None:
                return None
            out[(x, y)] = w
    return out


def _thin_exponentials(
    C: FinCat, apexes: list[list[int]]
) -> dict[tuple[int, int], ExponentialW] | None:
    """:func:`find_exponentials` on a thin category, given the apex of the
    chosen product of (z, x) at ``apexes[x][z]``, one tick per pair.  The
    exponential of (x, y) is the Heyting implication: obj is the lowest
    object whose down-set is the z with z x x below y, with the unique ev."""
    lowest, hom = _lowest_by_down_set(C), C.hom_map
    out = {}
    for x, xs in enumerate(apexes):
        for y in range(C.n_objects):
            budget_tick()
            obj = lowest.get(_below(C, xs, y))
            if obj is None:
                return None
            out[(x, y)] = ExponentialW(x, y, obj, hom[(xs[obj], y)][0])
    return out


def transfer_exponentials(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> dict[tuple[int, int], ExponentialW]:
    """:func:`check_exponentials` on the source, then
    :func:`carry_exponentials`."""
    check_exponentials(cert.functor.source, src)
    return carry_exponentials(cert, src, dst)


def carry_exponentials(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> dict[tuple[int, int], ExponentialW]:
    """Push every exponential of src, each valid on the source, along the
    equivalence: the image witness is re-based onto the chosen products of
    dst through the mediator of the image cone, so that every entry is
    typed by construction.  The products of dst must be a checked table;
    the carried entries are decided, and the equivalence certified, by
    :func:`preserves_exponentials`."""
    G = cert.functor
    D = G.target
    prodsC, expsC, prodsD = src["products"], src["exponentials"], dst["products"]
    out: dict[tuple[int, int], ExponentialW] = {}
    rebase: dict[tuple[int, int], int] = {}   # (wC.obj, d1) -> mediator onto the target product
    for d1 in range(D.n_objects):
        for d2 in range(D.n_objects):
            x1, i1 = cert.eso_witness[d1]
            x2, i2 = cert.eso_witness[d2]
            wC = expsC.get((x1, x2))
            if wC is None:
                raise PreconditionViolation(f"source table lacks the exponential of ({x1},{x2})")
            u = rebase.get((wC.obj, d1))
            if u is None:
                image = PRODUCTS.image(G, prodsC[(wC.obj, x1)])
                target_entry = prodsD[(G.obj_map[wC.obj], d1)]
                try:
                    u = mediating(D, image, target_entry.pi1, D.compose(target_entry.pi2, i1.inv))
                except InvalidCert:
                    raise OracleDisagreement(
                        "image of a chosen product stopped being a product during transfer"
                    ) from None
                rebase[(wC.obj, d1)] = u
            ev = D.compose_many(u, G.mor_map[wC.ev], i2.fwd)
            out[(d1, d2)] = ExponentialW(d1, d2, G.obj_map[wC.obj], ev)
    return out


def preserves_exponentials(
    F: Functor, src: dict, dst: dict, certs: dict
) -> ExpPreservationCert | None:
    """Canonical comparison by currying mu;F(ev), with mu from F's products
    certificate in certs, through the chosen exponential of the images;
    None when some comparison fails to invert.  A source entry whose key
    parts, object or evaluation are out of range raises, as in
    :func:`limits.preserves`, and so does an invalid target exponential.
    The target exponentials must be exponentials, as every found or
    checked table is: the identity is then taken unsearched
    where the image is the chosen one, since the only endomorphism of an
    exponential that commutes with its evaluation is the identity, and
    otherwise mu;F(ev) curries through the chosen one exactly once."""
    D = F.target
    expsC, prodsD, expsD = src["exponentials"], dst["products"], dst["exponentials"]
    muF = certs["products"]
    keys, ws, n = list(expsC), list(expsC.values()), len(F.obj_map)
    # key parts, objects and evaluations column by column, as limits.preserves reads them
    columns = [*zip(*keys), *zip(*[(w.obj, w.ev) for w in ws])]
    n_ok = _first_out_of_range(columns, (n, n, n, len(F.mor_map)), len(keys))
    comparison: dict[tuple[int, int], Iso] = {}
    for (x, y), w in zip(keys[:n_ok], ws):
        target = expsD[(F.obj_map[x], F.obj_map[y])]
        obj, g = F.obj_map[w.obj], D.compose(muF.mu[(w.obj, x)].fwd, F.mor_map[w.ev])
        if obj == target.obj and g == target.ev:
            iso = Iso(D.identity[obj], D.identity[obj])
        else:
            try:
                iso = find_iso(D, curry(D, prodsD, target, obj, g))
            except NotACone:
                return None
            if iso is None:
                return None
        comparison[(x, y)] = iso
    if n_ok < len(keys):
        raise InvalidCert(f"source exponential entry {keys[n_ok]} is out of range")
    return ExpPreservationCert(F, expsC, expsD, comparison)


def lift_preservation_exponentials(
    cert: WeakEquivalenceCert, F: Functor, H: Functor, alpha: NatIso, src: dict, dst: dict,
    Fcerts: dict, carried: dict, Hcerts: dict,
) -> ExpPreservationCert:
    """Preservation of the transferred exponentials for the factored
    functor, decided directly through H's certificate for the products in
    scope, which Hcerts holds already lifted; carried holds the products
    and exponentials already transferred to the completion."""
    return decide_lift("exponential", cert, F, H, alpha, preserves_exponentials,
                       carried, dst, Hcerts)
