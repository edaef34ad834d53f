"""Exponential objects relative to chosen binary products, decided by order.

An exponential witness for a pair (x, y) names the object of maps from x to
y together with its evaluation morphism out of the chosen product.  A
finite category with binary products is thin (Freyd; Mac Lane, CWM V.2,
Prop. 3), and in a thin category whose chosen products are meets an
exponential is a Heyting implication (Johnstone, Stone Spaces, I.1): obj
has as its down-set the z whose product with x lies below y, and ev is the
one arrow out of the chosen product of (obj, x) into y.  Every verb here
decides by that rule.  Off a thin category, or over chosen products that
are not all meets (``limits._meet_apexes``), no valid bag of products and
exponentials exists: the predicates answer no, the searches return None,
and ``check`` and ``preserves`` refuse with ``InvalidCert``.

The registry verbs (``check``, ``find``, ``transfer``, ``preserves`` and
``lift_preservation``) take witness bags and read the chosen products from
them.  ``check`` is one bitset test per pair, ``find`` takes each
implication at the lowest object that has its down-set, one tick per pair,
and ``transfer`` is ``check`` on the source followed by
:func:`carry_exponentials`.  :func:`preserves_exponentials` is the one
place that compares an image with a chosen exponential, by the pair of
arrows between the two objects, and that certifies an equivalence; the
lift is :func:`limits.decide_lift` by ``preserves``.  ``is_exponential``
and ``find_exponential`` take the product table itself.  The general loops
over curried forms are kept in the tests as these rules' oracles.
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
)
from .errors import InvalidCert, PreconditionViolation
from .limits import (
    BinProductW,
    decide_lift,
    refuse_other_keys,
    _first_out_of_range,
    _lowest_by_down_set,
    _meet_apexes,
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


def is_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], w: ExponentialW
) -> bool:
    return _is_exponential(C, _meet_apexes(C, prods, w.x), w)


def _is_exponential(C: FinCat, apexes: list[int] | None, w: ExponentialW) -> bool:
    """:func:`is_exponential`, given the meet apexes of w.x, or None: ev
    runs from the chosen product of (obj, x) into y and passes
    :func:`_exponential_universal`."""
    return (
        apexes is not None and 0 <= w.obj < C.n_objects and C.has_morphisms(w.ev)
        and (C.mor_src[w.ev], C.mor_dst[w.ev]) == (apexes[w.obj], w.y)
        and _exponential_universal(C, apexes, w.y, w.obj)
    )


def _exponential_universal(C: FinCat, apexes: list[int], y: int, obj: int) -> bool:
    """With one tick: every z whose chosen product with x, its apex in
    apexes, lies below y lies below obj.  With a typed ev, obj is then the
    implication, since every curried form is unique."""
    budget_tick()
    return not _below(C, apexes, y) & ~C.down_sets[obj]


def _below(C: FinCat, apexes: list[int], y: int) -> int:
    """The z whose apex in apexes lies below y, as a bitset."""
    down_y = C.down_sets[y]
    return sum(1 << z for z, a in enumerate(apexes) if down_y >> a & 1)


def find_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], x: int, y: int
) -> ExponentialW | None:
    apexes = _meet_apexes(C, prods, x)
    if apexes is None or not 0 <= y < C.n_objects:
        return None
    return _implication(C, _lowest_by_down_set(C), apexes, x, y)


def _implication(
    C: FinCat, lowest: dict[int, int], apexes: list[int], x: int, y: int
) -> ExponentialW | None:
    """x => y with one tick, given the meet apexes of x and
    :func:`limits._lowest_by_down_set`: the lowest object whose down-set is
    the z whose product with x lies below y, with its one ev; the witness a
    search over objects, then evaluations, meets first."""
    budget_tick()
    obj = lowest.get(_below(C, apexes, y))
    return None if obj is None else ExponentialW(x, y, obj, C.hom_map[(apexes[obj], y)][0])


def check_exponentials(C: FinCat, bag: dict) -> None:
    """Every pair of objects of C carries a valid exponential keyed by it,
    and the table has no other entry."""
    table = bag["exponentials"]
    apexes = [_meet_apexes(C, bag["products"], x) for x in range(C.n_objects)]
    keys = list(itertools.product(range(C.n_objects), repeat=2))
    for x, y in keys:
        w = table.get((x, y))
        if w is None or (w.x, w.y) != (x, y) or not _is_exponential(C, apexes[x], w):
            raise InvalidCert(f"exponential table is wrong at ({x},{y})")
    refuse_other_keys("exponential", "pair of objects", table, keys)


def find_exponentials(C: FinCat, bag: dict) -> dict[tuple[int, int], ExponentialW] | None:
    """The witnesses :func:`find_exponential` returns for every pair, one
    tick each, or None if some pair has none."""
    apexes = [_meet_apexes(C, bag["products"], x) for x in range(C.n_objects)]
    if None in apexes:
        return None
    lowest = _lowest_by_down_set(C)
    out = {}
    for x, y in itertools.product(range(C.n_objects), repeat=2):
        w = _implication(C, lowest, apexes[x], x, y)
        if w is None:
            return None
        out[(x, y)] = w
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
    equivalence: the exponential of (d1, d2) is the image G(obj) of the
    one at their eso witnesses, with the one arrow from the chosen product
    of (G(obj), d1) of dst into d2, so that every entry is typed by
    construction.  The products of dst must be a checked table, so that
    its category is thin; the carried entries are decided, and the
    equivalence certified, by :func:`preserves_exponentials`."""
    G = cert.functor
    D = G.target
    expsC, prodsD, hom = src["exponentials"], dst["products"], D.hom_map
    out: dict[tuple[int, int], ExponentialW] = {}
    for d1, d2 in itertools.product(range(D.n_objects), repeat=2):
        x1, x2 = cert.eso_witness[d1][0], cert.eso_witness[d2][0]
        wC = expsC.get((x1, x2))
        if wC is None:
            raise PreconditionViolation(f"source table lacks the exponential of ({x1},{x2})")
        obj = G.obj_map[wC.obj]
        out[(d1, d2)] = ExponentialW(d1, d2, obj, hom[(prodsD[(obj, d1)].apex, d2)][0])
    return out


def preserves_exponentials(
    F: Functor, src: dict, dst: dict, certs: dict
) -> ExpPreservationCert | None:
    """Each image F(obj) compared with the chosen exponential of the images
    by the pair of arrows between the two objects; None when some pair is
    not isomorphic.  A source entry whose key parts, object or evaluation
    are out of range raises, as in :func:`limits.preserves`, and so does a
    target entry that cannot be an exponential: F, preserving products,
    takes the product of (obj, x) below y to one below F(y), so F(obj)
    lies below the implication, whose ev is the arrow out of its chosen
    product.  certs is not read: the order decides without F's products
    certificate."""
    D = F.target
    expsC, prodsD, expsD = src["exponentials"], dst["products"], dst["exponentials"]
    keys, ws, n = list(expsC), list(expsC.values()), len(F.obj_map)
    # key parts, objects and evaluations column by column, as limits.preserves reads them
    columns = [*zip(*keys), *zip(*[(w.obj, w.ev) for w in ws])]
    n_ok = _first_out_of_range(columns, (n, n, n, len(F.mor_map)), len(keys))
    hom = D.hom_map
    comparison: dict[tuple[int, int], Iso] = {}
    for (x, y), w in zip(keys[:n_ok], ws):
        key, obj = (F.obj_map[x], F.obj_map[y]), F.obj_map[w.obj]
        target = expsD[key]
        entry, fwd = prodsD.get((target.obj, key[0])), hom.get((obj, target.obj))
        if (D.down_sets is None or fwd is None or entry is None
                or (target.x, target.y) != key or not D.has_morphisms(target.ev)
                or (D.mor_src[target.ev], D.mor_dst[target.ev]) != (entry.apex, key[1])):
            raise InvalidCert(f"target exponential entry {key} is not an exponential")
        inv = hom.get((target.obj, obj))
        if inv is None:
            return None
        comparison[(x, y)] = Iso(fwd[0], inv[0])
    if n_ok < len(keys):
        raise InvalidCert(f"source exponential entry {keys[n_ok]} is out of range")
    return ExpPreservationCert(F, expsC, expsD, comparison)


def lift_preservation_exponentials(
    cert: WeakEquivalenceCert, F: Functor, H: Functor, alpha: NatIso, src: dict, dst: dict,
    Fcerts: dict, carried: dict, Hcerts: dict,
) -> ExpPreservationCert:
    """Preservation of the transferred exponentials for the factored
    functor, decided directly; carried holds the products and exponentials
    already transferred to the completion, and Hcerts H's certificates for
    the products, already lifted."""
    return decide_lift("exponential", cert, F, H, alpha, preserves_exponentials,
                       carried, dst, Hcerts)
