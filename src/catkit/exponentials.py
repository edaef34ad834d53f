"""Exponential objects relative to chosen binary products, decided by order.

An exponential witness for a pair (x, y), a ``NamedTuple`` of indices that
is its own flat tuple (x, y, obj, ev), names the object of maps from x to
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
:func:`carry_exponentials`, which builds the table column by column.
:func:`preserves_exponentials` is the one place that compares an image
with a chosen exponential, by the pair of arrows between the two objects,
and that certifies an equivalence; the lift is :func:`limits.decide_lift`
by ``preserves``.  ``is_exponential`` and ``find_exponential`` take the
product table itself.  The general loops over curried forms are kept in
the tests as these rules' oracles.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

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
    _table,
)


class ExponentialW(NamedTuple):
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
    source: Mapping[tuple[int, int], ExponentialW]
    target: Mapping[tuple[int, int], ExponentialW]
    comparison: Mapping[tuple[int, int], Iso]


def is_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], w: ExponentialW
) -> bool:
    return _is_exponential(C, _meet_apexes(C, prods, w.x), w)


def _is_exponential(C: FinCat, apexes: list[int] | None, w: ExponentialW) -> bool:
    """:func:`is_exponential`, given the meet apexes of w.x, or None: ev
    runs from the chosen product of (obj, x) into y and passes
    :func:`_exponential_universal`."""
    _, y, obj, ev = w
    return (
        apexes is not None and 0 <= obj < C.n_objects and C.has_morphisms(ev)
        and (C.mor_src[ev], C.mor_dst[ev]) == (apexes[obj], y)
        and _exponential_universal(C, apexes, y, obj)
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
        if w is None or w[:2] != (x, y) or not _is_exponential(C, apexes[x], w):
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
) -> Mapping[tuple[int, int], ExponentialW]:
    """:func:`check_exponentials` on the source, then
    :func:`carry_exponentials`."""
    check_exponentials(cert.functor.source, src)
    return carry_exponentials(cert, src, dst)


def carry_exponentials(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> Mapping[tuple[int, int], ExponentialW]:
    """Push every exponential of src, each valid on the source, along the
    equivalence: the exponential of (d1, d2) is the image G(obj) of the
    one at their eso witnesses, with the one arrow from the chosen product
    of (G(obj), d1) of dst into d2, so that every entry is typed by
    construction.  The products of dst must be a checked table, so that
    its category is thin; the carried entries are decided, and the
    equivalence certified, by :func:`preserves_exponentials`.  The table
    is built column by column, each source entry imaged once for all the
    pairs pulled back to it, and a missing or unreadable entry raises what
    a walk over the pairs in order would raise first."""
    G = cert.functor
    D = G.target
    expsC, prodsD, hom = src["exponentials"], dst["products"], D.hom_map

    def imaged(x1, x2):
        """The object of the source exponential of (x1, x2), imaged by G."""
        w = expsC.get((x1, x2))
        if w is None:
            raise PreconditionViolation(f"source table lacks the exponential of ({x1},{x2})")
        return G.obj_map[w.obj]

    keys = list(itertools.product(range(D.n_objects), repeat=2))
    src_keys = list(itertools.product([x for x, _ in cert.eso_witness], repeat=2))
    by_src: dict[tuple[int, int], int] = {}
    n = len(keys)   # the pairs before the first whose entry cannot be imaged
    for src_key in dict.fromkeys(src_keys):
        try:
            by_src[src_key] = imaged(*src_key)
        except (PreconditionViolation, IndexError):
            n = src_keys.index(src_key)
            break
    d1s, d2s = list(zip(*keys)) or [(), ()]
    objs = list(map(by_src.__getitem__, src_keys[:n]))
    # the chosen product of (G(obj), d1) as far as the first missing, then the
    # arrow from its apex into d2 as far as the first missing
    prods = list(map(prodsD.get, zip(objs, d1s)))
    a = prods.index(None) if None in prods else n
    evs = list(map(hom.get, zip([w[2] for w in prods[:a]], d2s)))
    h = evs.index(None) if None in evs else a
    if h < a:
        hom[(prods[h][2], d2s[h])]   # raises KeyError, as a walk reading it would
    if a < n:
        prodsD[(objs[a], d1s[a])]
    if n < len(keys):
        imaged(*src_keys[n])
    table = _table(ExponentialW, keys, zip(d1s, d2s, objs, map(itemgetter(0), evs)))
    return MappingProxyType(table)


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
    columns = [*zip(*keys), *list(zip(*ws))[2:]]
    n_ok = _first_out_of_range(columns, (n, n, n, len(F.mor_map)), len(keys))
    hom, obj_map = D.hom_map, F.obj_map
    # each distinct image, the key's and the object's, is compared once, in
    # the order of first occurrence, so the first to fail is a walk's first
    images = [((obj_map[x], obj_map[y]), obj_map[w[2]]) for (x, y), w in zip(keys[:n_ok], ws)]
    by_image: dict[tuple[tuple[int, int], int], Iso] = {}
    for image in dict.fromkeys(images):
        key, obj = image
        tx, ty, tobj, tev = expsD[key]
        entry, fwd = prodsD.get((tobj, key[0])), hom.get((obj, tobj))
        if (D.down_sets is None or fwd is None or entry is None
                or (tx, ty) != key or not D.has_morphisms(tev)
                or (D.mor_src[tev], D.mor_dst[tev]) != (entry[2], key[1])):
            raise InvalidCert(f"target exponential entry {key} is not an exponential")
        inv = hom.get((tobj, obj))
        if inv is None:
            return None
        by_image[image] = Iso(fwd[0], inv[0])
    if n_ok < len(keys):
        raise InvalidCert(f"source exponential entry {keys[n_ok]} is out of range")
    comparison = MappingProxyType(dict(zip(keys, map(by_image.__getitem__, images))))
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
