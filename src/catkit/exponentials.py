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
and ``transfer`` is ``check`` on the source and the check of the
certificate, followed by :func:`carry_exponentials`, which trusts both
and builds the table column by column.
:func:`preserves_exponentials` is the one place that compares an image
with a chosen exponential, by the pair of arrows between the two objects,
and that certifies an equivalence other than a gaunt completion's, whose
certificate ``lifting.complete_structured`` builds; the lift is
:func:`limits.decide_lift` by ``preserves``.  ``is_exponential`` and
``find_exponential`` take the product table itself.  The general loops
over curried forms are kept in the tests as these rules' oracles.
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
    check_weak_equivalence_cert,
)
from .errors import InvalidCert
from .limits import (
    BinProductW,
    decide_lift,
    refuse_missing_kinds,
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
    refuse_missing_kinds(bag, ("products", "exponentials"))
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
    refuse_missing_kinds(bag, ("products",))
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
    """:func:`check_exponentials` on the source and
    :func:`check_weak_equivalence_cert`, then :func:`carry_exponentials`."""
    refuse_missing_kinds(src, ("products", "exponentials"))
    refuse_missing_kinds(dst, ("products",))
    check_exponentials(cert.functor.source, src)
    check_weak_equivalence_cert(cert)
    return carry_exponentials(cert, src, dst)


def carry_exponentials(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> Mapping[tuple[int, int], ExponentialW]:
    """Push every exponential of src along the equivalence: the exponential
    of (d1, d2) is the image G(obj) of the one at their eso witnesses, with
    the one arrow from the chosen product of (G(obj), d1) of dst into d2,
    so that every entry is typed by construction.  The exponentials of src
    must be a checked table and cert a checked certificate, as
    :func:`transfer_exponentials` ensures; a target product that is
    missing, or that lies above no arrow into d2, is refused.  The carried
    entries are decided by :func:`preserves_exponentials`, or, carried from
    a gaunt skeleton, image onto the entries they were carried from.  The
    table is built column by column, each source entry imaged once for all
    the pairs pulled back to it."""
    G = cert.functor
    D = G.target
    expsC, prodsD, hom = src["exponentials"], dst["products"], D.hom_map
    keys = list(itertools.product(range(D.n_objects), repeat=2))
    src_keys = list(itertools.product([x for x, _ in cert.eso_witness], repeat=2))
    by_src = {key: G.obj_map[expsC[key].obj] for key in dict.fromkeys(src_keys)}
    d1s, d2s = list(zip(*keys)) or [(), ()]
    objs = list(map(by_src.__getitem__, src_keys))
    # the arrow from the chosen product of (G(obj), d1) into d2
    evs = [None if w is None else hom.get((w[2], d2))
           for w, d2 in zip(map(prodsD.get, zip(objs, d1s)), d2s)]
    if None in evs:
        i = evs.index(None)
        raise InvalidCert(f"target products lack a product of ({objs[i]},{d1s[i]}) below {d2s[i]}")
    table = _table(ExponentialW, keys, zip(d1s, d2s, objs, map(itemgetter(0), evs)))
    return MappingProxyType(table)


def preserves_exponentials(F: Functor, src: dict, dst: dict) -> ExpPreservationCert | None:
    """Each image F(obj) compared with the chosen exponential of the images
    by the pair of arrows between the two objects; None when some pair is
    not isomorphic.  Bad input is refused before anything is decided, as in
    :func:`limits.preserves`: a bag without a kind read here, then a source
    entry whose key parts, object or evaluation are out of range, then a
    target entry that is missing or cannot be an exponential: F,
    preserving products, takes the product of (obj, x) below y to one below
    F(y), so F(obj) lies below the implication, whose ev is the arrow out
    of its chosen product."""
    refuse_missing_kinds(src, ("exponentials",))
    refuse_missing_kinds(dst, ("products", "exponentials"))
    D = F.target
    expsC, prodsD, expsD = src["exponentials"], dst["products"], dst["exponentials"]
    keys, ws, n = list(expsC), list(expsC.values()), len(F.obj_map)
    # key parts, objects and evaluations column by column, as limits.preserves reads them
    columns = [*zip(*keys), *list(zip(*ws))[2:]]
    n_ok = _first_out_of_range(columns, (n, n, n, len(F.mor_map)), len(keys))
    if n_ok < len(keys):
        raise InvalidCert(f"source exponential entry {keys[n_ok]} is out of range")
    hom, obj_map = D.hom_map, F.obj_map
    # each distinct image, the key's and the object's, is refused or
    # compared once, in the order of first occurrence
    images = [((obj_map[x], obj_map[y]), obj_map[w[2]]) for (x, y), w in zip(keys, ws)]
    distinct = list(dict.fromkeys(images))
    for key, obj in distinct:
        entry = expsD.get(key)
        if entry is None:
            raise InvalidCert(f"target exponential table lacks the entry at {key}")
        tx, ty, tobj, tev = entry
        prod = prodsD.get((tobj, key[0]))
        if (D.down_sets is None or prod is None or (obj, tobj) not in hom
                or (tx, ty) != key or not D.has_morphisms(tev)
                or (D.mor_src[tev], D.mor_dst[tev]) != (prod[2], key[1])):
            raise InvalidCert(f"target exponential entry {key} is not an exponential")
    by_image: dict[tuple[tuple[int, int], int], Iso] = {}
    for key, obj in distinct:
        tobj = expsD[key][2]
        inv = hom.get((tobj, obj))
        if inv is None:
            return None
        by_image[key, obj] = Iso(hom[(obj, tobj)][0], inv[0])
    comparison = MappingProxyType(dict(zip(keys, map(by_image.__getitem__, images))))
    return ExpPreservationCert(F, expsC, expsD, comparison)


def lift_preservation_exponentials(
    cert: WeakEquivalenceCert, F: Functor, H: Functor, alpha: NatIso, carried: dict, dst: dict,
) -> ExpPreservationCert:
    """Preservation of the transferred exponentials for the factored
    functor, decided directly; carried holds the exponentials already
    transferred to the completion, and dst the products and exponentials
    of F's target."""
    return decide_lift("exponential", cert, F, H, alpha, preserves_exponentials, carried, dst)
