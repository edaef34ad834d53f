"""Finite limits and colimits: checkers, finders, transfer, preservation.

Every structure is a small witness, a ``NamedTuple`` of object and
morphism indices, that can be re-validated from scratch by brute force; a
keyed limit's witness is its own flat tuple of key parts, apex and legs,
so the verbs read and build tables column by column.  ``is_*`` functions
quantify over the whole category, ``find_*`` search deterministically
(lowest apex first, then lowest morphism indices), ``transfer_*`` are
:func:`check_table` on the source and the check of the certificate, then
:func:`carry` along the weak equivalence, which trusts both and returns
only the table pushed, read-only, ``preserves_*``
decide preservation and certify it with a read-only table of comparison
isos, and ``lift_preservation_*`` decide it for a factored functor by
:func:`decide_lift`, every kind's one lift body: the triangle's check,
then the kind's ``preserves``.  The transport of the given functor's
comparisons through the factorization is their oracle in the tests.
:func:`preserves` is the one place that compares an image cone with a
chosen entry, and the one that certifies an equivalence: a completion
decides the table :func:`carry` builds, typed by construction, by eta's
preservation of it.

Terminal objects, binary products, equalizers and pullbacks are keyed
limits: a table maps each key (the empty diagram's one key ``()``, a pair of
objects, a parallel pair, a cospan) to a witness.  One :class:`LimitShape`
per kind holds what differs between them, and find, mediate, compare,
preserve, transfer, reflect, lift and check are written once over it; the
per-kind public names bind a shape.  The terminal names keep taking and
returning a single :class:`ChosenTerminal`, wrapped as the table
``{(): w}``.  The ``is_*`` checks are the public checks of a witness, which
:func:`check_table` and :func:`reflect` use: range, typing and the
shape's equations, then the universal property, one tick per check.

On a thin category, one whose hom-sets hold at most one arrow
(``FinCat.down_sets``), every limit is a meet: :func:`find_table` takes
each as the lowest object whose down-set is the lower bounds of the key's
feet, one tick per key, and each universal property is one bitset test.
Elsewhere one counting kernel decides them all,
:func:`_counted_universal`: a cone is a limit exactly when its legs are
jointly monic and its apex has as many arrows into it as there are cones
over the key, and a shape supplies only that count.  :func:`find_limit`
counts once per key, with one tick, and tries only the apexes with that
many arrows into them.  An absence can be decided by a theorem rather
than by a search: a finite category that is not thin has no binary
products (Freyd), so :func:`find_binary_products` refutes them after the
thinness scan, and the coproducts follow through the opposite category.
The loops over cones, and the search that hands each candidate to
``is_*`` as a witness, are kept in the tests as the oracles of both
routes.

Colimit duals delegate to the limit machinery on the opposite category;
the direct colimit searches they are cross-checked against live in the
tests.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from operator import and_, eq, getitem, itemgetter, mul
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .core import (
    FinCat,
    Functor,
    Iso,
    NatIso,
    WeakEquivalenceCert,
    budget_tick,
    check_weak_equivalence_cert,
    compose_functors,
    find_iso,
    functors_equal,
    is_fully_faithful,
    opposite,
)
from .errors import (
    DependencyMissing,
    InvalidCert,
    NotACone,
    OracleDisagreement,
    PreconditionViolation,
    ReflectionFails,
)

# ---------------------------------------------------------------------------
# witness types


class ChosenTerminal(NamedTuple):
    t: int


class BinProductW(NamedTuple):
    x1: int
    x2: int
    apex: int
    pi1: int
    pi2: int


class EqualizerW(NamedTuple):
    f: int
    g: int
    obj: int
    arrow: int


class PullbackW(NamedTuple):
    f: int
    g: int
    apex: int
    p1: int
    p2: int


class ChosenInitial(NamedTuple):
    i: int


class BinCoproductW(NamedTuple):
    x1: int
    x2: int
    apex: int
    in1: int
    in2: int


class CoequalizerW(NamedTuple):
    f: int
    g: int
    obj: int
    arrow: int


# ---------------------------------------------------------------------------
# terminal objects


def is_terminal(C: FinCat, t: int) -> bool:
    if not (0 <= t < C.n_objects):
        return False
    if C.down_sets is not None:
        return _thin_universal(C, (), t)
    return _counted_universal(_Counts(C), TERMINAL, (), t, ())


def _lowest_by_down_set(C: FinCat) -> dict[int, int]:
    """On a thin category, each down-set -> the lowest object that has it,
    the lowest index in its isomorphism class."""
    lowest: dict[int, int] = {}
    for x, d in enumerate(C.down_sets):
        lowest.setdefault(d, x)
    return lowest


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
        if w is None:
            return None
        _, _, apex, pi1, pi2 = w
        if not (0 <= apex < n and C.has_morphisms(pi1, pi2)) \
                or down[apex] != down[z] & down[x] \
                or (src[pi1], dst[pi1], src[pi2], dst[pi2]) != (apex, z, apex, x):
            return None
        apexes.append(apex)
    return apexes


def _thin_universal(C: FinCat, feet, apex: int) -> bool:
    """The universal property on a thin category, with one tick: a cone
    from apex typed onto feet is a limit exactly when every lower bound of
    the feet lies below apex, since every cone from a lower bound, and its
    mediator, is then unique."""
    budget_tick()
    down = C.down_sets
    bound = (1 << C.n_objects) - 1
    for x in feet:
        bound &= down[x]
    return not bound & ~down[apex]


def _counted_universal(
    counts: _Counts, shape: LimitShape, key: Key, apex: int, legs: tuple[int, ...]
) -> bool:
    """The universal property off the order route, with one tick: a typed
    cone from apex that satisfies the shape's equations is a limit exactly
    when its legs are jointly monic and into(apex) holds as many arrows as
    there are cones over key from all vertices, ``shape.cones``.  Mediation
    is then injective at every vertex, and equal sums make it a bijection:
    apex represents the cones (Mac Lane, CWM III.4).  counts is shared by
    the cones a caller decides over one category."""
    budget_tick()
    C = counts.C
    return len(C.into[apex]) == shape.cones(counts, key) and _jointly_monic(C, apex, legs)


def _jointly_monic(C: FinCat, apex: int, legs: tuple[int, ...]) -> bool:
    """Whether u -> (src u, u;legs) is injective on into(apex), no tick.  A
    composite names its source, so with a leg the composites alone are
    compared, column by column."""
    us = C.into[apex]
    if not legs:
        return len(set(map(C.mor_src.__getitem__, us))) == len(us)
    rows = list(map(C.comp_table.__getitem__, us))
    return len(set(zip(*[map(itemgetter(p), rows) for p in legs]))) == len(us)


class _Counts:
    """What counting reads of C, each part built when first read and kept
    for the other keys of one table: the objects by the number of arrows
    into them, each morphism's column of composites and its groups, and
    the verdicts of :func:`_jointly_monic` by apex and legs."""

    def __init__(self, C: FinCat) -> None:
        self.C, self.columns, self.groups, self.monics = C, {}, {}, {}

    @cached_property
    def by_arrows_in(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for apex, us in enumerate(self.C.into):
            out.setdefault(len(us), []).append(apex)
        return out

    def column(self, f: int) -> list[int]:
        """h;f for each h into src f, in index order."""
        col = self.columns.get(f)
        if col is None:
            C = self.C
            comp = C.comp_table
            col = self.columns[f] = [comp[h][f] for h in C.into[C.mor_src[f]]]
        return col

    def group(self, f: int) -> Counter:
        """The arrows h into src f counted by h;f."""
        out = self.groups.get(f)
        if out is None:
            out = self.groups[f] = Counter(self.column(f))
        return out


# ---------------------------------------------------------------------------
# the shape table: a defining check and a cone count per shape, then the shapes


def is_binary_product(C: FinCat, w: BinProductW) -> bool:
    x1, x2, apex, pi1, pi2 = w
    if not C.has_morphisms(pi1, pi2):
        return False
    if C.mor_src[pi1] != apex or C.mor_dst[pi1] != x1:
        return False
    if C.mor_src[pi2] != apex or C.mor_dst[pi2] != x2:
        return False
    if C.down_sets is not None:
        return _thin_universal(C, (x1, x2), apex)
    return _counted_universal(_Counts(C), PRODUCTS, (x1, x2), apex, (pi1, pi2))


def _product_cones(counts: _Counts, key: Key) -> int:
    """The pairs of arrows from one vertex onto the two factors."""
    (x1, x2), hom = key, counts.C.hom_map.get
    return sum(len(hom((z, x1), ())) * len(hom((z, x2), ())) for z in range(counts.C.n_objects))


def is_equalizer(C: FinCat, w: EqualizerW) -> bool:
    f, g, obj, arrow = w
    if not C.has_morphisms(f, g, arrow):
        return False
    x = C.mor_src[f]
    if C.mor_src[g] != x or C.mor_dst[g] != C.mor_dst[f]:
        return False
    if C.mor_src[arrow] != obj or C.mor_dst[arrow] != x:
        return False
    if C.compose(arrow, f) != C.compose(arrow, g):
        return False
    if C.down_sets is not None:
        return _thin_universal(C, (x,), obj)
    return _counted_universal(_Counts(C), EQUALIZERS, (f, g), obj, (arrow,))


def _equalizer_cones(counts: _Counts, key: Key) -> int:
    """The arrows h into src f with h;f == h;g, read from the columns of f
    and g, which line up."""
    return sum(map(eq, counts.column(key[0]), counts.column(key[1])))


def is_pullback(C: FinCat, w: PullbackW) -> bool:
    f, g, apex, p1, p2 = w
    if not C.has_morphisms(f, g, p1, p2):
        return False
    x, z0 = C.mor_src[f], C.mor_dst[f]
    y = C.mor_src[g]
    if C.mor_dst[g] != z0:
        return False
    if C.mor_src[p1] != apex or C.mor_dst[p1] != x:
        return False
    if C.mor_src[p2] != apex or C.mor_dst[p2] != y:
        return False
    if C.compose(p1, f) != C.compose(p2, g):
        return False
    if C.down_sets is not None:
        return _thin_universal(C, (x, y), apex)
    return _counted_universal(_Counts(C), PULLBACKS, (f, g), apex, (p1, p2))


def _pullback_cones(counts: _Counts, key: Key) -> int:
    """The commuting squares h1;f == h2;g: the arrows into src f grouped by
    h1;f and those into src g by h2;g, then the products of the sizes of
    matching groups summed.  A composite names its source, so each group
    holds arrows from one vertex."""
    left, right = counts.group(key[0]), counts.group(key[1])
    common = left.keys() & right.keys()
    return sum(map(mul, map(left.__getitem__, common), map(right.__getitem__, common)))


def parallel_pairs(C: FinCat) -> list[tuple[int, int]]:
    return [(f, g) for f in range(C.n_morphisms) for g in C.hom(C.mor_src[f], C.mor_dst[f])]


def cospan_pairs(C: FinCat) -> list[tuple[int, int]]:
    by_dst: dict[int, list[int]] = {}
    for g in range(C.n_morphisms):
        by_dst.setdefault(C.mor_dst[g], []).append(g)
    return [(f, g) for f in range(C.n_morphisms) for g in by_dst[C.mor_dst[f]]]


def _parallel_feet(C: FinCat, key: tuple[int, int]) -> tuple[int] | None:
    f, g = key
    if C.mor_src[f] != C.mor_src[g] or C.mor_dst[f] != C.mor_dst[g]:
        return None
    return (C.mor_src[f],)


def _cospan_feet(C: FinCat, key: tuple[int, int]) -> tuple[int, int] | None:
    f, g = key
    if C.mor_dst[f] != C.mor_dst[g]:
        return None
    return (C.mor_src[f], C.mor_src[g])


Key = tuple[int, ...]
Table = Mapping[Key, object]   # key -> witness


@dataclass(frozen=True, eq=False)
class LimitShape:
    """A keyed finite-limit shape.  Witness fields are the ``n_key`` parts
    of the key (two, or none for the terminal), the apex, then one leg per
    foot.  ``feet`` is None for a key that is not a diagram of the shape;
    ``commutes`` holds the equations on typed legs, read from the table, if
    any; ``cones(counts, key)`` counts the cones over a key, summed over all
    vertices, from what :class:`_Counts` reads of the category, and is all
    that :func:`_counted_universal` needs of a shape.  Keys name objects or,
    unless ``keyed_by_objects``, morphisms.  ``is_limit`` is the public
    check of a witness, range, typing and equations first, and looks its
    function up on the module when called, so a wrapper installed on the
    module sees every call.
    """

    name: str
    diagram: str
    witness: type
    n_key: int
    keys: Callable[[FinCat], list[Key]]
    feet: Callable[[FinCat, Key], tuple[int, ...] | None]
    commutes: Callable[[FinCat, Key, tuple[int, ...]], bool] | None
    is_limit: Callable[[FinCat, object], bool]
    cones: Callable[[_Counts, Key], int]
    keyed_by_objects: bool

    @cached_property
    def field_kinds(self) -> tuple[tuple[str, bool], ...]:
        """(name, whether it names an object) for each witness field."""
        k = self.n_key
        return tuple((n, i == k or (i < k and self.keyed_by_objects))
                     for i, n in enumerate(self.witness._fields))

    def split(self, w) -> tuple[Key, int, tuple[int, ...]]:
        """A witness as (key, apex, legs)."""
        k = self.n_key
        return w[:k], w[k], w[k + 1:]

    def image_key(self, F: Functor, key: Key) -> Key:
        image = F.obj_map if self.keyed_by_objects else F.mor_map
        return (image[key[0]], image[key[1]]) if key else ()

    def in_range(self, C: FinCat, v: tuple[int, ...]) -> bool:
        """Whether each field of the flat witness v names an object or a
        morphism of C, as its kind says; a field outside the range would be
        read as an index counted from the end, or not at all."""
        n, m = C.n_objects, C.n_morphisms
        for x, (_, is_obj) in zip(v, self.field_kinds):
            if not 0 <= x < (n if is_obj else m):
                return False
        return True

    def image(self, F: Functor, w) -> object:
        """The image under F of the cone w, keyed by the image diagram."""
        key, apex, legs = self.split(w)
        legs = map(F.mor_map.__getitem__, legs)
        return self.witness(*self.image_key(F, key), F.obj_map[apex], *legs)


TERMINAL = LimitShape(
    "terminal", "empty diagram", ChosenTerminal, 0, lambda C: [()], lambda C, key: (),
    None, lambda C, w: is_terminal(C, w.t), lambda counts, key: counts.C.n_objects, True,
)
PRODUCTS = LimitShape(
    "product", "factor pair", BinProductW, 2,
    lambda C: list(itertools.product(range(C.n_objects), repeat=2)), lambda C, key: key,
    None, lambda C, w: is_binary_product(C, w), _product_cones, True,
)
EQUALIZERS = LimitShape(
    "equalizer", "parallel pair", EqualizerW, 2, parallel_pairs, _parallel_feet,
    lambda C, key, legs: (row := C.comp_table[legs[0]])[key[0]] == row[key[1]],
    lambda C, w: is_equalizer(C, w), _equalizer_cones, False,
)
PULLBACKS = LimitShape(
    "pullback", "cospan", PullbackW, 2, cospan_pairs, _cospan_feet,
    lambda C, key, legs: C.comp_table[legs[0]][key[0]] == C.comp_table[legs[1]][key[1]],
    lambda C, w: is_pullback(C, w), _pullback_cones, False,
)


# ---------------------------------------------------------------------------
# the verbs, written once over the shape


def find_limit(shape: LimitShape, C: FinCat, key: Key) -> object | None:
    """Lowest apex first, then lowest leg indices; None when the key is not
    a diagram of the shape, names no object or morphism of C, or has no
    limit.  The legs are drawn from hom(apex, foot), so they are typed, and
    those that fail the shape's equations are skipped.  On a thin category
    each other candidate is decided by order, one tick each; elsewhere by
    :func:`_counted_limit`, one tick for the key.  Only the winner becomes
    a witness."""
    if not shape.in_range(C, key) or (feet := shape.feet(C, key)) is None:
        return None
    if C.down_sets is None:
        return _counted_limit(shape, _Counts(C), key)
    commutes = shape.commutes
    for apex in range(C.n_objects):
        for legs in itertools.product(*[C.hom(apex, x) for x in feet]):
            if (commutes is None or commutes(C, key, legs)) and _thin_universal(C, feet, apex):
                return shape.witness(*key, apex, *legs)
    return None


def _counted_limit(shape: LimitShape, counts: _Counts, key: Key) -> object | None:
    """:func:`find_limit` off a thin category, for a key that is a diagram
    of the shape, with one tick: the cones over the key are counted once,
    only the apexes with that many arrows into them are tried, and the
    first commuting legs that are jointly monic win
    (:func:`_counted_universal`).  counts is shared by the keys of one
    table."""
    budget_tick()
    C, commutes, monics = counts.C, shape.commutes, counts.monics
    feet = shape.feet(C, key)
    for apex in counts.by_arrows_in.get(shape.cones(counts, key), ()):
        for legs in itertools.product(*[C.hom(apex, x) for x in feet]):
            if commutes is None or commutes(C, key, legs):
                ok = monics.get((apex, legs))
                if ok is None:
                    ok = monics[apex, legs] = _jointly_monic(C, apex, legs)
                if ok:
                    return shape.witness(*key, apex, *legs)
    return None


def find_table(shape: LimitShape, C: FinCat) -> Table | None:
    """Chosen limits for every key, or None if some key has none: the
    witnesses :func:`find_limit` returns, taken as meets on a thin category
    (:func:`_thin_table`) and by counting, key by key, elsewhere."""
    if C.down_sets is not None:
        return _thin_table(shape, C)
    counts, out = _Counts(C), {}
    for key in shape.keys(C):
        w = _counted_limit(shape, counts, key)
        if w is None:
            return None
        out[key] = w
    return out


def _thin_table(shape: LimitShape, C: FinCat) -> Table | None:
    """:func:`find_table` on a thin category, one tick per key, as far as
    the first key without a limit.  The limits of a key are the objects
    whose down-set is the lower bounds of its feet, its meet and the objects
    isomorphic to it; the witness is the one with the lowest index, which
    :func:`find_limit` meets first, with its unique legs.  The table is
    built column by column."""
    keys = shape.keys(C)
    columns = list(zip(*keys))
    feet = _feet_columns(shape, C, columns)
    down = C.down_sets
    bounds = itertools.repeat((1 << C.n_objects) - 1, len(keys))
    for col in feet:
        bounds = map(and_, bounds, map(down.__getitem__, col))
    apexes = list(map(_lowest_by_down_set(C).get, bounds))
    if None in apexes:
        budget_tick(apexes.index(None) + 1)
        return None
    budget_tick(len(keys))
    hom, first = C.hom_map, itemgetter(0)
    legs = [list(map(first, map(hom.__getitem__, zip(apexes, col)))) for col in feet]
    return _table(shape.witness, keys, zip(*columns, apexes, *legs))


def _feet_columns(shape: LimitShape, C: FinCat, columns: list) -> list:
    """The feet of keys that are diagrams of the shape, one column per leg,
    from the keys' parts given column by column: the parts themselves for
    keys of objects, and the sources of the first parts for keys of
    morphisms (a parallel pair's one foot, a cospan's two)."""
    n_legs = len(shape.field_kinds) - shape.n_key - 1
    if shape.keyed_by_objects:
        return columns[:n_legs]
    return [list(map(C.mor_src.__getitem__, col)) for col in columns[:n_legs]]


def _table(witness: type, keys, rows) -> dict:
    """The table mapping each key to its row, the fields of a witness in
    order, each row made a witness as the tuple it is, in one pass."""
    return dict(zip(keys, map(tuple.__new__, itertools.repeat(witness), rows)))


def partial_table(shape: LimitShape, C: FinCat) -> Table:
    """Chosen limits for exactly the keys that have one, as :func:`find_limit`
    chooses them; off a thin category one :class:`_Counts` serves every key."""
    if C.down_sets is None:
        find = partial(_counted_limit, shape, _Counts(C))
    else:
        find = partial(find_limit, shape, C)
    found = ((key, find(key)) for key in shape.keys(C))
    return {key: w for key, w in found if w is not None}


def _wrong_at(shape: LimitShape, key: Key) -> InvalidCert:
    if not key:   # the one witness of a keyless shape, not a table
        return InvalidCert(f"{shape.name} witness is not {shape.name}")
    return InvalidCert(f"{shape.name} table is wrong at {key}")


def check_table(shape: LimitShape, C: FinCat, table: Table) -> None:
    """Every key of C carries a valid witness keyed by it, and the table
    has no other entry."""
    k = shape.n_key
    keys = shape.keys(C)
    for key in keys:
        w = table.get(key)
        if w is None or w[:k] != key or not shape.is_limit(C, w):
            raise _wrong_at(shape, key)
    refuse_other_keys(shape.name, shape.diagram, table, keys)


def refuse_missing_kinds(bag: Mapping, kinds: tuple[str, ...]) -> None:
    """Refuse a bag without one of the kinds a verb reads from it."""
    for kind in kinds:
        if kind not in bag:
            raise DependencyMissing(f"the bag lacks '{kind}'")


def refuse_other_keys(name: str, what: str, table: dict, keys: list) -> None:
    """Refuse the first entry of table at a key outside keys, all of which
    it holds."""
    if len(table) != len(keys):
        known = set(keys)
        key = next(key for key in table if key not in known)
        raise InvalidCert(f"{name} table has an entry at {key}, not a {what} of the category")


def mediator(shape: LimitShape, C: FinCat, w, z: int, legs: tuple[int, ...]) -> int:
    """The unique morphism into the apex of w through which the cone with
    vertex z and the given legs factors."""
    k = shape.n_key   # split inline: a hot path
    apex, wlegs = w[k], w[k + 1:]
    hits = []
    for u in C.hom(z, apex):
        row = C.comp_table[u]
        for p, h in zip(wlegs, legs):
            if row[p] != h:
                break
        else:
            hits.append(u)
    if len(hits) == 1:
        return hits[0]
    # a cone that factors through a limit witness is typed and commutes, so
    # the cone itself is checked only when it does not factor exactly once
    if not (0 <= z < C.n_objects and C.has_morphisms(*legs)):
        raise NotACone(f"vertex {z} or legs {legs} name no object or morphism of the category")
    key = w[:k]
    feet = shape.feet(C, key)
    if feet is None or any(C.mor_src[h] != z or C.mor_dst[h] != x for h, x in zip(legs, feet)):
        raise NotACone(f"legs must share a source and land on the feet of the {shape.diagram}")
    if shape.commutes is not None and not shape.commutes(C, key, legs):
        raise NotACone(f"legs do not commute with the {shape.diagram}")
    raise InvalidCert(
        f"{shape.name} witness on apex {C.objects[apex]}"
        f" admits {len(hits)} mediators from {C.objects[z]}"
    )


def comparison(shape: LimitShape, C: FinCat, a, b) -> Iso:
    """The canonical iso between two limits of the same diagram."""
    key, apex, legs = shape.split(a)
    if shape.split(b)[0] != key:
        raise NotACone(f"witnesses do not share their {shape.diagram}")
    iso = find_iso(C, mediator(shape, C, b, apex, legs))
    if iso is None:
        raise OracleDisagreement(f"comparison between two {shape.name}s is not invertible")
    return iso


@dataclass(frozen=True, eq=False)
class LimitPreservationCert:
    """mu maps the chosen limit of each image diagram onto the image of the
    chosen limit; composing mu with the image legs recovers the chosen
    legs."""

    functor: Functor
    source: Table
    target: Table
    mu: Mapping[Key, Iso]


def _comparison_at(shape: LimitShape, E: FinCat, entry, image: tuple[int, ...]) -> Iso | None:
    """mu for the flat image cone image, from entry, the chosen limit of its
    diagram, onto it; None when the image cone is not limiting.  entry must
    be a limit: the identity is then taken unsearched where the image is
    entry, since the only endomorphism of a limit that commutes with its own
    legs is the identity, and any other cone is a limit exactly when its
    mediator into entry is an iso."""
    k = shape.n_key
    if image == entry:
        one = E.identity[image[k]]
        return Iso(one, one)
    try:
        fwd = mediator(shape, E, entry, image[k], image[k + 1:])
    except NotACone:
        return None
    found = find_iso(E, fwd)
    # chosen-of-images -> image-of-chosen
    return None if found is None else Iso(found.inv, found.fwd)


def _first_out_of_range(columns, bounds, n: int) -> int:
    """The index of the first of n rows, given column by column, with a
    field outside ``range(bound)`` for its column's bound; n when none is."""
    for col, bound in zip(columns, bounds):
        if min(col) < 0 or max(col) >= bound:
            n = min(n, next(i for i, x in enumerate(col) if not 0 <= x < bound))
    return n


def preserves(
    shape: LimitShape, F: Functor, source: Table, target: Table
) -> LimitPreservationCert | None:
    """Each image cone must factor through the chosen limit of its diagram
    by an iso; None when some image cone is not limiting.  Bad input is
    refused before anything is decided, each refusal an ``InvalidCert``
    naming the first such key of the source: first a source entry whose key
    parts, apex or legs are out of range, then an image whose diagram has
    no target entry, or one with a field out of range.  Each distinct
    image cone is then compared once.  The target entries must be limits,
    as every found or checked table is: an image cone equal to its chosen
    limit then gets the identity, unsearched, since the only endomorphism
    of a limit that commutes with its own legs is the identity, and any
    other is compared by :func:`_comparison_at`.  So where F's maps are the
    identities of E, the target table equals the source table and every
    entry is keyed by its own key, each image cone is its own chosen entry,
    and mu is the identity at every key, taken without a walk."""
    E, k = F.target, shape.n_key
    # for each field of a flat cone (key parts, apex, legs), F's map
    maps = [F.obj_map if is_obj else F.mor_map for _, is_obj in shape.field_kinds]
    keys = list(source)
    # the source cones column by column, their key parts read from the keys;
    # a field outside its map's indices would be read from the end, or not at all
    cones = list(zip(*source.values()))
    columns = [*zip(*keys), *cones[k:]]
    n_ok = _first_out_of_range(columns, map(len, maps), len(keys))
    if n_ok < len(keys):
        raise InvalidCert(f"source {shape.name} entry {keys[n_ok]} is out of range")
    if keys and cones[:k] == columns[:k] and target == source \
            and list(F.obj_map) == list(range(E.n_objects)) \
            and list(F.mor_map) == list(range(E.n_morphisms)):
        apexes = cones[k]
        isos = {a: Iso(E.identity[a], E.identity[a]) for a in set(apexes)}
        mu = MappingProxyType(dict(zip(keys, map(isos.get, apexes))))
        return LimitPreservationCert(F, source, target, mu)
    images = list(zip(*[map(fmap.__getitem__, col) for fmap, col in zip(maps, columns)]))
    distinct = list(dict.fromkeys(images))
    entries = [target.get(image[:k]) for image in distinct]
    for image, entry in zip(distinct, entries):
        if entry is None:
            raise InvalidCert(f"target {shape.name} table lacks the entry at {image[:k]}")
        if not shape.in_range(E, entry):
            raise InvalidCert(f"target {shape.name} entry {image[:k]} is out of range")
    isos: list[Iso] = []
    identities: dict[int, Iso] = {}
    for image, entry in zip(distinct, entries):
        if image == entry:
            one = E.identity[entry[k]]
            iso = identities.get(one)
            if iso is None:
                iso = identities[one] = Iso(one, one)
        else:
            iso = _comparison_at(shape, E, entry, image)
            if iso is None:
                return None
        isos.append(iso)
    by_image = dict(zip(distinct, isos))   # image cone -> mu
    mu = MappingProxyType(dict(zip(keys, map(by_image.__getitem__, images))))
    return LimitPreservationCert(F, source, target, mu)


def first_unpreserved(shape: LimitShape, F: Functor, source: Table, target: Table) -> Key | None:
    """Index-order first source key whose image cone is not limiting; an
    invalid target entry raises, as in :func:`preserves`."""
    for key in sorted(source):
        if preserves(shape, F, {key: source[key]}, target) is None:
            return key
    return None


def transfer(shape: LimitShape, cert: WeakEquivalenceCert, table: Table) -> Table:
    """:func:`check_table` on the source and
    :func:`check_weak_equivalence_cert`, then :func:`carry`."""
    check_table(shape, cert.functor.source, table)
    check_weak_equivalence_cert(cert)
    return carry(shape, cert, table)


def carry(shape: LimitShape, cert: WeakEquivalenceCert, table: Table) -> Table:
    """Push a table of limits on the source along the equivalence: the
    witness at each pulled-back key is imaged, once for all the keys pulled
    back to it, and its legs composed with the eso isos of the feet, so
    that every entry is typed by construction.  The target need not be
    skeletal: the witnesses carried there are limits, though not the only
    choice.  table must be a checked table of the source and cert a checked
    certificate, as :func:`transfer` ensures: every pulled-back key then
    has an entry, and every leg ends where the eso iso of its foot starts.
    The carried entries are decided by eta's :func:`preserves`."""
    G, Q = cert.functor, cert.quasi_inverse
    comp = G.target.comp_table
    eso = [iso.fwd for _, iso in cert.eso_witness]
    k = shape.n_key
    keys = shape.keys(G.target)
    columns = list(zip(*keys))   # the keys' parts column by column
    # each key pulled back along Q, read from the key columns
    pull = (Q.obj_map if shape.keyed_by_objects else Q.mor_map).__getitem__
    src_keys = list(zip(*[map(pull, col) for col in columns])) if k else [()] * len(keys)
    # each pulled-back key's entry, its apex and legs imaged once
    by_src = {key: (G.obj_map[w[k]], *map(G.mor_map.__getitem__, w[k + 1:]))
              for key in dict.fromkeys(src_keys) for w in (table[key],)}
    # the imaged apexes and legs column by column, each leg then composed
    # with the eso iso of its foot
    n_fields = len(shape.field_kinds) - k
    apexes, *legs = list(zip(*map(by_src.__getitem__, src_keys))) or [()] * n_fields
    feet = _feet_columns(shape, G.target, columns)
    composed = [list(map(getitem, map(comp.__getitem__, ps), map(eso.__getitem__, ys)))
                for ps, ys in zip(legs, feet)]
    return MappingProxyType(_table(shape.witness, keys, zip(*columns, apexes, *composed)))


def reflect(shape: LimitShape, F: Functor, w):
    """A fully faithful functor whose image cone is limiting forces the source
    cone to be limiting; a witness with a field outside the source is bad
    input, refused before it is imaged, and a failure after a limiting image
    is an internal error."""
    if not shape.in_range(F.source, w):
        raise InvalidCert(f"source {shape.name} witness {w} is out of range")
    if is_fully_faithful(F) is None:
        raise PreconditionViolation("reflection requires a fully faithful functor")
    if not shape.is_limit(F.target, shape.image(F, w)):
        raise PreconditionViolation(f"image cone is not a {shape.name}")
    if not shape.is_limit(F.source, w):
        raise ReflectionFails(f"image cone is a {shape.name} but the source cone is not")
    return w


def decide_lift(name: str, cert: WeakEquivalenceCert, F: Functor, H: Functor, alpha: NatIso,
                decide: Callable, *args):
    """Preservation for H, the factorization of F through the equivalence
    by alpha, decided directly by ``decide(H, *args)``: a kind's
    ``preserves`` of the structure carried to the completion into F's
    target.  The equivalence then H is isomorphic to F, which preserves the
    structure, so a refusal here is an engine bug; this is every kind's
    lift."""
    if not functors_equal(alpha.source, compose_functors(cert.functor, H)):
        raise PreconditionViolation("alpha must start at the composite through the equivalence")
    if not functors_equal(alpha.target, F):
        raise PreconditionViolation("alpha must end at the outer functor")
    direct = decide(H, *args)
    if direct is None:
        raise OracleDisagreement(f"lifted functor failed the direct {name} check")
    return direct


def lift(
    shape: LimitShape, cert: WeakEquivalenceCert, F: Functor, H: Functor, alpha: NatIso,
    Fcert: LimitPreservationCert, transferred: Table,
) -> LimitPreservationCert:
    """:func:`decide_lift` by :func:`preserves` of transferred, the table
    carried to the completion (the transfer of Fcert.source along cert),
    into F's target table."""
    return decide_lift(shape.name, cert, F, H, alpha, partial(preserves, shape),
                       transferred, Fcert.target)


# ---------------------------------------------------------------------------
# the public names, each binding one shape to one verb; the terminal names
# wrap their one witness as the table {(): w}


def find_terminal(C: FinCat) -> ChosenTerminal | None:
    table = find_table(TERMINAL, C)
    return None if table is None else table[()]


def to_terminal(C: FinCat, term: ChosenTerminal, x: int) -> int:
    """The unique arrow from x to the terminal."""
    return mediator(TERMINAL, C, term, x, ())


def _terminal_table(t: ChosenTerminal) -> Table:
    """The read-only table {(): t} that a terminal certificate holds."""
    return MappingProxyType({(): t})


def preserves_terminal(F: Functor, tC: ChosenTerminal, tD: ChosenTerminal):
    """mu[()] is the pair of unique arrows tD -> F(tC) and back; a tD that is
    not terminal raises."""
    target = _terminal_table(tD)
    check_table(TERMINAL, F.target, target)
    return preserves(TERMINAL, F, _terminal_table(tC), target)


def transfer_terminal(cert: WeakEquivalenceCert, tC: ChosenTerminal) -> ChosenTerminal:
    return transfer(TERMINAL, cert, {(): tC})[()]


def lift_preservation_terminal(cert, F, H, alpha, Fcert, tD):
    return lift(TERMINAL, cert, F, H, alpha, Fcert, _terminal_table(tD))


def find_binary_products(C: FinCat) -> dict[tuple[int, int], BinProductW] | None:
    """Chosen products for every ordered pair, or None if some pair has
    none.  A category that is not thin is refuted with one tick: a finite
    category with binary products is thin, since hom(t, y^n) would hold
    |hom(t, y)|^n arrows for every n (Freyd; Mac Lane, CWM V.2)."""
    if C.down_sets is None:
        budget_tick()
        return None
    return find_table(PRODUCTS, C)


def mediating(C: FinCat, w: BinProductW, g1: int, g2: int) -> int:
    """The unique morphism into the apex commuting with both projections;
    a leg that is no morphism of C leaves the vertex out of range, which
    :func:`mediator` refuses."""
    return mediator(PRODUCTS, C, w, C.mor_src[g1] if C.has_morphisms(g1) else -1, (g1, g2))


def preserves_binary_products(F: Functor, prodsC: Table, prodsD: Table):
    return preserves(PRODUCTS, F, prodsC, prodsD)


def transfer_binary_products(cert: WeakEquivalenceCert, prods: Table):
    return transfer(PRODUCTS, cert, prods)


def lift_preservation_binary_products(cert, F, H, alpha, Fcert, transferred):
    return lift(PRODUCTS, cert, F, H, alpha, Fcert, transferred)


def find_equalizers(C: FinCat) -> dict[tuple[int, int], EqualizerW] | None:
    return find_table(EQUALIZERS, C)


def preserves_equalizers(F: Functor, eqsC: Table, eqsD: Table):
    return preserves(EQUALIZERS, F, eqsC, eqsD)


def transfer_equalizers(cert: WeakEquivalenceCert, eqs: Table):
    return transfer(EQUALIZERS, cert, eqs)


def lift_preservation_equalizers(cert, F, H, alpha, Fcert, transferred):
    return lift(EQUALIZERS, cert, F, H, alpha, Fcert, transferred)


def find_pullbacks(C: FinCat) -> dict[tuple[int, int], PullbackW] | None:
    return find_table(PULLBACKS, C)


def preserves_pullbacks(F: Functor, pbsC: Table, pbsD: Table):
    return preserves(PULLBACKS, F, pbsC, pbsD)


def transfer_pullbacks(cert: WeakEquivalenceCert, pbs: Table):
    return transfer(PULLBACKS, cert, pbs)


def lift_preservation_pullbacks(cert, F, H, alpha, Fcert, transferred):
    return lift(PULLBACKS, cert, F, H, alpha, Fcert, transferred)


# ---------------------------------------------------------------------------
# colimit duals: delegate through the opposite category


def find_initial(C: FinCat) -> ChosenInitial | None:
    t = find_terminal(opposite(C))
    return None if t is None else ChosenInitial(*t)


def find_binary_coproduct(C: FinCat, x1: int, x2: int) -> BinCoproductW | None:
    w = find_limit(PRODUCTS, opposite(C), (x1, x2))
    return None if w is None else BinCoproductW(*w)


def find_binary_coproducts(C: FinCat) -> dict[tuple[int, int], BinCoproductW] | None:
    table = find_binary_products(opposite(C))
    return None if table is None else _table(BinCoproductW, table, table.values())


def find_coequalizer(C: FinCat, f: int, g: int) -> CoequalizerW | None:
    w = find_limit(EQUALIZERS, opposite(C), (f, g))
    return None if w is None else CoequalizerW(*w)


def find_coequalizers(C: FinCat) -> dict[tuple[int, int], CoequalizerW] | None:
    table = find_equalizers(opposite(C))
    return None if table is None else _table(CoequalizerW, table, table.values())
