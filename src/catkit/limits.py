"""Finite limits and colimits: checkers, finders, transfer, preservation.

Every structure is a small witness dataclass that can be re-validated from
scratch by brute force.  ``is_*`` functions quantify over the whole category,
``find_*`` search deterministically (lowest apex first, then lowest morphism
indices), ``transfer_*`` are :func:`check_table` on the source, then
:func:`carry` along a weak equivalence, returning only the table pushed,
``preserves_*`` decide preservation and certify it with comparison isos,
and ``lift_preservation_*`` decide it for a factored functor by
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
shape's equations, then one universal-property loop per shape,
``LimitShape.universal``.  The loop reads hom(z, apex) once per
test object z into an image table, mapping the legs of each arrow to
whether no other arrow has the same legs, and a cone from z factors exactly
once when the table maps it to True.  :func:`find_limit`, the hot path of
every search, draws typed legs, drops those that fail the equations and
calls ``universal`` directly, building a witness only for the one it
returns.  The loops that rescan hom(z, apex) for every cone, and the search
that hands each candidate to ``is_*`` as a witness, are kept in the tests
as their oracles.

On a thin category, one whose hom-sets hold at most one arrow
(``FinCat.down_sets``), every limit is a meet: :func:`find_table` takes
each as the lowest object whose down-set is the lower bounds of the key's
feet, one tick per key, and each ``universal`` is one bitset test, one tick
per call.  Elsewhere :func:`find_table` decides equalizers by counting
cones, one tick per key.  An absence can be decided by a theorem rather
than by a search: a finite category that is not thin has no binary
products (Freyd), so :func:`find_binary_products` refutes them after the
thinness scan, and the coproducts follow through the opposite category.
The loops over cones and :func:`find_limit`'s key-by-key search serve the
other categories and remain these routes' oracles in the tests.

Colimit duals delegate to the limit machinery on the opposite category;
the direct colimit searches they are cross-checked against live in the
tests.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property, partial
from operator import attrgetter, getitem
from typing import Callable

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
    InvalidCert,
    NotACone,
    OracleDisagreement,
    PreconditionViolation,
    ReflectionFails,
)

# ---------------------------------------------------------------------------
# witness types


@dataclass(frozen=True)
class ChosenTerminal:
    t: int


@dataclass(frozen=True)
class BinProductW:
    x1: int
    x2: int
    apex: int
    pi1: int
    pi2: int


@dataclass(frozen=True)
class EqualizerW:
    f: int
    g: int
    obj: int
    arrow: int


@dataclass(frozen=True)
class PullbackW:
    f: int
    g: int
    apex: int
    p1: int
    p2: int


@dataclass(frozen=True)
class ChosenInitial:
    i: int


@dataclass(frozen=True)
class BinCoproductW:
    x1: int
    x2: int
    apex: int
    in1: int
    in2: int


@dataclass(frozen=True)
class CoequalizerW:
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
    for x in range(C.n_objects):
        budget_tick()
        if len(C.hom(x, t)) != 1:
            return False
    return True


def _lower_bounds(C: FinCat, feet) -> int:
    """On a thin category, the objects below every one of feet, as a bitset
    (every object when there is no foot)."""
    down = C.down_sets
    bound = (1 << C.n_objects) - 1
    for x in feet:
        bound &= down[x]
    return bound


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
        if w is None or not (0 <= w.apex < n and C.has_morphisms(w.pi1, w.pi2)) \
                or down[w.apex] != down[z] & down[x] \
                or (src[w.pi1], dst[w.pi1], src[w.pi2], dst[w.pi2]) != (w.apex, z, w.apex, x):
            return None
        apexes.append(w.apex)
    return apexes


def _thin_universal(C: FinCat, feet, apex: int) -> bool:
    """The universal property on a thin category, with one tick: a cone
    from apex typed onto feet is a limit exactly when every lower bound of
    the feet lies below apex, since every cone from a lower bound, and its
    mediator, is then unique."""
    budget_tick()
    return not _lower_bounds(C, feet) & ~C.down_sets[apex]


# ---------------------------------------------------------------------------
# the shape table: a brute-force defining check per shape, then the shapes


def is_binary_product(C: FinCat, w: BinProductW) -> bool:
    if not C.has_morphisms(w.pi1, w.pi2):
        return False
    if C.mor_src[w.pi1] != w.apex or C.mor_dst[w.pi1] != w.x1:
        return False
    if C.mor_src[w.pi2] != w.apex or C.mor_dst[w.pi2] != w.x2:
        return False
    return _product_universal(C, (w.x1, w.x2), w.apex, (w.pi1, w.pi2))


def _product_universal(C: FinCat, key: Key, apex: int, legs: tuple[int, ...]) -> bool:
    """Every cone over the factor pair factors exactly once; the legs are
    typed.  On a thin category, :func:`_thin_universal`."""
    if C.down_sets is not None:
        return _thin_universal(C, key, apex)
    comp, hom = C.comp_table, C.hom_map.get
    (x1, x2), (pi1, pi2) = key, legs
    for z in range(C.n_objects):
        once = None   # the image table of hom(z, apex), built at the first cone from z
        for g1 in hom((z, x1), ()):
            for g2 in hom((z, x2), ()):
                budget_tick()
                if once is None:
                    once = {}
                    for u in hom((z, apex), ()):
                        pair = (comp[u][pi1], comp[u][pi2])
                        once[pair] = pair not in once
                if not once.get((g1, g2)):
                    return False
    return True


def is_equalizer(C: FinCat, w: EqualizerW) -> bool:
    if not C.has_morphisms(w.f, w.g, w.arrow):
        return False
    x = C.mor_src[w.f]
    if C.mor_src[w.g] != x or C.mor_dst[w.g] != C.mor_dst[w.f]:
        return False
    if C.mor_src[w.arrow] != w.obj or C.mor_dst[w.arrow] != x:
        return False
    if C.compose(w.arrow, w.f) != C.compose(w.arrow, w.g):
        return False
    return _equalizer_universal(C, (w.f, w.g), w.obj, (w.arrow,))


def _equalizer_universal(C: FinCat, key: Key, obj: int, legs: tuple[int, ...]) -> bool:
    """Every arrow equalizing the parallel pair factors exactly once; the
    leg is typed and equalizes the pair.  On a thin category,
    :func:`_thin_universal`."""
    (f, g), (arrow,) = key, legs
    x = C.mor_src[f]
    if C.down_sets is not None:
        return _thin_universal(C, (x,), obj)
    comp, hom = C.comp_table, C.hom_map.get
    for z in range(C.n_objects):
        once = None   # the image table of hom(z, obj), built at the first cone from z
        for h in hom((z, x), ()):
            row = comp[h]
            if row[f] != row[g]:
                continue
            budget_tick()
            if once is None:
                once = {}
                for u in hom((z, obj), ()):
                    leg = comp[u][arrow]
                    once[leg] = leg not in once
            if not once.get(h):
                return False
    return True


def is_pullback(C: FinCat, w: PullbackW) -> bool:
    if not C.has_morphisms(w.f, w.g, w.p1, w.p2):
        return False
    x, z0 = C.mor_src[w.f], C.mor_dst[w.f]
    y = C.mor_src[w.g]
    if C.mor_dst[w.g] != z0:
        return False
    if C.mor_src[w.p1] != w.apex or C.mor_dst[w.p1] != x:
        return False
    if C.mor_src[w.p2] != w.apex or C.mor_dst[w.p2] != y:
        return False
    if C.compose(w.p1, w.f) != C.compose(w.p2, w.g):
        return False
    return _pullback_universal(C, (w.f, w.g), w.apex, (w.p1, w.p2))


def _pullback_universal(C: FinCat, key: Key, apex: int, legs: tuple[int, ...]) -> bool:
    """Every commuting square over the cospan factors exactly once; the legs
    are typed and commute.  On a thin category, :func:`_thin_universal`."""
    (f, g), (p1, p2) = key, legs
    x, y = C.mor_src[f], C.mor_src[g]
    if C.down_sets is not None:
        return _thin_universal(C, (x, y), apex)
    comp, hom = C.comp_table, C.hom_map.get
    for z in range(C.n_objects):
        once = None   # the image table of hom(z, apex), built at the first cone from z
        for h1 in hom((z, x), ()):
            c1 = comp[h1][f]
            for h2 in hom((z, y), ()):
                if comp[h2][g] != c1:
                    continue
                budget_tick()
                if once is None:
                    once = {}
                    for u in hom((z, apex), ()):
                        pair = (comp[u][p1], comp[u][p2])
                        once[pair] = pair not in once
                if not once.get((h1, h2)):
                    return False
    return True


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
Table = dict[Key, object]   # key -> witness


@dataclass(frozen=True, eq=False)
class LimitShape:
    """A keyed finite-limit shape.  Witness fields are the ``n_key`` parts
    of the key (two, or none for the terminal), the apex, then one leg per
    foot.  ``feet`` is None for a key that is not a diagram of the shape;
    ``commutes`` holds the equations on typed legs, if any.  Keys name
    objects or, unless ``keyed_by_objects``, morphisms.  ``is_limit`` is the
    public check of a witness, range, typing and equations first;
    ``universal(C, key, apex, legs)`` is its universal-property loop alone,
    for legs already typed onto the feet of the key and commuting, which is
    what the searches enumerate.  Both look their function up on the module
    when called, so a wrapper installed on the module sees every call.
    """

    name: str
    diagram: str
    witness: type
    n_key: int
    keys: Callable[[FinCat], list[Key]]
    feet: Callable[[FinCat, Key], tuple[int, ...] | None]
    commutes: Callable[[FinCat, Key, tuple[int, ...]], bool] | None
    is_limit: Callable[[FinCat, object], bool]
    universal: Callable[[FinCat, Key, int, tuple[int, ...]], bool]
    keyed_by_objects: bool

    @cached_property
    def field_kinds(self) -> tuple[tuple[str, bool], ...]:
        """(name, whether it names an object) for each witness field."""
        k = self.n_key
        names = [f.name for f in fields(self.witness)]
        return tuple((n, i == k or (i < k and self.keyed_by_objects)) for i, n in enumerate(names))

    @cached_property
    def unpack(self) -> Callable[[object], tuple[int, ...]]:
        """A witness as the flat tuple of its fields: key parts, apex, legs."""
        get = attrgetter(*(n for n, _ in self.field_kinds))
        return get if len(self.field_kinds) > 1 else lambda w: (get(w),)

    def split(self, w) -> tuple[Key, int, tuple[int, ...]]:
        """A witness as (key, apex, legs)."""
        v, k = self.unpack(w), self.n_key
        return v[:k], v[k], v[k + 1:]

    def image_key(self, F: Functor, key: Key) -> Key:
        image = F.obj_map if self.keyed_by_objects else F.mor_map
        return (image[key[0]], image[key[1]]) if key else ()   # unrolled: a hot path

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
    None, lambda C, w: is_terminal(C, w.t),
    lambda C, key, apex, legs: is_terminal(C, apex), True,
)
PRODUCTS = LimitShape(
    "product", "factor pair", BinProductW, 2,
    lambda C: list(itertools.product(range(C.n_objects), repeat=2)), lambda C, key: key,
    None, lambda C, w: is_binary_product(C, w),
    lambda C, key, apex, legs: _product_universal(C, key, apex, legs), True,
)
EQUALIZERS = LimitShape(
    "equalizer", "parallel pair", EqualizerW, 2, parallel_pairs, _parallel_feet,
    lambda C, key, legs: C.compose(legs[0], key[0]) == C.compose(legs[0], key[1]),
    lambda C, w: is_equalizer(C, w),
    lambda C, key, apex, legs: _equalizer_universal(C, key, apex, legs), False,
)
PULLBACKS = LimitShape(
    "pullback", "cospan", PullbackW, 2, cospan_pairs, _cospan_feet,
    lambda C, key, legs: C.compose(legs[0], key[0]) == C.compose(legs[1], key[1]),
    lambda C, w: is_pullback(C, w),
    lambda C, key, apex, legs: _pullback_universal(C, key, apex, legs), False,
)


# ---------------------------------------------------------------------------
# the verbs, written once over the shape


def find_limit(shape: LimitShape, C: FinCat, key: Key) -> object | None:
    """Lowest apex first, then lowest leg indices; None when the key is not
    a diagram of the shape, names no object or morphism of C, or has no
    limit.  The legs are drawn from hom(apex, foot), so they are typed;
    those that fail the shape's equations are skipped, the others go to
    ``shape.universal``, and only the winner becomes a witness."""
    feet = shape.feet(C, key)
    if feet is None or not shape.in_range(C, key):
        return None
    commutes, universal = shape.commutes, shape.universal
    for apex in range(C.n_objects):
        for legs in itertools.product(*[C.hom(apex, x) for x in feet]):
            if commutes is not None and not commutes(C, key, legs):
                continue
            if universal(C, key, apex, legs):
                return shape.witness(*key, apex, *legs)
    return None


def find_table(shape: LimitShape, C: FinCat) -> Table | None:
    """Chosen limits for every key, or None if some key has none: the
    witnesses :func:`find_limit` returns, taken as meets on a thin category
    (:func:`_thin_table`) and by counting for the equalizers of any other
    (:func:`_counted_equalizers`); the other shapes search key by key."""
    if C.down_sets is not None:
        return _thin_table(shape, C)
    if shape is EQUALIZERS:
        return _counted_equalizers(C)
    out = {}
    for key in shape.keys(C):
        w = find_limit(shape, C, key)
        if w is None:
            return None
        out[key] = w
    return out


def _thin_table(shape: LimitShape, C: FinCat) -> Table | None:
    """:func:`find_table` on a thin category, one tick per key.  The limits
    of a key are the objects whose down-set is the lower bounds of its
    feet, its meet and the objects isomorphic to it; the witness is the one
    with the lowest index, which :func:`find_limit` meets first, with its
    unique legs."""
    lowest = _lowest_by_down_set(C)
    hom = C.hom_map
    out = {}
    for key in shape.keys(C):
        budget_tick()
        feet = shape.feet(C, key)
        apex = lowest.get(_lower_bounds(C, feet))
        if apex is None:
            return None
        out[key] = shape.witness(*key, apex, *[hom[(apex, x)][0] for x in feet])
    return out


def _counted_equalizers(C: FinCat) -> Table | None:
    """:func:`find_table` for equalizers, one tick per key.  An arrow a
    with a;f == a;g equalizes (f, g) exactly when u -> u;a is injective on
    into(src a) and into(src a) is as large as the set of h into src f with
    h;f == h;g: mediation is then a bijection onto the cones.  Injectivity
    is decided once per arrow for the whole table, and the candidates into
    src f are scanned by apex, then index, as :func:`find_limit` takes
    them."""
    comp, src, into = C.comp_table, C.mor_src, C.into
    by_apex: dict[int, list[int]] = {}   # x -> into(x) by apex, then index
    monic: dict[int, bool] = {}
    out = {}
    for f, g in parallel_pairs(C):
        budget_tick()
        x = src[f]
        arrows = by_apex.get(x)
        if arrows is None:
            arrows = by_apex[x] = sorted(into[x], key=src.__getitem__)
        cones = len(into[x]) if f == g else sum(1 for h in into[x] if comp[h][f] == comp[h][g])
        for a in arrows:
            row = comp[a]
            if len(into[src[a]]) != cones or row[f] != row[g]:
                continue
            mono = monic.get(a)
            if mono is None:
                us = into[src[a]]
                mono = monic[a] = len({comp[u][a] for u in us}) == len(us)
            if mono:
                out[(f, g)] = EqualizerW(f, g, src[a], a)
                break
        else:
            return None
    return out


def partial_table(shape: LimitShape, C: FinCat) -> Table:
    """Chosen limits for exactly the keys that have one."""
    found = ((key, find_limit(shape, C, key)) for key in shape.keys(C))
    return {key: w for key, w in found if w is not None}


def _wrong_at(shape: LimitShape, key: Key) -> InvalidCert:
    if not key:   # the one witness of a keyless shape, not a table
        return InvalidCert(f"{shape.name} witness is not {shape.name}")
    return InvalidCert(f"{shape.name} table is wrong at {key}")


def check_table(shape: LimitShape, C: FinCat, table: Table) -> None:
    """Every key of C carries a valid witness keyed by it, and the table
    has no other entry."""
    k = shape.n_key   # witnesses read inline, as in mediator
    keys = shape.keys(C)
    for key in keys:
        w = table.get(key)
        if w is None or shape.unpack(w)[:k] != key or not shape.is_limit(C, w):
            raise _wrong_at(shape, key)
    refuse_other_keys(shape.name, shape.diagram, table, keys)


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
    v, k = shape.unpack(w), shape.n_key   # split inline: a hot path
    apex, wlegs = v[k], v[k + 1:]
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
    key = v[:k]
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
    mu: dict[Key, Iso]


def _comparison_at(shape: LimitShape, E: FinCat, entry, image: tuple[int, ...]) -> Iso | None:
    """mu for the flat image cone image, from entry, the chosen limit of its
    diagram, onto it; None when the image cone is not limiting.  entry must
    be a limit: the identity is then taken unsearched where the image is
    entry, since the only endomorphism of a limit that commutes with its own
    legs is the identity, and any other cone is a limit exactly when its
    mediator into entry is an iso."""
    k = shape.n_key
    if image == shape.unpack(entry):
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
    by an iso; None when some image cone is not limiting.  A source entry
    whose key parts, apex or legs are out of range, or a target entry with
    a field out of range, raises; each distinct image cone is compared
    once, in the order of first occurrence, and the answer and raise are
    those of a walk over the source in key order.  The target entries must
    be limits, as every found or checked table is: an image cone equal to
    its chosen limit then gets the identity, unsearched, since the only
    endomorphism of a limit that commutes with its own legs is the
    identity, and any other is compared by :func:`_comparison_at`."""
    E, k = F.target, shape.n_key
    # for each field of a flat cone (key parts, apex, legs), F's map and the
    # number of objects or morphisms of E
    maps, bounds = zip(*[
        (F.obj_map, E.n_objects) if is_obj else (F.mor_map, E.n_morphisms)
        for _, is_obj in shape.field_kinds
    ])
    keys = list(source)
    # the source cones column by column; a field outside its map's indices
    # would be read from the end, or not at all
    columns = [*zip(*keys), *itertools.islice(zip(*map(shape.unpack, source.values())), k, None)]
    n_ok = _first_out_of_range(columns, map(len, maps), len(keys))
    images = list(zip(*[map(fmap.__getitem__, col[:n_ok]) for fmap, col in zip(maps, columns)]))
    distinct = list(dict.fromkeys(images))
    # the target entry of each distinct image's diagram, as far as the first
    # one missing and then the first one with a field outside E
    entries = list(map(target.get, [image[:k] for image in distinct]))
    found = entries.index(None) if None in entries else len(distinct)
    flat = list(map(shape.unpack, entries[:found]))
    n_in = _first_out_of_range(list(zip(*flat)), bounds, found)
    isos: list[Iso] = []
    identities: dict[int, Iso] = {}
    for image, entry, v in zip(distinct[:n_in], entries, flat):
        if image == v:
            one = E.identity[v[k]]
            iso = identities.get(one)
            if iso is None:
                iso = identities[one] = Iso(one, one)
        else:
            iso = _comparison_at(shape, E, entry, image)
            if iso is None:
                return None
        isos.append(iso)
    if n_in < found:
        raise InvalidCert(f"target {shape.name} entry {distinct[n_in][:k]} is out of range")
    if found < len(distinct):
        target[distinct[found][:k]]   # raises KeyError, as a walk reading it would
    if n_ok < len(keys):
        raise InvalidCert(f"source {shape.name} entry {keys[n_ok]} is out of range")
    by_image = dict(zip(distinct, isos))   # image cone -> mu
    mu = dict(zip(keys, map(by_image.__getitem__, images)))
    return LimitPreservationCert(F, source, target, mu)


def first_unpreserved(shape: LimitShape, F: Functor, source: Table, target: Table) -> Key | None:
    """Index-order first source key whose image cone is not limiting; an
    invalid target entry raises, as in :func:`preserves`."""
    for key in sorted(source):
        if preserves(shape, F, {key: source[key]}, target) is None:
            return key
    return None


def transfer(shape: LimitShape, cert: WeakEquivalenceCert, table: Table) -> Table:
    """:func:`check_table` on the source, then :func:`carry`."""
    check_table(shape, cert.functor.source, table)
    return carry(shape, cert, table)


def carry(shape: LimitShape, cert: WeakEquivalenceCert, table: Table) -> Table:
    """Push a table whose entries are limits on the source along the
    equivalence: the witness at each pulled-back key is imaged, once for
    all the keys pulled back to it, and its legs composed with the eso isos
    of the feet, so that every entry is typed by construction (an
    ill-typed pair raises as ``FinCat.compose`` does, at the first key in
    key order that has one, and so does a missing entry).  The target need
    not be skeletal: the witnesses carried there are limits, though not the
    only choice.  The carried entries are not decided here, and the
    equivalence is not certified: a completion decides both by eta's
    :func:`preserves`."""
    check_weak_equivalence_cert(cert)
    G, Q = cert.functor, cert.quasi_inverse
    D = G.target
    comp, src, dst = D.comp_table, D.mor_src, D.mor_dst
    eso = [iso.fwd for _, iso in cert.eso_witness]
    k = shape.n_key   # witnesses read inline, as in mediator

    def imaged(src_key):
        """The source entry at src_key as its apex and legs imaged by G."""
        w = table.get(src_key)
        if w is None:
            raise PreconditionViolation(f"source table lacks the {shape.name} of {src_key}")
        v = shape.unpack(w)
        return (G.obj_map[v[k]], *map(G.mor_map.__getitem__, v[k + 1:]))

    keys = shape.keys(D)
    src_keys = list(map(shape.image_key, itertools.repeat(Q), keys))
    by_src: dict[Key, tuple[int, ...]] = {}   # each pulled-back key's entry, imaged once
    n = len(keys)   # the keys before the first whose entry cannot be imaged
    for src_key in dict.fromkeys(src_keys):
        try:
            by_src[src_key] = imaged(src_key)
        except (PreconditionViolation, IndexError):
            n = src_keys.index(src_key)
            break
    # the imaged apexes and legs of the first n keys column by column, and
    # each leg then the eso iso of its foot, typed as FinCat.compose asks
    n_legs = len(shape.field_kinds) - k - 1
    apexes, *legs = list(zip(*map(by_src.__getitem__, src_keys[:n]))) or [()] * (1 + n_legs)
    feet = list(zip(*map(shape.feet, itertools.repeat(D), keys[:n]))) or [()] * n_legs
    composed, first_bad = [], None   # (key index, leg, eso iso) of the first ill-typed pair
    for ps, ys in zip(legs, feet):
        es = list(map(eso.__getitem__, ys))
        if list(map(dst.__getitem__, ps)) != list(map(src.__getitem__, es)):
            i = next(i for i, (p, e) in enumerate(zip(ps, es)) if dst[p] != src[e])
            if first_bad is None or i < first_bad[0]:
                first_bad = (i, ps[i], es[i])
        composed.append(list(map(getitem, map(comp.__getitem__, ps), es)))
    # raise what a walk over the keys in order would raise first
    if first_bad is not None:
        D.compose(*first_bad[1:])
    if n < len(keys):
        imaged(src_keys[n])
    return dict(zip(keys, map(shape.witness, *zip(*keys), apexes, *composed)))


def reflect(shape: LimitShape, F: Functor, w):
    """A fully faithful functor whose image cone is limiting forces the source
    cone to be limiting; a witness with a field outside the source is bad
    input, refused before it is imaged, and a failure after a limiting image
    is an internal error."""
    if not shape.in_range(F.source, shape.unpack(w)):
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


def preserves_terminal(F: Functor, tC: ChosenTerminal, tD: ChosenTerminal):
    """mu[()] is the pair of unique arrows tD -> F(tC) and back; a tD that is
    not terminal raises."""
    check_table(TERMINAL, F.target, {(): tD})
    return preserves(TERMINAL, F, {(): tC}, {(): tD})


def transfer_terminal(cert: WeakEquivalenceCert, tC: ChosenTerminal) -> ChosenTerminal:
    return transfer(TERMINAL, cert, {(): tC})[()]


def lift_preservation_terminal(cert, F, H, alpha, Fcert, tD):
    return lift(TERMINAL, cert, F, H, alpha, Fcert, {(): tD})


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
    """The unique morphism into the apex commuting with both projections."""
    return mediator(PRODUCTS, C, w, C.mor_src[g1], (g1, g2))


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
    return None if t is None else ChosenInitial(t.t)


def find_binary_coproduct(C: FinCat, x1: int, x2: int) -> BinCoproductW | None:
    w = find_limit(PRODUCTS, opposite(C), (x1, x2))
    return None if w is None else BinCoproductW(x1, x2, w.apex, w.pi1, w.pi2)


def find_binary_coproducts(C: FinCat) -> dict[tuple[int, int], BinCoproductW] | None:
    table = find_binary_products(opposite(C))
    if table is None:
        return None
    return {
        k: BinCoproductW(w.x1, w.x2, w.apex, w.pi1, w.pi2) for k, w in table.items()
    }


def find_coequalizer(C: FinCat, f: int, g: int) -> CoequalizerW | None:
    w = find_limit(EQUALIZERS, opposite(C), (f, g))
    return None if w is None else CoequalizerW(f, g, w.obj, w.arrow)


def find_coequalizers(C: FinCat) -> dict[tuple[int, int], CoequalizerW] | None:
    table = find_equalizers(opposite(C))
    if table is None:
        return None
    return {k: CoequalizerW(w.f, w.g, w.obj, w.arrow) for k, w in table.items()}
