"""Finite categories as dense tables.

A category is four tables: an object list, a typed morphism list, an
identity assignment, and a total composition table over composable pairs.
Composition is written diagrammatically everywhere: ``compose(f, g)`` means
"f then g" and is defined exactly when ``dst(f) == src(g)``.

All searches in this package are deterministic; ties are broken by lowest
index, objects first, then morphisms.
"""
from __future__ import annotations

import itertools
import threading
import weakref
from collections.abc import Callable, Hashable, Mapping, Sequence
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

from .errors import (
    AssociativityViolation,
    ComponentNotIso,
    CompositionNotPreserved,
    DanglingReference,
    IdentityNotPreserved,
    IllTypedComposite,
    IllTypedImage,
    InvalidCert,
    MissingComposite,
    MissingIdentity,
    NaturalitySquareFails,
    SearchBudgetExceeded,
    SizeBoundExceeded,
    UnitLawViolation,
)

# ---------------------------------------------------------------------------
# search budget
#
# Brute-force sweeps tick this counter once per examined candidate.  The
# library runs uncapped by default; the CLI installs a cap so runaway inputs
# abort with a clear message instead of hanging.

class _Count:
    """One thread's cap and the candidate checks it has used."""

    __slots__ = ("limit", "used")

    def __init__(self) -> None:
        self.limit: int | None = None
        self.used = 0


class _Budget(threading.local):
    """Each thread's count, created uncapped and unused the first time the
    thread touches the budget; a tick reads the thread-local once."""

    def __init__(self) -> None:
        self.count = _Count()

    @property
    def limit(self) -> int | None:
        return self.count.limit

    @property
    def used(self) -> int:
        return self.count.used


_budget = _Budget()


def set_search_budget(limit: int | None) -> None:
    count = _budget.count
    count.limit = limit
    count.used = 0


def budget_tick(n: int = 1) -> None:
    count = _budget.count
    limit = count.limit
    if limit is None:
        return
    count.used += n
    if count.used > limit:
        raise SearchBudgetExceeded(
            f"search budget of {limit} candidate checks exhausted; "
            "raise CATKIT_MAX_SEARCH or shrink the input"
        )


# ---------------------------------------------------------------------------
# category


@dataclass(frozen=True, eq=False)
class FinCat:
    """A finite category, fully tabulated.

    ``comp_table[f][g]`` holds the composite "f then g" when
    ``mor_dst[f] == mor_src[g]`` and None otherwise.  Instances are built
    through :func:`fincat` (or the JSON loader) which enforces all laws;
    construct directly only with pre-checked tables.
    """

    name: str
    objects: tuple[str, ...]
    mor_labels: tuple[str, ...]
    mor_src: tuple[int, ...]
    mor_dst: tuple[int, ...]
    identity: tuple[int, ...]
    comp_table: tuple[tuple[int | None, ...], ...]

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.mor_labels)

    def compose(self, f: int, g: int) -> int:
        """Diagrammatic composite: f then g."""
        if self.mor_dst[f] != self.mor_src[g]:
            raise IllTypedComposite(
                f"cannot compose {self.mor_labels[f]} then {self.mor_labels[g]}: "
                f"dst({self.mor_labels[f]}) != src({self.mor_labels[g]})"
            )
        out = self.comp_table[f][g]
        assert out is not None
        return out

    def compose_many(self, *fs: int) -> int:
        out = fs[0]
        for f in fs[1:]:
            out = self.compose(out, f)
        return out

    def has_morphisms(self, *fs: int) -> bool:
        """Whether every f indexes a morphism; a witness field outside the
        range would read as a morphism counted from the end, or not at all."""
        m = len(self.mor_labels)
        for f in fs:
            if not 0 <= f < m:
                return False
        return True

    def is_identity(self, f: int) -> bool:
        return self.identity[self.mor_src[f]] == f and self.mor_src[f] == self.mor_dst[f]

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return self.hom_map.get((x, y), ())

    @cached_property
    def hom_map(self) -> dict[tuple[int, int], tuple[int, ...]]:
        out: dict[tuple[int, int], list[int]] = {}
        for f in range(self.n_morphisms):
            out.setdefault((self.mor_src[f], self.mor_dst[f]), []).append(f)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def down_sets(self) -> tuple[int, ...] | None:
        """``down_sets[x]``: the objects with an arrow into x, as a bitset
        with bit z set when hom(z, x) is not empty, when the category is
        thin (no hom-set holds two arrows); None otherwise.  The first read
        ticks the search budget once per hom-set the scan visited."""
        down, visited = self.order_scan
        budget_tick(visited)
        return down

    @cached_property
    def order_scan(self) -> tuple[tuple[int, ...] | None, int]:
        """The down-sets of :attr:`down_sets` and the number of hom-sets
        the scan visited, read without a tick: the certificate checks
        decide a thin category by order.  One scan of ``hom_map`` stops at
        the first hom-set holding two arrows."""
        down = [0] * self.n_objects
        visited = 0
        for (z, x), fs in self.hom_map.items():
            visited += 1
            if len(fs) > 1:
                return None, visited
            down[x] |= 1 << z
        return tuple(down), visited

    @cached_property
    def out_of(self) -> tuple[tuple[int, ...], ...]:
        """``out_of[x]``: the morphisms leaving object x, in index order."""
        out: list[list[int]] = [[] for _ in range(self.n_objects)]
        for f in range(self.n_morphisms):
            out[self.mor_src[f]].append(f)
        return tuple(tuple(v) for v in out)

    @cached_property
    def into(self) -> tuple[tuple[int, ...], ...]:
        """``into[x]``: the morphisms arriving at object x, in index order."""
        out: list[list[int]] = [[] for _ in range(self.n_objects)]
        for f in range(self.n_morphisms):
            out[self.mor_dst[f]].append(f)
        return tuple(tuple(v) for v in out)

    @cached_property
    def object_indices(self) -> dict[str, int]:
        """Object label -> index; a repeated label names its first object."""
        return _first_indices(self.objects)

    @cached_property
    def morphism_indices(self) -> dict[str, int]:
        """Morphism label -> index; a repeated label names its first morphism."""
        return _first_indices(self.mor_labels)

    def object_index(self, label: str) -> int:
        return self.object_indices[label]

    def morphism_index(self, label: str) -> int:
        return self.morphism_indices[label]

    def __repr__(self) -> str:
        return f"FinCat({self.name!r}, {self.n_objects} objects, {self.n_morphisms} morphisms)"


def _first_indices(labels: tuple[str, ...]) -> dict[str, int]:
    """label -> index of its first occurrence, as ``tuple.index`` finds it."""
    return {label: i for i, label in reversed(tuple(enumerate(labels)))}


def check_category_tables(C: FinCat) -> None:
    """Exhaustively verify the category laws on the tables.

    Raises a CategoryValidationError subclass naming the first offending
    entry (rows, then columns, then the third morphism, in index order);
    returns None when everything holds.

    On a thin category (no hom-set holds two arrows) the checks end with
    the row typing: both sides of a unit or associativity law are then
    arrows of one hom-set, which holds one arrow, so the laws hold and
    take no tick.

    Elsewhere, associativity is checked only at the middles in
    :func:`_generating_set` (Light's associativity test).  Call ``g`` a
    good middle when ``(f;g);h == f;(g;h)`` for every f into it and h out
    of it.  If ``a`` and ``b`` are good middles, so is ``a;b``, and
    identities are good by the unit laws, so when every member is good,
    every morphism is.  Each member ``g`` ticks the search budget once per
    triple through it, ``|into[src g]| * |out_of[dst g]|``, never more than
    the composable triples.
    """
    n, m = C.n_objects, C.n_morphisms
    if len(C.mor_src) != m or len(C.mor_dst) != m:
        raise DanglingReference("morphism typing tables disagree in length")
    for f in range(m):
        if not (0 <= C.mor_src[f] < n and 0 <= C.mor_dst[f] < n):
            raise DanglingReference(f"morphism {C.mor_labels[f]} references a missing object")
    if len(C.identity) != n:
        raise MissingIdentity("identity table does not cover every object")
    for x in range(n):
        i = C.identity[x]
        if not (0 <= i < m):
            raise MissingIdentity(f"object {C.objects[x]} has no identity morphism")
        if C.mor_src[i] != x or C.mor_dst[i] != x:
            raise MissingIdentity(
                f"identity of {C.objects[x]} must be an endomorphism on it"
            )
    if len(C.comp_table) != m or any(len(row) != m for row in C.comp_table):
        raise MissingComposite("composition table has wrong shape")
    src, dst, out_of, table = C.mor_src, C.mor_dst, C.out_of, C.comp_table
    for f, row in enumerate(table):
        # a row is well typed when its only set entries are its composable
        # ones and each of those is a morphism with the composite's ends
        outs, s = out_of[dst[f]], src[f]
        if row.count(None) != m - len(outs) or not all(
            (fg := row[g]) is not None and 0 <= fg < m and src[fg] == s and dst[fg] == dst[g]
            for g in outs
        ):
            _raise_row_offence(C, f)
    if C.order_scan[0] is not None:
        return
    for f in range(m):
        i_s, i_t = C.identity[src[f]], C.identity[dst[f]]
        if table[i_s][f] != f:
            raise UnitLawViolation(
                f"({C.mor_labels[i_s]}, {C.mor_labels[f]}): left unit law fails"
            )
        if table[f][i_t] != f:
            raise UnitLawViolation(
                f"({C.mor_labels[f]}, {C.mor_labels[i_t]}): right unit law fails"
            )
    into = C.into
    for g in _generating_set(C):
        fs, hs = into[src[g]], out_of[dst[g]]
        budget_tick(len(fs) * len(hs))
        # (f;g);h == f;(g;h) for every h, compared as one tuple per f; hs
        # holds dst g's identity, so neither getter is empty
        pick_h = itemgetter(*hs)
        row_g = table[g]
        pick_gh = itemgetter(*[row_g[h] for h in hs])
        for f in fs:
            row_f = table[f]
            if pick_h(table[row_f[g]]) != pick_gh(row_f):
                _raise_associativity_offence(C)


def _generating_set(C: FinCat) -> list[int]:
    """The non-identity morphisms, in index order, that are not a
    left-to-right composite of earlier members; every non-identity morphism
    is a member or such a composite.  C's table must be well typed.

    ``reached`` holds the composites of the members so far; adding ``g``
    reaches ``g`` and each ``u;g`` with ``u`` reached, and every morphism
    newly reached is extended on the right by each member."""
    src, dst, table, into = C.mor_src, C.mor_dst, C.comp_table, C.into
    reached = [False] * C.n_morphisms
    members: list[int] = []
    members_out: list[list[int]] = [[] for _ in range(C.n_objects)]
    for g in range(C.n_morphisms):
        if reached[g] or C.is_identity(g):
            continue
        members.append(g)
        members_out[src[g]].append(g)
        stack = [g]
        stack += [table[u][g] for u in into[src[g]] if reached[u]]
        while stack:
            u = stack.pop()
            if reached[u]:
                continue
            reached[u] = True
            row_u = table[u]
            for s in members_out[dst[u]]:
                if not reached[row_u[s]]:
                    stack.append(row_u[s])
    return members


def _raise_associativity_offence(C: FinCat) -> None:
    """Raise the first associativity offence, in index order of (f, g, h),
    walking every composable triple and ticking the budget as it goes."""
    table, out_of, dst, labels = C.comp_table, C.out_of, C.mor_dst, C.mor_labels
    for f, row_f in enumerate(table):
        for g in out_of[dst[f]]:
            row_fg, row_g = table[row_f[g]], table[g]
            hs = out_of[dst[g]]
            budget_tick(len(hs))
            for h in hs:
                if row_fg[h] != row_f[row_g[h]]:
                    raise AssociativityViolation(
                        f"({labels[f]}, {labels[g]}, {labels[h]}): associativity fails"
                    )
    raise AssertionError("the composition table has no associativity offence")


def _raise_row_offence(C: FinCat, f: int) -> None:
    """Raise the first typing offence in row f of the composition table."""
    m, labels = C.n_morphisms, C.mor_labels
    for g, fg in enumerate(C.comp_table[f]):
        if C.mor_dst[f] != C.mor_src[g]:
            if fg is not None:
                raise IllTypedComposite(
                    f"{labels[f]} then {labels[g]} is not composable "
                    "but the table defines it"
                )
            continue
        if fg is None:
            raise MissingComposite(
                f"composite of {labels[f]} then {labels[g]} is missing"
            )
        if not 0 <= fg < m:
            raise IllTypedComposite(
                f"composite {labels[f]};{labels[g]} = {fg} is not a morphism index"
            )
        if C.mor_src[fg] != C.mor_src[f] or C.mor_dst[fg] != C.mor_dst[g]:
            raise IllTypedComposite(
                f"composite {labels[f]};{labels[g]} = {labels[fg]} "
                f"is ill-typed"
            )
    raise AssertionError(f"row {labels[f]} of the composition table has no offence")


def fincat(
    name: str,
    objects: list[str] | tuple[str, ...],
    mor_labels: list[str] | tuple[str, ...],
    mor_src: list[int],
    mor_dst: list[int],
    identity: list[int],
    comp: dict[tuple[int, int], int],
) -> FinCat:
    """Assemble and fully check a category from sparse composition data.
    The unit composites are filled in as far as the typing tables are in
    range; the law check refuses the others before it reads the table.  A
    key of comp that names no morphism is refused before the fill, in one
    pass over the keys."""
    m = len(mor_labels)
    if comp:
        fs, gs = zip(*comp)
        if min(min(fs), min(gs)) < 0 or max(max(fs), max(gs)) >= m:
            key = next(k for k in comp if not (0 <= k[0] < m and 0 <= k[1] < m))
            raise DanglingReference(f"composition entry {key} names a missing morphism")
    table = [[None] * m for _ in range(m)]
    for (f, g), fg in comp.items():
        table[f][g] = fg
    # identity composites follow from the unit laws; fill the gaps
    with suppress(IndexError):
        for f in range(m):
            i_s, i_t = identity[mor_src[f]], identity[mor_dst[f]]
            if table[i_s][f] is None:
                table[i_s][f] = f
            if table[f][i_t] is None:
                table[f][i_t] = f
    C = FinCat(
        name=name,
        objects=tuple(objects),
        mor_labels=tuple(mor_labels),
        mor_src=tuple(mor_src),
        mor_dst=tuple(mor_dst),
        identity=tuple(identity),
        comp_table=tuple(tuple(row) for row in table),
    )
    check_category_tables(C)
    return C


def tabulate(
    name: str,
    objects: Sequence[str],
    entries: Sequence[Hashable],
    mor_src: Sequence[int],
    mor_dst: Sequence[int],
    mor_labels: Sequence[str],
    identity: Sequence[Hashable],
    compose: Callable[[Hashable, Hashable], Hashable],
) -> tuple[FinCat, dict[Hashable, int]]:
    """Tabulate a category whose morphisms are the given entries, distinct
    hashable values.

    Entry i becomes morphism i, from ``mor_src[i]`` to ``mor_dst[i]`` and
    labelled ``mor_labels[i]``; ``identity[x]`` is the entry of object x's
    identity, and ``compose(e1, e2)`` the entry of "e1 then e2", asked for
    each composable pair exactly once.  The tables go through :func:`fincat`,
    which checks every law and refuses an identity that is not one of the
    entries, read as index -1; a composite that is not one is refused here.
    Returns the category and the entry -> index map.
    """
    index = {e: i for i, e in enumerate(entries)}
    outs: dict[int, list[int]] = {}
    for i, x in enumerate(mor_src):
        outs.setdefault(x, []).append(i)
    comp = {}
    for i, (e, y) in enumerate(zip(entries, mor_dst)):
        for j in outs.get(y, ()):
            fg = comp[(i, j)] = index.get(compose(e, entries[j]))
            if fg is None:
                raise DanglingReference(f"composite of entries {i} then {j} is not an entry")
    ids = [index.get(e, -1) for e in identity]
    return fincat(name, objects, mor_labels, mor_src, mor_dst, ids, comp), index


def same_tables(a: FinCat, b: FinCat) -> bool:
    """Structural table equality, ignoring names and labels."""
    return (
        a.n_objects == b.n_objects
        and a.mor_src == b.mor_src
        and a.mor_dst == b.mor_dst
        and a.identity == b.identity
        and a.comp_table == b.comp_table
    )


def table_isomorphic(a: FinCat, b: FinCat) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Search for an isomorphism of categories (object and morphism
    bijections preserving identities and composition).  Intended for small
    instances only; raises SizeBoundExceeded past 64 morphisms."""
    if a.n_objects != b.n_objects or a.n_morphisms != b.n_morphisms:
        return None
    if a.n_morphisms > 64:
        raise SizeBoundExceeded("table_isomorphic is a desk-scale check")
    hom_sizes_b: dict[tuple[int, int], int] = {
        k: len(v) for k, v in b.hom_map.items()
    }
    # each composite h;k = c is compared once the last of h, k and c is
    # assigned, so every branch is pruned as soon as it fails
    last: list[list[tuple[int, int, int]]] = [[] for _ in range(a.n_morphisms)]
    for h, row in enumerate(a.comp_table):
        for k, c in enumerate(row):
            if c is not None:
                last[max(h, k, c)].append((h, k, c))
    for obj_map in itertools.permutations(range(b.n_objects)):
        budget_tick()
        if any(hom_sizes_b.get((obj_map[x], obj_map[y]), 0) != len(fs)
               for (x, y), fs in a.hom_map.items()):
            continue
        mor_map: list[int | None] = [None] * a.n_morphisms
        used: set[int] = set()

        def assign(f: int) -> bool:
            if f == a.n_morphisms:
                return True
            for img in b.hom(obj_map[a.mor_src[f]], obj_map[a.mor_dst[f]]):
                # an identity goes to the one identity of its image's hom-set
                if img in used or a.is_identity(f) != b.is_identity(img):
                    continue
                mor_map[f] = img
                if all(b.comp_table[mor_map[h]][mor_map[k]] == mor_map[c]
                       for h, k, c in last[f]):
                    used.add(img)
                    if assign(f + 1):
                        return True
                    used.discard(img)
            mor_map[f] = None
            return False

        if assign(0):
            return obj_map, tuple(mor_map)
    return None


# ---------------------------------------------------------------------------
# isomorphisms inside a category


@dataclass(frozen=True)
class Iso:
    """A two-sided inverse pair; ``fwd`` then ``inv`` is the identity on
    src(fwd), and ``inv`` then ``fwd`` the identity on src(inv)."""

    fwd: int
    inv: int


def find_iso(C: FinCat, f: int) -> Iso | None:
    """Return the inverse of f when one exists.  Inverses are unique, so the
    first hit is the only hit."""
    x, y = C.mor_src[f], C.mor_dst[f]
    for g in C.hom(y, x):
        budget_tick()
        if C.comp_table[f][g] == C.identity[x] and C.comp_table[g][f] == C.identity[y]:
            return Iso(f, g)
    return None


def iso_between(C: FinCat, x: int, y: int) -> Iso | None:
    """Lowest-index isomorphism from x to y, if any."""
    for f in C.hom(x, y):
        iso = find_iso(C, f)
        if iso is not None:
            return iso
    return None


def isos_between(C: FinCat, x: int, y: int) -> list[Iso]:
    out = []
    for f in C.hom(x, y):
        iso = find_iso(C, f)
        if iso is not None:
            out.append(iso)
    return out


def iso_classes(C: FinCat) -> tuple[tuple[int, ...], ...]:
    """Partition of objects into isomorphism classes, each class sorted
    ascending, classes ordered by least member.  In a thin category x and
    y are isomorphic exactly when each has an arrow into the other, that
    is, when their down-sets are equal."""
    down = C.order_scan[0]
    if down is not None:
        by_down: dict[int, list[int]] = {}
        for x, d in enumerate(down):
            by_down.setdefault(d, []).append(x)
        return tuple(map(tuple, by_down.values()))
    parent = list(range(C.n_objects))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in range(C.n_morphisms):
        rx, ry = root(C.mor_src[f]), root(C.mor_dst[f])
        if rx != ry and find_iso(C, f) is not None:
            parent[max(rx, ry)] = min(rx, ry)

    groups: dict[int, list[int]] = {}
    for x in range(C.n_objects):
        groups.setdefault(root(x), []).append(x)
    classes = [tuple(sorted(v)) for v in groups.values()]
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


# ---------------------------------------------------------------------------
# functors


@dataclass(frozen=True, eq=False)
class Functor:
    source: FinCat
    target: FinCat
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]
    name: str = ""

    def __repr__(self) -> str:
        label = self.name or "functor"
        return f"Functor({label}: {self.source.name} -> {self.target.name})"


# Functors that passed check_functor and whose maps are tuples, so that the
# verdict still holds: a FinCat's tables are tuples too.  Held weakly, as is
# the record of accepted certificates below, so neither keeps a category
# alive.
_checked_functors: weakref.WeakSet[Functor] = weakref.WeakSet()


def check_functor(F: Functor) -> None:
    C, D = F.source, F.target
    if len(F.obj_map) != C.n_objects or len(F.mor_map) != C.n_morphisms:
        raise IllTypedImage("functor tables do not cover the source category")
    for x in range(C.n_objects):
        if not (0 <= F.obj_map[x] < D.n_objects):
            raise IllTypedImage(f"image of object {C.objects[x]} is out of range")
    obj_map, m = F.obj_map, D.n_morphisms
    for f, ff in enumerate(F.mor_map):
        if not (0 <= ff < m):
            raise IllTypedImage(f"image of {C.mor_labels[f]} is out of range")
        if (
            D.mor_src[ff] != obj_map[C.mor_src[f]]
            or D.mor_dst[ff] != obj_map[C.mor_dst[f]]
        ):
            raise IllTypedImage(
                f"image of {C.mor_labels[f]} has the wrong endpoints"
            )
    # in a thin target the image of an identity, and both images of a
    # composite, lie in a hom-set that holds one arrow
    if D.order_scan[0] is None:
        for x in range(C.n_objects):
            if F.mor_map[C.identity[x]] != D.identity[F.obj_map[x]]:
                raise IdentityNotPreserved(
                    f"identity of {C.objects[x]} is not sent to an identity"
                )
        mor_map, out_of = F.mor_map, C.out_of
        for f, row in enumerate(C.comp_table):
            image_row = D.comp_table[mor_map[f]]
            for g in out_of[C.mor_dst[f]]:
                if image_row[mor_map[g]] != mor_map[row[g]]:
                    raise CompositionNotPreserved(
                        f"composite {C.mor_labels[f]};{C.mor_labels[g]} is not preserved"
                    )
    if type(F.obj_map) is tuple and type(F.mor_map) is tuple:
        _checked_functors.add(F)


def functor(
    source: FinCat,
    target: FinCat,
    obj_map: list[int] | tuple[int, ...],
    mor_map: list[int] | tuple[int, ...],
    name: str = "",
) -> Functor:
    F = Functor(source, target, tuple(obj_map), tuple(mor_map), name)
    check_functor(F)
    return F


def identity_functor(C: FinCat) -> Functor:
    return Functor(
        C, C, tuple(range(C.n_objects)), tuple(range(C.n_morphisms)), f"id_{C.name}"
    )


def compose_functors(F: Functor, G: Functor, name: str = "") -> Functor:
    """Diagrammatic: F then G."""
    if F.target is not G.source and not same_tables(F.target, G.source):
        raise IllTypedImage("functors are not composable")
    return Functor(
        F.source,
        G.target,
        tuple(G.obj_map[x] for x in F.obj_map),
        tuple(G.mor_map[f] for f in F.mor_map),
        name or f"{F.name};{G.name}",
    )


def functors_equal(F: Functor, G: Functor) -> bool:
    return F.obj_map == G.obj_map and F.mor_map == G.mor_map


# ---------------------------------------------------------------------------
# natural isomorphisms


@dataclass(frozen=True, eq=False)
class NatIso:
    """Natural isomorphism between parallel functors, one component iso per
    source object, components living in the shared target category."""

    source: Functor
    target: Functor
    components: tuple[Iso, ...]


def check_nat_iso(alpha: NatIso) -> None:
    """Check that F and G send every morphism between the images of its
    ends, before any image is read, then each component, an iso from F(x)
    to G(x) with its inverse, and then each naturality square.  When the
    target is thin every square commutes: both of its paths are arrows of
    one hom-set, which holds one arrow."""
    F, G = alpha.source, alpha.target
    C, D = F.source, F.target
    if G.source is not C and not same_tables(G.source, C):
        raise NaturalitySquareFails("functors are not parallel")
    for H, end in ((F, "source"), (G, "target")):
        if not _sends_between_images(H, D):
            raise IllTypedImage(f"{end} functor {H.name} has an image out of range or ill-typed")
    if len(alpha.components) != C.n_objects:
        raise ComponentNotIso("one component per source object is required")
    for x in range(C.n_objects):
        comp = alpha.components[x]
        fwd = comp.fwd
        if not D.has_morphisms(fwd):
            raise ComponentNotIso(
                f"component at {C.objects[x]} is not a morphism of the target"
            )
        if D.mor_src[fwd] != F.obj_map[x] or D.mor_dst[fwd] != G.obj_map[x]:
            raise ComponentNotIso(
                f"component at {C.objects[x]} has the wrong endpoints"
            )
        found = find_iso(D, fwd)
        if found is None or found.inv != comp.inv:
            raise ComponentNotIso(
                f"component at {C.objects[x]} is not an isomorphism"
            )
    if D.order_scan[0] is not None:
        return
    for f in range(C.n_morphisms):
        x, y = C.mor_src[f], C.mor_dst[f]
        left = D.compose(F.mor_map[f], alpha.components[y].fwd)
        right = D.compose(alpha.components[x].fwd, G.mor_map[f])
        if left != right:
            raise NaturalitySquareFails(
                f"naturality square for {C.mor_labels[f]} does not commute"
            )


def _sends_between_images(F: Functor, D: FinCat) -> bool:
    """Whether F's maps cover its source and F sends every morphism to a
    morphism of D from the image of its source to the image of its target;
    every object is the source of its identity, so its image is in range."""
    C, obj_map, m = F.source, F.obj_map, D.n_morphisms
    return len(obj_map) == C.n_objects and len(F.mor_map) == C.n_morphisms and all(
        0 <= h < m and D.mor_src[h] == obj_map[x] and D.mor_dst[h] == obj_map[y]
        for h, x, y in zip(F.mor_map, C.mor_src, C.mor_dst)
    )


def nat_iso(F: Functor, G: Functor, fwd_components: list[int]) -> NatIso:
    """Build a NatIso from forward components, computing inverses; raises if
    some component is not invertible or a square fails."""
    D = F.target
    comps = []
    for x, fwd in enumerate(fwd_components):
        iso = find_iso(D, fwd)
        if iso is None:
            raise ComponentNotIso(
                f"component at {F.source.objects[x]} is not an isomorphism"
            )
        comps.append(iso)
    alpha = NatIso(F, G, tuple(comps))
    check_nat_iso(alpha)
    return alpha


# ---------------------------------------------------------------------------
# weak equivalences


@dataclass(frozen=True, eq=False)
class WeakEquivalenceCert:
    """Certificate that a functor is fully faithful and (split) essentially
    surjective.

    ff_witness inverts the morphism map hom-set by hom-set:
    ``ff_witness[(x, y)][h] = f`` with ``mor_map[f] = h``.  eso_witness picks,
    for every target object, a source object and an iso from its image;
    choices are deterministic (lowest object index, then lowest morphism
    index).  A certificate that :func:`is_weak_equivalence` builds, or that
    :func:`check_weak_equivalence_cert` records, holds its inverse tables
    read-only."""

    functor: Functor
    ff_witness: Mapping[tuple[int, int], Mapping[int, int]]
    eso_witness: tuple[tuple[int, Iso], ...]

    def ff_inverse(self, x: int, y: int, h: int) -> int:
        return self.ff_witness[(x, y)][h]

    @cached_property
    def quasi_inverse(self) -> Functor:
        """The functor back along the equivalence: each target object goes
        to its eso source object, each target morphism to the source
        morphism whose image is its conjugate by the eso isos.  Built from a
        checked certificate, it is fully faithful, so it reflects limits."""
        F = self.functor
        D = F.target
        eso = self.eso_witness
        mor_map = []
        for u in range(D.n_morphisms):
            (x1, i1), (x2, i2) = eso[D.mor_src[u]], eso[D.mor_dst[u]]
            mor_map.append(self.ff_inverse(x1, x2, D.compose_many(i1.fwd, u, i2.inv)))
        return Functor(D, F.source, tuple(x for x, _ in eso), tuple(mor_map), f"{F.name}^-1")


def is_fully_faithful(F: Functor) -> dict[tuple[int, int], Mapping[int, int]] | None:
    """Hom-set by hom-set bijectivity check; returns the inverse tables,
    each read-only, or None on the first failing hom-set.  Each source
    morphism ticks the search budget once, as far as the first repeated
    image."""
    C, obj_map, mor_map = F.source, F.obj_map, F.mor_map
    source_homs, target_homs = C.hom_map, F.target.hom_map
    out: dict[tuple[int, int], Mapping[int, int]] = {}
    for x in range(C.n_objects):
        fx = obj_map[x]
        for y in range(C.n_objects):
            source_hom = source_homs.get((x, y), ())
            target_size = len(target_homs.get((fx, obj_map[y]), ()))
            table: dict[int, int] = {}
            for f in source_hom:
                h = mor_map[f]
                if h in table:
                    budget_tick(len(table) + 1)
                    return None  # not faithful
                table[h] = f
            if source_hom:
                budget_tick(len(source_hom))
            if len(table) != target_size:
                return None  # not full
            out[(x, y)] = MappingProxyType(table)
    return out


def is_essentially_surjective(F: Functor) -> tuple[tuple[int, Iso], ...] | None:
    """For each target object, the least source object whose image is
    isomorphic to it, with the least such iso; None if some object is
    missed."""
    C, D = F.source, F.target
    down = D.order_scan[0]
    if down is not None:
        return _essentially_surjective_by_order(F, down)
    out = []
    for y in range(D.n_objects):
        hit = None
        for x in range(C.n_objects):
            iso = iso_between(D, F.obj_map[x], y)
            if iso is not None:
                hit = (x, iso)
                break
        if hit is None:
            return None
        out.append(hit)
    return tuple(out)


def _essentially_surjective_by_order(
    F: Functor, down: tuple[int, ...]
) -> tuple[tuple[int, Iso], ...] | None:
    """:func:`is_essentially_surjective` on a thin target with the given
    down-sets: F(x) is isomorphic to y when their down-sets are equal, and
    the iso is the one arrow each way."""
    D = F.target
    hom, n = D.hom_map, D.n_objects
    lowest: dict[int, int] = {}
    for x in range(F.source.n_objects):
        fx = F.obj_map[x]
        if 0 <= fx < n:
            lowest.setdefault(down[fx], x)
    out = []
    for y, d in enumerate(down):
        x = lowest.get(d)
        if x is None:
            return None
        fx = F.obj_map[x]
        out.append((x, Iso(hom[(fx, y)][0], hom[(y, fx)][0])))
    return tuple(out)


def is_weak_equivalence(F: Functor) -> WeakEquivalenceCert | None:
    """F's certificate, or None when F is not a weak equivalence.  When F
    passed :func:`check_functor`, the certificate is recorded as accepted,
    since it would pass :func:`check_weak_equivalence_cert`: F sends each
    hom-set into the hom-set of the images, so an inverse table as large as
    that hom-set covers it, and each eso iso is the one ``find_iso``
    returns."""
    ff = is_fully_faithful(F)
    if ff is None:
        return None
    eso = is_essentially_surjective(F)
    if eso is None:
        return None
    # nothing else holds the tables just built, so a read-only view freezes them
    cert = WeakEquivalenceCert(F, MappingProxyType(ff), eso)
    if F in _checked_functors:
        _accepted_certs.add(cert)
    return cert


# Certificates that passed check_weak_equivalence_cert, or that
# is_weak_equivalence built from a checked functor, and that nothing can
# change: each field is a tuple or read-only, and so are its functor's maps.
_accepted_certs: weakref.WeakSet[WeakEquivalenceCert] = weakref.WeakSet()


def _accept(cert: WeakEquivalenceCert) -> None:
    """Record a certificate that passed the check, its inverse tables
    replaced by read-only copies, which no caller holds; one whose functor
    maps or eso witness are not tuples could change, and is not recorded."""
    F, eso = cert.functor, cert.eso_witness
    if (
        type(F.obj_map) is tuple and type(F.mor_map) is tuple
        and type(eso) is tuple and all(type(e) is tuple for e in eso)
    ):
        frozen = {k: MappingProxyType(dict(v)) for k, v in cert.ff_witness.items()}
        object.__setattr__(cert, "ff_witness", MappingProxyType(frozen))
        _accepted_certs.add(cert)


def check_weak_equivalence_cert(cert: WeakEquivalenceCert) -> None:
    """Re-validate a certificate against its functor's tables.  A
    certificate accepted before (see :func:`is_weak_equivalence`) returns at
    once, and a functor checked before is not checked again; a certificate
    that passes here is recorded when nothing in it can change."""
    if cert in _accepted_certs:
        return
    F = cert.functor
    if F not in _checked_functors:
        check_functor(F)
    C, D = F.source, F.target
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            table = cert.ff_witness.get((x, y))
            if table is None:
                raise InvalidCert(f"ff witness missing hom-pair ({x},{y})")
            target_hom = D.hom(F.obj_map[x], F.obj_map[y])
            if sorted(table.keys()) != sorted(target_hom):
                raise InvalidCert(f"ff witness at ({x},{y}) does not cover the hom-set")
            for h, f in table.items():
                # a value outside hom(x, y), or outside C, inverts nothing
                if not C.has_morphisms(f) or C.mor_src[f] != x or C.mor_dst[f] != y:
                    raise InvalidCert(
                        f"ff witness at ({x},{y}) holds a morphism outside hom({x},{y})"
                    )
                if F.mor_map[f] != h:
                    raise InvalidCert(f"ff witness at ({x},{y}) is not a section")
            # the values are distinct, since their images are; so F is
            # injective on hom(x, y) when they are all of it
            if len(C.hom(x, y)) != len(table):
                raise InvalidCert(f"functor is not faithful on hom({x},{y})")
    if len(cert.eso_witness) != D.n_objects:
        raise InvalidCert("eso witness does not cover the target objects")
    for y, (x, iso) in enumerate(cert.eso_witness):
        if (
            not (0 <= x < C.n_objects and D.has_morphisms(iso.fwd))
            or D.mor_src[iso.fwd] != F.obj_map[x] or D.mor_dst[iso.fwd] != y
        ):
            raise InvalidCert(f"eso witness for object {y} is ill-typed")
        if find_iso(D, iso.fwd) != iso:
            raise InvalidCert(f"eso witness for object {y} is not an iso")
    _accept(cert)


# ---------------------------------------------------------------------------
# opposite category


def opposite(C: FinCat) -> FinCat:
    """Swap sources and targets; composition transposes.  Involutive on the
    nose (same indices, same labels).  The transpose of valid tables is
    valid, so no re-check is run here."""
    m = C.n_morphisms
    table = tuple(
        tuple(C.comp_table[g][f] for g in range(m)) for f in range(m)
    )
    return FinCat(
        name=f"{C.name}^op",
        objects=C.objects,
        mor_labels=C.mor_labels,
        mor_src=C.mor_dst,
        mor_dst=C.mor_src,
        identity=C.identity,
        comp_table=table,
    )


def opposite_functor(F: Functor) -> Functor:
    return Functor(
        opposite(F.source),
        opposite(F.target),
        F.obj_map,
        F.mor_map,
        f"{F.name}^op" if F.name else "",
    )
