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
from dataclasses import dataclass
from functools import cached_property

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

_budget = threading.local()


def set_search_budget(limit: int | None) -> None:
    _budget.limit = limit
    _budget.used = 0


def budget_tick(n: int = 1) -> None:
    limit = getattr(_budget, "limit", None)
    if limit is None:
        return
    _budget.used = getattr(_budget, "used", 0) + n
    if _budget.used > limit:
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

    def src(self, f: int) -> int:
        return self.mor_src[f]

    def dst(self, f: int) -> int:
        return self.mor_dst[f]

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

    def object_index(self, label: str) -> int:
        return self.objects.index(label)

    def morphism_index(self, label: str) -> int:
        return self.mor_labels.index(label)

    def __repr__(self) -> str:
        return f"FinCat({self.name!r}, {self.n_objects} objects, {self.n_morphisms} morphisms)"


def check_category_tables(C: FinCat) -> None:
    """Exhaustively verify the category laws on the tables.

    Raises a CategoryValidationError subclass naming the first offending
    entry; returns None when everything holds.
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
    for f in range(m):
        for g in range(m):
            fg = C.comp_table[f][g]
            if C.mor_dst[f] != C.mor_src[g]:
                if fg is not None:
                    raise IllTypedComposite(
                        f"{C.mor_labels[f]} then {C.mor_labels[g]} is not composable "
                        "but the table defines it"
                    )
                continue
            if fg is None:
                raise MissingComposite(
                    f"composite of {C.mor_labels[f]} then {C.mor_labels[g]} is missing"
                )
            if C.mor_src[fg] != C.mor_src[f] or C.mor_dst[fg] != C.mor_dst[g]:
                raise IllTypedComposite(
                    f"composite {C.mor_labels[f]};{C.mor_labels[g]} = {C.mor_labels[fg]} "
                    f"is ill-typed"
                )
    for f in range(m):
        i_s, i_t = C.identity[C.mor_src[f]], C.identity[C.mor_dst[f]]
        if C.comp_table[i_s][f] != f:
            raise UnitLawViolation(
                f"({C.mor_labels[i_s]}, {C.mor_labels[f]}): left unit law fails"
            )
        if C.comp_table[f][i_t] != f:
            raise UnitLawViolation(
                f"({C.mor_labels[f]}, {C.mor_labels[i_t]}): right unit law fails"
            )
    for f in range(m):
        for g in range(m):
            if C.mor_dst[f] != C.mor_src[g]:
                continue
            fg = C.comp_table[f][g]
            for h in range(m):
                if C.mor_dst[g] != C.mor_src[h]:
                    continue
                gh = C.comp_table[g][h]
                if C.comp_table[fg][h] != C.comp_table[f][gh]:
                    raise AssociativityViolation(
                        f"({C.mor_labels[f]}, {C.mor_labels[g]}, {C.mor_labels[h]}): "
                        "associativity fails"
                    )


def fincat(
    name: str,
    objects: list[str] | tuple[str, ...],
    mor_labels: list[str] | tuple[str, ...],
    mor_src: list[int],
    mor_dst: list[int],
    identity: list[int],
    comp: dict[tuple[int, int], int],
) -> FinCat:
    """Assemble and fully check a category from sparse composition data."""
    m = len(mor_labels)
    table = [[None] * m for _ in range(m)]
    for (f, g), fg in comp.items():
        table[f][g] = fg
    # identity composites follow from the unit laws; fill the gaps
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
    for obj_map in itertools.permutations(range(b.n_objects)):
        budget_tick()
        ok = True
        for (x, y), fs in a.hom_map.items():
            if hom_sizes_b.get((obj_map[x], obj_map[y]), 0) != len(fs):
                ok = False
                break
        if not ok:
            continue
        mor_map: list[int | None] = [None] * a.n_morphisms
        used: set[int] = set()

        def assign(f: int) -> bool:
            if f == a.n_morphisms:
                return True
            cands = b.hom(obj_map[a.mor_src[f]], obj_map[a.mor_dst[f]])
            for img in cands:
                if img in used:
                    continue
                if a.is_identity(f) != b.is_identity(img):
                    continue
                mor_map[f] = img
                used.add(img)
                consistent = True
                for g in range(f + 1):
                    if a.mor_dst[g] == a.mor_src[f] and mor_map[g] is not None:
                        gi = mor_map[g]
                        comp_a = a.comp_table[g][f]
                        if comp_a is not None and mor_map[comp_a] is not None:
                            if b.comp_table[gi][img] != mor_map[comp_a]:
                                consistent = False
                    if not consistent:
                        break
                    if a.mor_dst[f] == a.mor_src[g] and mor_map[g] is not None:
                        gi = mor_map[g]
                        comp_a = a.comp_table[f][g]
                        if comp_a is not None and mor_map[comp_a] is not None:
                            if b.comp_table[img][gi] != mor_map[comp_a]:
                                consistent = False
                    if not consistent:
                        break
                if consistent and assign(f + 1):
                    return True
                used.discard(img)
                mor_map[f] = None
            return False

        if assign(0):
            mm = tuple(x for x in mor_map if x is not None)
            # full re-check: identities and all composites
            good = all(
                mm[a.identity[x]] == b.identity[obj_map[x]] for x in range(a.n_objects)
            )
            if good:
                for f in range(a.n_morphisms):
                    for g in range(a.n_morphisms):
                        c = a.comp_table[f][g]
                        if c is not None and b.comp_table[mm[f]][mm[g]] != mm[c]:
                            good = False
                            break
                    if not good:
                        break
            if good:
                return obj_map, mm
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
    ascending, classes ordered by least member."""
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

    def on_obj(self, x: int) -> int:
        return self.obj_map[x]

    def on_mor(self, f: int) -> int:
        return self.mor_map[f]

    def __repr__(self) -> str:
        label = self.name or "functor"
        return f"Functor({label}: {self.source.name} -> {self.target.name})"


def check_functor(F: Functor) -> None:
    C, D = F.source, F.target
    if len(F.obj_map) != C.n_objects or len(F.mor_map) != C.n_morphisms:
        raise IllTypedImage("functor tables do not cover the source category")
    for x in range(C.n_objects):
        if not (0 <= F.obj_map[x] < D.n_objects):
            raise IllTypedImage(f"image of object {C.objects[x]} is out of range")
    for f in range(C.n_morphisms):
        ff = F.mor_map[f]
        if not (0 <= ff < D.n_morphisms):
            raise IllTypedImage(f"image of {C.mor_labels[f]} is out of range")
        if (
            D.mor_src[ff] != F.obj_map[C.mor_src[f]]
            or D.mor_dst[ff] != F.obj_map[C.mor_dst[f]]
        ):
            raise IllTypedImage(
                f"image of {C.mor_labels[f]} has the wrong endpoints"
            )
    for x in range(C.n_objects):
        if F.mor_map[C.identity[x]] != D.identity[F.obj_map[x]]:
            raise IdentityNotPreserved(
                f"identity of {C.objects[x]} is not sent to an identity"
            )
    for f in range(C.n_morphisms):
        for g in range(C.n_morphisms):
            fg = C.comp_table[f][g]
            if fg is None:
                continue
            if D.comp_table[F.mor_map[f]][F.mor_map[g]] != F.mor_map[fg]:
                raise CompositionNotPreserved(
                    f"composite {C.mor_labels[f]};{C.mor_labels[g]} is not preserved"
                )


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
    F, G = alpha.source, alpha.target
    C, D = F.source, F.target
    if G.source is not C and not same_tables(G.source, C):
        raise NaturalitySquareFails("functors are not parallel")
    if len(alpha.components) != C.n_objects:
        raise ComponentNotIso("one component per source object is required")
    for x in range(C.n_objects):
        comp = alpha.components[x]
        fwd = comp.fwd
        if D.mor_src[fwd] != F.obj_map[x] or D.mor_dst[fwd] != G.obj_map[x]:
            raise ComponentNotIso(
                f"component at {C.objects[x]} has the wrong endpoints"
            )
        found = find_iso(D, fwd)
        if found is None or found.inv != comp.inv:
            raise ComponentNotIso(
                f"component at {C.objects[x]} is not an isomorphism"
            )
    for f in range(C.n_morphisms):
        x, y = C.mor_src[f], C.mor_dst[f]
        left = D.compose(F.mor_map[f], alpha.components[y].fwd)
        right = D.compose(alpha.components[x].fwd, G.mor_map[f])
        if left != right:
            raise NaturalitySquareFails(
                f"naturality square for {C.mor_labels[f]} does not commute"
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


def nat_isos_between(F: Functor, G: Functor) -> list[NatIso]:
    """Exhaustive enumeration of all natural isomorphisms F => G.  Desk-scale
    only; the component search space is the product of iso sets."""
    C, D = F.source, F.target
    candidate_sets = []
    for x in range(C.n_objects):
        cands = isos_between(D, F.obj_map[x], G.obj_map[x])
        if not cands:
            return []
        candidate_sets.append(cands)
    out = []
    for combo in itertools.product(*candidate_sets):
        budget_tick()
        ok = True
        for f in range(C.n_morphisms):
            x, y = C.mor_src[f], C.mor_dst[f]
            if D.compose(F.mor_map[f], combo[y].fwd) != D.compose(
                combo[x].fwd, G.mor_map[f]
            ):
                ok = False
                break
        if ok:
            out.append(NatIso(F, G, tuple(combo)))
    return out


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
    index)."""

    functor: Functor
    ff_witness: dict[tuple[int, int], dict[int, int]]
    eso_witness: tuple[tuple[int, Iso], ...]

    def ff_inverse(self, x: int, y: int, h: int) -> int:
        return self.ff_witness[(x, y)][h]


def is_fully_faithful(F: Functor) -> dict[tuple[int, int], dict[int, int]] | None:
    """Hom-set by hom-set bijectivity check; returns the inverse tables or
    None on the first failing hom-set."""
    C, D = F.source, F.target
    out: dict[tuple[int, int], dict[int, int]] = {}
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            source_hom = C.hom(x, y)
            target_hom = D.hom(F.obj_map[x], F.obj_map[y])
            table: dict[int, int] = {}
            for f in source_hom:
                budget_tick()
                h = F.mor_map[f]
                if h in table:
                    return None  # not faithful
                table[h] = f
            if len(table) != len(target_hom):
                return None  # not full
            out[(x, y)] = table
    return out


def is_essentially_surjective(F: Functor) -> tuple[tuple[int, Iso], ...] | None:
    """For each target object, the least source object whose image is
    isomorphic to it, with the least such iso; None if some object is
    missed."""
    C, D = F.source, F.target
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


def is_weak_equivalence(F: Functor) -> WeakEquivalenceCert | None:
    ff = is_fully_faithful(F)
    if ff is None:
        return None
    eso = is_essentially_surjective(F)
    if eso is None:
        return None
    return WeakEquivalenceCert(F, ff, eso)


def check_weak_equivalence_cert(cert: WeakEquivalenceCert) -> None:
    """Re-validate a certificate against its functor's tables."""
    F = cert.functor
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
                if F.mor_map[f] != h:
                    raise InvalidCert(f"ff witness at ({x},{y}) is not a section")
    if len(cert.eso_witness) != D.n_objects:
        raise InvalidCert("eso witness does not cover the target objects")
    for y, (x, iso) in enumerate(cert.eso_witness):
        if D.mor_src[iso.fwd] != F.obj_map[x] or D.mor_dst[iso.fwd] != y:
            raise InvalidCert(f"eso witness for object {y} is ill-typed")
        if find_iso(D, iso.fwd) != iso:
            raise InvalidCert(f"eso witness for object {y} is not an iso")


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
