"""The category and functor laws checked by brute force over every pair and
triple of morphisms: the oracles that the composable-tuple walks in
``catkit.core`` are compared against.  They do not tick the search budget,
and an out-of-range composite makes them raise IndexError.  The generating
set whose members are the only middles ``catkit.core`` checks associativity
at, by its definition, and the triples through those middles.  Beside them,
the loader's composition pass label by label, which the one-lookup-per-label
pass in ``catkit.interchange`` is compared against; handed to
``catkit.core.fincat``, its composites make the generic route that the
loader's own rows, typed as it writes them, are compared against.  Last,
the two routes that the walks over composable pairs alone replaced: the
composition block written by visiting every pair of morphisms, and
``tabulate`` storing its composites by key for ``fincat``."""
from dataclasses import replace

from catkit.core import FinCat, Functor, fincat
from catkit.errors import (
    AssociativityViolation,
    CompositionNotPreserved,
    DanglingReference,
    IdentityNotPreserved,
    IllTypedComposite,
    IllTypedImage,
    MalformedInput,
    MissingComposite,
    MissingIdentity,
    UnitLawViolation,
)


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


def is_thin(C: FinCat) -> bool:
    """Whether no two distinct morphisms share their source and target."""
    ends = list(zip(C.mor_src, C.mor_dst))
    return not any(ends[f] == ends[g] for f in range(len(ends)) for g in range(f))


def composable_triples(C: FinCat) -> int:
    """The number of composable triples (f, g, h), counted over all m^3."""
    m = range(C.n_morphisms)
    return sum(
        C.mor_dst[f] == C.mor_src[g] and C.mor_dst[g] == C.mor_src[h]
        for f in m for g in m for h in m
    )


def composites(C: FinCat, members) -> set[int]:
    """Every left-to-right composite ``s1;s2;...;sk`` (k >= 1) of the
    members through the table, closed by brute force over all pairs."""
    words = set(members)
    while True:
        new = {
            C.comp_table[u][s] for u in words for s in members
            if C.mor_dst[u] == C.mor_src[s]
        } - words
        if not new:
            return words
        words |= new


def generating_set(C: FinCat) -> list[int]:
    """The associativity check's middles by their definition: each
    non-identity morphism, in index order, that is not a composite of the
    members before it, the composites of each prefix closed afresh."""
    members: list[int] = []
    for f in range(C.n_morphisms):
        if not C.is_identity(f) and f not in composites(C, members):
            members.append(f)
    return members


def generator_middle_triples(C: FinCat) -> int:
    """The number of composable triples (f, g, h) whose middle g is in the
    generating set, counted over all m^2 ends of each middle."""
    m = range(C.n_morphisms)
    return sum(
        C.mor_dst[f] == C.mor_src[g] and C.mor_dst[g] == C.mor_src[h]
        for g in generating_set(C) for f in m for h in m
    )


def first_associativity_offence(C: FinCat) -> tuple[int, int, int] | None:
    """The first (f, g, h) in index order at which associativity fails."""
    m = range(C.n_morphisms)
    for f in m:
        for g in m:
            for h in m:
                if C.mor_dst[f] == C.mor_src[g] and C.mor_dst[g] == C.mor_src[h]:
                    if C.comp_table[C.comp_table[f][g]][h] != C.comp_table[f][C.comp_table[g][h]]:
                        return f, g, h
    return None


def with_entry(C: FinCat, f: int, g: int, value) -> FinCat:
    """C with the composite of f then g set to value, built unchecked."""
    table = [list(row) for row in C.comp_table]
    table[f][g] = value
    return replace(C, comp_table=tuple(map(tuple, table)))


def resolve_composition(raw_comp: list, mor_index: dict, srcs, dsts) -> dict:
    """The composition block of a category document as ``{(f, g): fg}``,
    each entry typed and resolved one label at a time; raises on the first
    offence what ``validate_category`` raises for it."""
    comp = {}
    for k, triple in enumerate(raw_comp):
        ptr = f"/composition/{k}"
        if not (isinstance(triple, list) and len(triple) == 3):
            raise MalformedInput("composition entries are [f, g, fg] triples", pointer=ptr)
        ids = []
        for j, mid in enumerate(triple):
            if not isinstance(mid, str):
                raise MalformedInput("composition entries must be labels", pointer=f"{ptr}/{j}")
            if mid not in mor_index:
                raise DanglingReference(f"unknown morphism {mid!r}", pointer=ptr)
            ids.append(mor_index[mid])
        f, g, fg = ids
        if dsts[f] != srcs[g]:
            raise IllTypedComposite(
                f"{triple[0]!r} then {triple[1]!r} is not composable", pointer=ptr
            )
        if srcs[fg] != srcs[f] or dsts[fg] != dsts[g]:
            raise IllTypedComposite(
                f"composite {triple[2]!r} has the wrong endpoints", pointer=ptr
            )
        if (f, g) in comp and comp[(f, g)] != fg:
            raise IllTypedComposite(
                f"conflicting composite for ({triple[0]!r}, {triple[1]!r})", pointer=ptr
            )
        comp[(f, g)] = fg
    return comp


def composition_block(C: FinCat) -> list[list[str]]:
    """The composition block of C's document by the walk over all m^2 pairs
    of morphisms: each pair of non-identity morphisms with a composite, rows
    then columns in index order, as a label triple."""
    ident, labels, m = set(C.identity), C.mor_labels, range(C.n_morphisms)
    return [
        [labels[f], labels[g], labels[fg]]
        for f in m for g in m
        if (fg := C.comp_table[f][g]) is not None and f not in ident and g not in ident
    ]


def tabulate_by_keys(name, objects, entries, mor_src, mor_dst, mor_labels, identity, compose):
    """``core.tabulate`` through ``core.fincat``: each composite stored at
    its ``(i, j)`` key, which fincat range-checks and copies into its row."""
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
