"""Example and corpus factories.

Everything built here goes through the checked :func:`catkit.core.fincat`
constructor, so every generator output satisfies the category laws by the
time it is returned.  A construction whose morphisms are entries of its own
(pairs, functions, relations, paths) lists them and its composition rule,
and :func:`catkit.core.tabulate` assembles the tables; only the fixed
literal shapes call ``fincat`` directly.
"""
from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .completion import full_subcategory, inflate
from .core import (
    FinCat,
    Functor,
    check_functor,
    fincat,
    functor,
    identity_functor,
    tabulate,
)
from .errors import (
    AxiomViolation,
    CategoryValidationError,
    FunctorValidationError,
    MalformedInput,
    MonadLawViolation,
    SizeBoundExceeded,
)

# ---------------------------------------------------------------------------
# tiny fixed shapes


def terminal_cat() -> FinCat:
    return fincat("terminal", ["*"], ["id_*"], [0], [0], [0], {})


def discrete(n: int) -> FinCat:
    labels = [f"x{i}" for i in range(n)]
    ids = [f"id_x{i}" for i in range(n)]
    return fincat(f"discrete{n}", labels, ids, list(range(n)), list(range(n)), list(range(n)), {})


def walking_iso() -> FinCat:
    # two objects, one iso pair, f;g = id_a and g;f = id_b
    return fincat(
        "walking-iso",
        ["a", "b"],
        ["id_a", "id_b", "f", "g"],
        [0, 1, 0, 1],
        [0, 1, 1, 0],
        [0, 1],
        {(2, 3): 0, (3, 2): 1},
    )


# ---------------------------------------------------------------------------
# preorders and posets


def preorder_cat(elements: list[str], leq: set[tuple[str, str]], name: str = "preorder") -> FinCat:
    """Thin category of a reflexive transitive relation; at most one morphism
    per ordered pair."""
    idx = {e: i for i, e in enumerate(elements)}
    if len(idx) != len(elements):
        raise MalformedInput("preorder elements must be distinct")
    rel = {(idx[a], idx[b]) for a, b in leq}
    for i in range(len(elements)):
        if (i, i) not in rel:
            raise MalformedInput(f"relation is not reflexive at {elements[i]!r}")
    for (a, b) in rel:
        for (c, d) in rel:
            if b == c and (a, d) not in rel:
                raise MalformedInput(
                    f"relation is not transitive: {elements[a]!r} <= {elements[b]!r} <= {elements[d]!r}"
                )
    pairs = sorted(rel)
    labels = [f"le_{elements[a]}_{elements[b]}" for a, b in pairs]
    return _thin(name, elements, pairs, labels)


def _thin(name: str, elements: list[str], pairs: list[tuple[int, int]], labels: list[str]) -> FinCat:
    """The thin category of a reflexive transitive relation, given as its
    sorted pairs of element indices: one morphism per pair."""
    return tabulate(
        name,
        elements,
        pairs,
        [a for a, _ in pairs],
        [b for _, b in pairs],
        labels,
        [(i, i) for i in range(len(elements))],
        lambda ab, bd: (ab[0], bd[1]),
    )[0]


def chain_poset(n: int) -> FinCat:
    els = [f"c{i}" for i in range(n)]
    leq = {(els[i], els[j]) for i in range(n) for j in range(n) if i <= j}
    return preorder_cat(els, leq, name=f"chain{n}")


def poset_from_pairs(elements: list[str], strict: set[tuple[str, str]], name: str) -> FinCat:
    """Reflexive-transitive closure of the given strict pairs."""
    rel = set(strict) | {(e, e) for e in elements}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return preorder_cat(elements, rel, name=name)


# ---------------------------------------------------------------------------
# groupoids


def setoid_groupoid(n: int, pairs: set[tuple[int, int]], name: str = "setoid") -> FinCat:
    """Groupoid of an equivalence relation: the thin category of the
    relation, one morphism per related pair."""
    # symmetric-transitive-reflexive closure via union-find
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    related = sorted(
        (a, b) for a in range(n) for b in range(n) if root(a) == root(b)
    )
    return _thin(name, [f"s{i}" for i in range(n)], related, [f"r_{a}_{b}" for a, b in related])


def delooping(table: list[list[int]], name: str = "delooping") -> FinCat:
    """One-object category of a finite monoid given by its multiplication
    table; ``table[a][b]`` is "a then b".  The unit is detected, and a table
    without one raises MalformedInput; :func:`fincat` checks the rest, so a
    unital table that is not associative raises AssociativityViolation."""
    m = len(table)
    unit = None
    for e in range(m):
        if all(table[e][a] == a and table[a][e] == a for a in range(m)):
            unit = e
            break
    if unit is None:
        raise MalformedInput("multiplication table has no unit")
    labels = [f"m{a}" if a != unit else "e" for a in range(m)]
    comp = {(a, b): table[a][b] for a in range(m) for b in range(m)}
    return fincat(name, ["*"], labels, [0] * m, [0] * m, [unit], comp)


# ---------------------------------------------------------------------------
# a fragment of finite sets


@lru_cache(maxsize=8)
def finset_fragment(max_card: int) -> FinCat:
    """Full subcategory of finite sets on one set of each size up to
    max_card, with all functions between them.

    Only max_card = 0 is a topos, and a degenerate one.  For max_card >= 2
    the product max_card x max_card would need max_card**2 global points, so
    it is missing, and with it the pullbacks over 1 that it would be; for
    max_card = 1 there is no subobject classifier, which needs an object
    with two global points."""
    sizes = range(max_card + 1)
    fns = [
        (a, b, images)
        for a in sizes
        for b in sizes
        for images in itertools.product(range(b), repeat=a)
    ]
    return tabulate(
        f"finset<={max_card}",
        [str(k) for k in sizes],
        fns,
        [a for a, _, _ in fns],
        [b for _, b, _ in fns],
        [f"f{a}{b}_{''.join(map(str, images))}" for a, b, images in fns],
        [(a, a, tuple(range(a))) for a in sizes],
        lambda f, g: (f[0], g[1], tuple(g[2][v] for v in f[2])),
    )[0]


def finset_function(C: FinCat, a: int, b: int, images: tuple[int, ...]) -> int:
    """Morphism index of a concrete function in a finset fragment."""
    img = "".join(str(i) for i in images)
    return C.mor_labels.index(f"f{a}{b}_{img}")


# ---------------------------------------------------------------------------
# functor categories


def functor_category(A: FinCat, C: FinCat, name: str = "") -> tuple[FinCat, list[Functor]]:
    """The category of all functors A -> C and natural transformations.

    Guarded to sources with at most two objects; the composition table is
    quadratic in the number of transformations.
    """
    if A.n_objects > 2:
        raise SizeBoundExceeded("functor categories are built only for sources with <= 2 objects")
    non_id = [f for f in range(A.n_morphisms) if not A.is_identity(f)]
    functors: list[Functor] = []
    for obj_map in itertools.product(range(C.n_objects), repeat=A.n_objects):
        cand_sets = []
        for f in non_id:
            cands = C.hom(obj_map[A.mor_src[f]], obj_map[A.mor_dst[f]])
            cand_sets.append(cands)
        total = 1
        for s in cand_sets:
            total *= len(s)
            if total > 200_000:
                raise SizeBoundExceeded("functor enumeration space too large")
        for choice in itertools.product(*cand_sets):
            mor_map = [0] * A.n_morphisms
            for x in range(A.n_objects):
                mor_map[A.identity[x]] = C.identity[obj_map[x]]
            for f, img in zip(non_id, choice):
                mor_map[f] = img
            F = Functor(A, C, tuple(obj_map), tuple(mor_map))
            try:
                check_functor(F)
            except FunctorValidationError:
                continue
            functors.append(F)
    if len(functors) > 128:
        raise SizeBoundExceeded("functor category would have too many objects")

    # natural transformations F => G: one component per A-object
    nts: list[tuple[int, int, tuple[int, ...]]] = []
    for i, F in enumerate(functors):
        for j, G in enumerate(functors):
            for comps in itertools.product(
                *(C.hom(F.obj_map[x], G.obj_map[x]) for x in range(A.n_objects))
            ):
                natural = True
                for f in range(A.n_morphisms):
                    x, y = A.mor_src[f], A.mor_dst[f]
                    if C.compose(F.mor_map[f], comps[y]) != C.compose(comps[x], G.mor_map[f]):
                        natural = False
                        break
                if natural:
                    nts.append((i, j, comps))
    if len(nts) > 2048:
        raise SizeBoundExceeded("functor category would have too many morphisms")
    cat, _ = tabulate(
        name or f"[{A.name},{C.name}]",
        [f"F{i}" for i in range(len(functors))],
        nts,
        [i for i, _, _ in nts],
        [j for _, j, _ in nts],
        [f"nt{k}" for k in range(len(nts))],
        [(i, i, tuple(C.identity[x] for x in F.obj_map)) for i, F in enumerate(functors)],
        lambda s, t: (s[0], t[1], tuple(C.compose(f, g) for f, g in zip(s[2], t[2]))),
    )
    return cat, functors


# ---------------------------------------------------------------------------
# monads, Kleisli categories, idempotent splitting


@dataclass(frozen=True, eq=False)
class MonadW:
    """A monad on a finite category: endofunctor with unit and
    multiplication components, all laws checked exhaustively."""

    T: Functor
    unit: tuple[int, ...]   # per object x: x -> T x
    mult: tuple[int, ...]   # per object x: T T x -> T x


def check_monad(m: MonadW) -> None:
    T = m.T
    C = T.source
    if T.target is not C:
        raise MonadLawViolation("monad functor must be an endofunctor")
    check_functor(T)
    for x in range(C.n_objects):
        u = m.unit[x]
        if C.mor_src[u] != x or C.mor_dst[u] != T.obj_map[x]:
            raise MonadLawViolation(f"unit at {C.objects[x]} is ill-typed")
        mu = m.mult[x]
        ttx = T.obj_map[T.obj_map[x]]
        if C.mor_src[mu] != ttx or C.mor_dst[mu] != T.obj_map[x]:
            raise MonadLawViolation(f"multiplication at {C.objects[x]} is ill-typed")
    for f in range(C.n_morphisms):
        x, y = C.mor_src[f], C.mor_dst[f]
        if C.compose(f, m.unit[y]) != C.compose(m.unit[x], T.mor_map[f]):
            raise MonadLawViolation(f"unit is not natural at {C.mor_labels[f]}")
        TTf = T.mor_map[T.mor_map[f]]
        if C.compose(TTf, m.mult[y]) != C.compose(m.mult[x], T.mor_map[f]):
            raise MonadLawViolation(f"multiplication is not natural at {C.mor_labels[f]}")
    for x in range(C.n_objects):
        tx = T.obj_map[x]
        if C.compose(m.unit[tx], m.mult[x]) != C.identity[tx]:
            raise MonadLawViolation(f"left unit law fails at {C.objects[x]}")
        if C.compose(T.mor_map[m.unit[x]], m.mult[x]) != C.identity[tx]:
            raise MonadLawViolation(f"right unit law fails at {C.objects[x]}")
        if C.compose(T.mor_map[m.mult[x]], m.mult[x]) != C.compose(m.mult[tx], m.mult[x]):
            raise MonadLawViolation(f"associativity fails at {C.objects[x]}")


def identity_monad(C: FinCat) -> MonadW:
    m = MonadW(identity_functor(C), tuple(C.identity), tuple(C.identity))
    check_monad(m)
    return m


def kleisli(C: FinCat, m: MonadW) -> tuple[FinCat, Functor]:
    """Kleisli category: same objects, hom(x, y) := C(x, T y); returns it with
    the identity-on-objects embedding."""
    check_monad(m)
    T = m.T
    entries: list[tuple[int, int]] = []   # (underlying morphism, target object)
    for f in range(C.n_morphisms):
        for y in range(C.n_objects):
            if T.obj_map[y] == C.mor_dst[f]:
                entries.append((f, y))
    K, idx = tabulate(
        f"kleisli({C.name})",
        list(C.objects),
        entries,
        [C.mor_src[f] for f, _ in entries],
        [y for _, y in entries],
        [f"{C.mor_labels[f]}@{C.objects[y]}" for f, y in entries],
        [(m.unit[x], x) for x in range(C.n_objects)],
        lambda fy, gz: (C.compose_many(fy[0], T.mor_map[gz[0]], m.mult[gz[1]]), gz[1]),
    )
    embed = functor(
        C,
        K,
        list(range(C.n_objects)),
        [idx[(C.compose(f, m.unit[C.mor_dst[f]]), C.mor_dst[f])] for f in range(C.n_morphisms)],
        name="kleisli-embed",
    )
    return K, embed


def karoubi_envelope(C: FinCat) -> tuple[FinCat, Functor]:
    """Objects are the idempotents of C; hom(e1, e2) is every g absorbed by
    both sides (e1;g = g = g;e2).  Every idempotent splits here, and the
    embedding x |-> id_x is fully faithful."""
    idems = [
        f
        for f in range(C.n_morphisms)
        if C.mor_src[f] == C.mor_dst[f] and C.comp_table[f][f] == f
    ]
    obj_idx = {e: i for i, e in enumerate(idems)}
    entries: list[tuple[int, int, int]] = []   # (e1, e2, g)
    for e1 in idems:
        for e2 in idems:
            for g in C.hom(C.mor_src[e1], C.mor_src[e2]):
                if C.comp_table[e1][g] == g and C.comp_table[g][e2] == g:
                    entries.append((e1, e2, g))
    labels = C.mor_labels
    K, idx = tabulate(
        f"karoubi({C.name})",
        [f"[{labels[e]}]" for e in idems],
        entries,
        [obj_idx[e1] for e1, _, _ in entries],
        [obj_idx[e2] for _, e2, _ in entries],
        [f"[{labels[g]}:{labels[e1]}>{labels[e2]}]" for e1, e2, g in entries],
        [(e, e, e) for e in idems],
        lambda s, t: (s[0], t[1], C.comp_table[s[2]][t[2]]),
    )
    embed = functor(
        C,
        K,
        [obj_idx[C.identity[x]] for x in range(C.n_objects)],
        [idx[(C.identity[C.mor_src[f]], C.identity[C.mor_dst[f]], f)] for f in range(C.n_morphisms)],
        name="karoubi-embed",
    )
    return K, embed


def idempotent_splits(C: FinCat, e: int) -> tuple[int, int, int] | None:
    """Search for (y, pi, iota) with e = pi;iota and iota;pi = id_y."""
    x = C.mor_src[e]
    for y in range(C.n_objects):
        for pi in C.hom(x, y):
            for iota in C.hom(y, x):
                if (
                    C.comp_table[pi][iota] == e
                    and C.comp_table[iota][pi] == C.identity[y]
                ):
                    return (y, pi, iota)
    return None


# ---------------------------------------------------------------------------
# finite Heyting algebras and H-valued sets


@dataclass(frozen=True, eq=False)
class FiniteHeytingAlgebra:
    """Bounded lattice with implication; entries are element indices."""

    labels: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    imp: tuple[tuple[int, ...], ...]
    top: int
    bottom: int

    @property
    def n(self) -> int:
        return len(self.labels)


def check_heyting(H: FiniteHeytingAlgebra) -> None:
    n = H.n
    for a in range(n):
        if not (H.leq[H.bottom][a] and H.leq[a][H.top]):
            raise AxiomViolation("bottom/top are not extremal")
        if not H.leq[a][a]:
            raise AxiomViolation("order is not reflexive")
    for a in range(n):
        for b in range(n):
            if H.leq[a][b] and H.leq[b][a] and a != b:
                raise AxiomViolation("order is not antisymmetric")
            m, j = H.meet[a][b], H.join[a][b]
            if not (H.leq[m][a] and H.leq[m][b]):
                raise AxiomViolation("meet is not a lower bound")
            if not (H.leq[a][j] and H.leq[b][j]):
                raise AxiomViolation("join is not an upper bound")
            for c in range(n):
                if H.leq[c][a] and H.leq[c][b] and not H.leq[c][m]:
                    raise AxiomViolation("meet is not the greatest lower bound")
                if H.leq[a][c] and H.leq[b][c] and not H.leq[j][c]:
                    raise AxiomViolation("join is not the least upper bound")
                if H.leq[b][c] and H.leq[a][b] and not H.leq[a][c]:
                    raise AxiomViolation("order is not transitive")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                # residuation: c <= a -> b  iff  c /\ a <= b
                lhs = H.leq[c][H.imp[a][b]]
                rhs = H.leq[H.meet[c][a]][b]
                if lhs != rhs:
                    raise AxiomViolation("implication fails residuation")


def heyting_from_leq(labels: list[str], leq_pairs: set[tuple[str, str]]) -> FiniteHeytingAlgebra:
    """Build the algebra from a partial order, computing meets, joins and
    residuals; raises AxiomViolation when the order is not a Heyting lattice."""
    n = len(labels)
    idx = {l: i for i, l in enumerate(labels)}
    leq = [[False] * n for _ in range(n)]
    for a, b in leq_pairs:
        leq[idx[a]][idx[b]] = True
    for i in range(n):
        leq[i][i] = True
    # transitive closure
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True

    def glb(a: int, b: int) -> int:
        lowers = [c for c in range(n) if leq[c][a] and leq[c][b]]
        best = [c for c in lowers if all(leq[d][c] for d in lowers)]
        if len(best) != 1:
            raise AxiomViolation(f"no meet for {labels[a]}, {labels[b]}")
        return best[0]

    def lub(a: int, b: int) -> int:
        uppers = [c for c in range(n) if leq[a][c] and leq[b][c]]
        best = [c for c in uppers if all(leq[c][d] for d in uppers)]
        if len(best) != 1:
            raise AxiomViolation(f"no join for {labels[a]}, {labels[b]}")
        return best[0]

    meet = [[glb(a, b) for b in range(n)] for a in range(n)]
    join = [[lub(a, b) for b in range(n)] for a in range(n)]
    tops = [c for c in range(n) if all(leq[d][c] for d in range(n))]
    bots = [c for c in range(n) if all(leq[c][d] for d in range(n))]
    if len(tops) != 1 or len(bots) != 1:
        raise AxiomViolation("order is not bounded")

    def residual(a: int, b: int) -> int:
        cands = [c for c in range(n) if leq[meet[c][a]][b]]
        best = [c for c in cands if all(leq[d][c] for d in cands)]
        if len(best) != 1:
            raise AxiomViolation(f"no implication for {labels[a]} -> {labels[b]}")
        return best[0]

    imp = [[residual(a, b) for b in range(n)] for a in range(n)]
    H = FiniteHeytingAlgebra(
        tuple(labels),
        tuple(tuple(row) for row in leq),
        tuple(tuple(row) for row in meet),
        tuple(tuple(row) for row in join),
        tuple(tuple(row) for row in imp),
        tops[0],
        bots[0],
    )
    check_heyting(H)
    return H


def heyting_chain(n: int) -> FiniteHeytingAlgebra:
    labels = [f"h{i}" for i in range(n)]
    return heyting_from_leq(labels, {(labels[i], labels[j]) for i in range(n) for j in range(i, n)})


def heyting_diamond() -> FiniteHeytingAlgebra:
    """Four-element Boolean algebra: bottom, two incomparable middles, top."""
    labels = ["bot", "a", "b", "top"]
    pairs = {("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"), ("bot", "top")}
    return heyting_from_leq(labels, pairs)


def heyting_category(H: FiniteHeytingAlgebra) -> FinCat:
    pairs = {
        (H.labels[a], H.labels[b]) for a in range(H.n) for b in range(H.n) if H.leq[a][b]
    }
    return preorder_cat(list(H.labels), pairs, name="heyting")


def hvalued_sets(H: FiniteHeytingAlgebra, max_carrier: int = 2) -> FinCat:
    """Sets weighted by a finite Heyting algebra: objects are symmetric
    transitive H-valued equalities on small carriers, morphisms are the
    strict, congruent, single-valued, total H-valued relations."""

    def meet(a: int, b: int) -> int:
        return H.meet[a][b]

    def joins(vals: list[int]) -> int:
        out = H.bottom
        for v in vals:
            out = H.join[out][v]
        return out

    objects: list[tuple[int, tuple[tuple[int, ...], ...]]] = []
    for size in range(max_carrier + 1):
        cells = [(i, j) for i in range(size) for j in range(i, size)]
        for choice in itertools.product(range(H.n), repeat=len(cells)):
            eq = [[H.bottom] * size for _ in range(size)]
            for (i, j), v in zip(cells, choice):
                eq[i][j] = v
                eq[j][i] = v
            ok = True
            for a in range(size):
                for b in range(size):
                    for c in range(size):
                        if not H.leq[meet(eq[a][b], eq[b][c])][eq[a][c]]:
                            ok = False
            if ok:
                objects.append((size, tuple(tuple(r) for r in eq)))
        if len(objects) > 40:
            raise SizeBoundExceeded("too many H-valued sets; shrink H or the carrier bound")

    def is_morphism(X, Y, F) -> bool:
        sx, ex = X
        sy, ey = Y
        for a in range(sx):
            for b in range(sy):
                if not H.leq[F[a][b]][meet(ex[a][a], ey[b][b])]:
                    return False   # strictness
                for a2 in range(sx):
                    if not H.leq[meet(ex[a2][a], F[a][b])][F[a2][b]]:
                        return False   # congruence on the left
                for b2 in range(sy):
                    if not H.leq[meet(F[a][b], ey[b][b2])][F[a][b2]]:
                        return False   # congruence on the right
                    if not H.leq[meet(F[a][b], F[a][b2])][ey[b][b2]]:
                        return False   # single-valued
        for a in range(sx):
            if not H.leq[ex[a][a]][joins([F[a][b] for b in range(sy)])]:
                return False   # total
        return True

    entries: list[tuple[int, int, tuple[tuple[int, ...], ...]]] = []
    for i, X in enumerate(objects):
        for j, Y in enumerate(objects):
            sx, sy = X[0], Y[0]
            for choice in itertools.product(range(H.n), repeat=sx * sy):
                F = tuple(
                    tuple(choice[a * sy + b] for b in range(sy)) for a in range(sx)
                )
                if is_morphism(X, Y, F):
                    entries.append((i, j, F))
            if len(entries) > 3000:
                raise SizeBoundExceeded("too many H-valued morphisms")

    def compose_rel(s, t):
        (i, j, F), (_, l, G) = s, t
        sy, sz = objects[j][0], objects[l][0]
        return i, l, tuple(
            tuple(joins([meet(Fa[b], G[b][c]) for b in range(sy)]) for c in range(sz))
            for Fa in F
        )

    return tabulate(
        f"hsets({H.n})",
        [f"s{size}e{i}" for i, (size, _) in enumerate(objects)],
        entries,
        [i for i, _, _ in entries],
        [j for _, j, _ in entries],
        [f"rel{k}" for k in range(len(entries))],
        [(i, i, X[1]) for i, X in enumerate(objects)],
        compose_rel,
    )[0]


# ---------------------------------------------------------------------------
# product categories (corpus ingredient)


def product_category(A: FinCat, B: FinCat) -> FinCat:
    objects = [f"{a}|{b}" for a in A.objects for b in B.objects]
    obj_idx = {(i, j): k for k, (i, j) in enumerate(
        (i, j) for i in range(A.n_objects) for j in range(B.n_objects)
    )}
    entries = [(f, g) for f in range(A.n_morphisms) for g in range(B.n_morphisms)]
    return tabulate(
        f"{A.name}x{B.name}",
        objects,
        entries,
        [obj_idx[(A.mor_src[f], B.mor_src[g])] for f, g in entries],
        [obj_idx[(A.mor_dst[f], B.mor_dst[g])] for f, g in entries],
        [f"{A.mor_labels[f]}|{B.mor_labels[g]}" for f, g in entries],
        [(a, b) for a in A.identity for b in B.identity],
        lambda s, t: (A.comp_table[s[0]][t[0]], B.comp_table[s[1]][t[1]]),
    )[0]


# ---------------------------------------------------------------------------
# seeded random corpus


@lru_cache(maxsize=1)
def _small_monoids() -> list[tuple[tuple[int, ...], ...]]:
    """All associative unital tables on up to 3 elements with element 0 as
    the unit, computed once by enumeration."""
    out = []
    for n in (1, 2, 3):
        cells = [(a, b) for a in range(n) for b in range(n) if a != 0 and b != 0]
        for choice in itertools.product(range(n), repeat=len(cells)):
            table = [[0] * n for _ in range(n)]
            for a in range(n):
                table[0][a] = a
                table[a][0] = a
            for (a, b), v in zip(cells, choice):
                table[a][b] = v
            ok = True
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if table[table[a][b]][c] != table[a][table[b][c]]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                out.append(tuple(tuple(r) for r in table))
    return out


def _random_poset(rng: random.Random, n: int) -> FinCat:
    els = [f"p{i}" for i in range(n)]
    strict = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                strict.add((els[i], els[j]))
    return poset_from_pairs(els, strict, name=f"poset{n}")


_LATTICE_CATALOG: list[tuple[str, list[str], set[tuple[str, str]]]] = [
    ("chain2", ["0", "1"], {("0", "1")}),
    ("chain3", ["0", "m", "1"], {("0", "m"), ("m", "1")}),
    ("chain4", ["0", "l", "h", "1"], {("0", "l"), ("l", "h"), ("h", "1")}),
    ("diamond", ["0", "a", "b", "1"], {("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")}),
    (
        "m3",
        ["0", "a", "b", "c", "1"],
        {("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")},
    ),
    (
        "n5",
        ["0", "a", "b", "c", "1"],
        {("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")},
    ),
    (
        "grid",
        ["00", "01", "10", "11"],
        {("00", "01"), ("00", "10"), ("01", "11"), ("10", "11")},
    ),
]


def _random_lattice(rng: random.Random) -> FinCat:
    name, els, strict = rng.choice(_LATTICE_CATALOG)
    return poset_from_pairs(list(els), set(strict), name=f"lattice-{name}")


def _random_setoid(rng: random.Random, n: int) -> FinCat:
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                pairs.add((i, j))
    return setoid_groupoid(n, pairs, name=f"setoid{n}")


def _random_delooping(rng: random.Random) -> FinCat:
    table = rng.choice(_small_monoids())
    return delooping([list(r) for r in table], name=f"monoid{len(table)}")


def _random_dag_quotient(rng: random.Random, max_hom: int) -> FinCat:
    """Free category on a small random DAG, then parallel morphisms merged by
    congruence closure until every hom-set fits the bound.  Concatenation is
    associative, and closure keeps the quotient a congruence, so the result
    is a category by construction."""
    for attempt in range(30):
        n = rng.randint(2, 4)
        edges: list[tuple[int, int]] = []
        for _ in range(rng.randint(1, 5)):
            i = rng.randint(0, n - 2)
            j = rng.randint(i + 1, n - 1)
            edges.append((i, j))
        # enumerate all paths (DAG: finite); path = tuple of edge indices
        paths_list: list[tuple[tuple[int, ...], int, int]] = []
        for x in range(n):
            paths_list.append(((), x, x))  # empty path per object, disambiguated by src
        grew = True
        while grew:
            grew = False
            for (p, s, d) in list(paths_list):
                for ei, (a, b) in enumerate(edges):
                    if a == d:
                        q = p + (ei,)
                        if (q, s, b) not in paths_list:
                            paths_list.append((q, s, b))
                            grew = True
            if len(paths_list) > 80:
                break
        if len(paths_list) > 80:
            continue
        # distinct identity for each object: encode as (("id", x))
        idx = {t: i for i, t in enumerate(paths_list)}
        parent = list(range(len(paths_list)))

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def merge(i: int, j: int) -> None:
            queue = [(i, j)]
            while queue:
                a, b = queue.pop()
                ra, rb = root(a), root(b)
                if ra == rb:
                    continue
                parent[max(ra, rb)] = min(ra, rb)
                pa, sa, da = paths_list[a]
                pb, sb, db = paths_list[b]
                for (q, s, d) in paths_list:
                    if d == sa:
                        left_a = idx.get((q + pa, s, da))
                        left_b = idx.get((q + pb, s, db))
                        if left_a is not None and left_b is not None:
                            queue.append((left_a, left_b))
                    if s == da:
                        right_a = idx.get((pa + q, sa, d))
                        right_b = idx.get((pb + q, sb, d))
                        if right_a is not None and right_b is not None:
                            queue.append((right_a, right_b))

        # force hom-sets down to the bound
        for _ in range(200):
            by_hom: dict[tuple[int, int], list[int]] = {}
            for i in range(len(paths_list)):
                r = root(i)
                _, s, d = paths_list[i]
                lst = by_hom.setdefault((s, d), [])
                if r not in lst:
                    lst.append(r)
            oversized = [(k, v) for k, v in sorted(by_hom.items()) if len(v) > max_hom]
            if not oversized:
                break
            (s, d), reps = oversized[0]
            pick = rng.sample(sorted(reps), 2)
            merge(pick[0], pick[1])
        else:
            continue

        # materialize the quotient, one morphism per class representative;
        # a composite past the path bound is missing from idx (KeyError)
        reps = sorted({root(i) for i in range(len(paths_list))})

        def concat(r1: int, r2: int) -> int:
            (p1, s1, _), (p2, _, d2) = paths_list[r1], paths_list[r2]
            return root(idx[(p1 + p2, s1, d2)])

        try:
            return tabulate(
                f"dagq{n}",
                [f"v{i}" for i in range(n)],
                reps,
                [paths_list[r][1] for r in reps],
                [paths_list[r][2] for r in reps],
                [f"q{r}" for r in reps],
                [root(idx[((), x, x)]) for x in range(n)],
                concat,
            )[0]
        except (KeyError, CategoryValidationError):
            continue
    # deterministic fallback: a chain always works
    return chain_poset(3)


def random_category(seed: int, max_objects: int = 5, max_hom: int = 3) -> FinCat:
    """Seeded, reproducible corpus member.  Mixture of always-valid families;
    roughly half the corpus carries finite-limit structure (bounded
    lattices), the rest adds groupoids, monoids, free-quotient shapes and
    binary products of smaller members."""
    rng = random.Random(seed)
    kind = rng.choice(
        ["lattice", "lattice", "poset", "setoid", "delooping", "dagquot", "product"]
    )
    if kind == "lattice":
        C = _random_lattice(rng)
    elif kind == "poset":
        C = _random_poset(rng, rng.randint(2, max_objects))
    elif kind == "setoid":
        C = _random_setoid(rng, rng.randint(2, max_objects))
    elif kind == "delooping":
        C = _random_delooping(rng)
    elif kind == "dagquot":
        C = _random_dag_quotient(rng, max_hom)
    else:
        A = _random_delooping(rng) if rng.random() < 0.5 else chain_poset(2)
        B = _random_setoid(rng, 2) if rng.random() < 0.5 else chain_poset(2)
        C = product_category(A, B)
    if C.n_objects > max_objects:
        C, _ = full_subcategory(C, list(range(max_objects)))
    return dataclasses.replace(C, name=f"rnd{seed}:{C.name}")


def random_weak_equivalence(seed: int, max_objects: int = 5, max_copies: int = 3) -> Functor:
    """A weak equivalence with a random source: the projection from a random
    inflation of a random corpus category."""
    rng = random.Random(seed ^ 0x5EED)
    C = random_category(seed, max_objects=max_objects)
    copies = [rng.randint(1, max_copies) for _ in range(C.n_objects)]
    _, proj = inflate(C, copies)
    return proj
