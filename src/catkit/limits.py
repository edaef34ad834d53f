"""Finite limits and colimits: checkers, finders, transfer, preservation.

Every structure is a small witness dataclass that can be re-validated from
scratch by brute force.  ``is_*`` functions quantify over the whole category,
``find_*`` search deterministically (lowest apex first, then lowest morphism
indices), ``transfer_*`` push chosen structure along a weak equivalence and
re-validate every produced witness, ``preserves_*`` decide preservation and
certify it with comparison isos, and ``lift_preservation_*`` derive
preservation for a factored functor by two independent routes that must
agree exactly.

Terminal objects, binary products, equalizers and pullbacks are keyed
limits: a table maps each key (the empty diagram's one key ``()``, a pair of
objects, a parallel pair, a cospan) to a witness.  One :class:`LimitShape`
per kind holds what differs between them, and find, mediate, compare,
preserve, transfer, reflect, lift and check are written once over it; the
per-kind public names bind a shape.  The terminal names keep taking and
returning a single :class:`ChosenTerminal`, wrapped as the table
``{(): w}``.  The brute-force ``is_*`` checks stay one loop per shape: they
define the limits, and they are the hot path of every search.

Colimit duals delegate to the limit machinery on the opposite category and
are cross-checked by direct searches.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter
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
    for x in range(C.n_objects):
        budget_tick()
        if len(C.hom(x, t)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# the shape table: a brute-force defining check per shape, then the shapes


def is_binary_product(C: FinCat, w: BinProductW) -> bool:
    if not C.has_morphisms(w.pi1, w.pi2):
        return False
    if C.mor_src[w.pi1] != w.apex or C.mor_dst[w.pi1] != w.x1:
        return False
    if C.mor_src[w.pi2] != w.apex or C.mor_dst[w.pi2] != w.x2:
        return False
    for z in range(C.n_objects):
        for g1 in C.hom(z, w.x1):
            for g2 in C.hom(z, w.x2):
                budget_tick()
                hits = 0
                for h in C.hom(z, w.apex):
                    if C.compose(h, w.pi1) == g1 and C.compose(h, w.pi2) == g2:
                        hits += 1
                if hits != 1:
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
    for z in range(C.n_objects):
        for h in C.hom(z, x):
            if C.compose(h, w.f) != C.compose(h, w.g):
                continue
            budget_tick()
            hits = sum(1 for u in C.hom(z, w.obj) if C.compose(u, w.arrow) == h)
            if hits != 1:
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
    for z in range(C.n_objects):
        for h1 in C.hom(z, x):
            c1 = C.compose(h1, w.f)
            for h2 in C.hom(z, y):
                if C.compose(h2, w.g) != c1:
                    continue
                budget_tick()
                hits = 0
                for u in C.hom(z, w.apex):
                    if C.compose(u, w.p1) == h1 and C.compose(u, w.p2) == h2:
                        hits += 1
                if hits != 1:
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
    objects or, unless ``keyed_by_objects``, morphisms.
    """

    name: str
    diagram: str
    witness: type
    n_key: int
    keys: Callable[[FinCat], list[Key]]
    feet: Callable[[FinCat, Key], tuple[int, ...] | None]
    commutes: Callable[[FinCat, Key, tuple[int, ...]], bool] | None
    is_limit: Callable[[FinCat, object], bool]
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

    def pull_key(self, cert: WeakEquivalenceCert, key: Key) -> Key:
        if self.keyed_by_objects:   # two parts or none, unrolled: a hot path
            return (cert.eso_witness[key[0]][0], cert.eso_witness[key[1]][0]) if key else ()
        return (_pull_back_morphism(cert, key[0]), _pull_back_morphism(cert, key[1])) if key else ()

    def image_key(self, F: Functor, key: Key) -> Key:
        image = F.obj_map if self.keyed_by_objects else F.mor_map
        return (image[key[0]], image[key[1]]) if key else ()

    def image(self, F: Functor, w) -> object:
        """The image under F of the cone w, keyed by the image diagram."""
        key, apex, legs = self.split(w)
        legs = map(F.mor_map.__getitem__, legs)
        return self.witness(*self.image_key(F, key), F.obj_map[apex], *legs)


TERMINAL = LimitShape(
    "terminal", "empty diagram", ChosenTerminal, 0, lambda C: [()], lambda C, key: (),
    None, lambda C, w: is_terminal(C, w.t), True,
)
PRODUCTS = LimitShape(
    "product", "factor pair", BinProductW, 2,
    lambda C: list(itertools.product(range(C.n_objects), repeat=2)), lambda C, key: key,
    None, is_binary_product, True,
)
EQUALIZERS = LimitShape(
    "equalizer", "parallel pair", EqualizerW, 2, parallel_pairs, _parallel_feet,
    lambda C, key, legs: C.compose(legs[0], key[0]) == C.compose(legs[0], key[1]),
    is_equalizer, False,
)
PULLBACKS = LimitShape(
    "pullback", "cospan", PullbackW, 2, cospan_pairs, _cospan_feet,
    lambda C, key, legs: C.compose(legs[0], key[0]) == C.compose(legs[1], key[1]),
    is_pullback, False,
)


# ---------------------------------------------------------------------------
# the verbs, written once over the shape


def find_limit(shape: LimitShape, C: FinCat, key: Key) -> object | None:
    """Lowest apex first, then lowest leg indices; None when the key is not
    a diagram of the shape or has no limit."""
    feet = shape.feet(C, key)
    if feet is None:
        return None
    for apex in range(C.n_objects):
        for legs in itertools.product(*[C.hom(apex, x) for x in feet]):
            w = shape.witness(*key, apex, *legs)
            if shape.is_limit(C, w):
                return w
    return None


def find_table(shape: LimitShape, C: FinCat) -> Table | None:
    """Chosen limits for every key, or None if some key has none."""
    out = {}
    for key in shape.keys(C):
        w = find_limit(shape, C, key)
        if w is None:
            return None
        out[key] = w
    return out


def partial_table(shape: LimitShape, C: FinCat) -> Table:
    """Chosen limits for exactly the keys that have one."""
    found = ((key, find_limit(shape, C, key)) for key in shape.keys(C))
    return {key: w for key, w in found if w is not None}


def check_table(shape: LimitShape, C: FinCat, table: Table) -> None:
    """Every key of C carries a valid witness keyed by it."""
    k = shape.n_key   # witnesses read inline, as in mediator
    for key in shape.keys(C):
        w = table.get(key)
        if w is None or shape.unpack(w)[:k] != key or not shape.is_limit(C, w):
            if not key:   # the one witness of a keyless shape, not a table
                raise InvalidCert(f"{shape.name} witness is not {shape.name}")
            raise InvalidCert(f"{shape.name} table is wrong at {key}")


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


def preserves(
    shape: LimitShape, F: Functor, source: Table, target: Table
) -> LimitPreservationCert | None:
    """Each image cone must factor through the chosen limit of its diagram
    by an iso; None when some image cone is not limiting."""
    mu: dict[Key, Iso] = {}
    k = shape.n_key   # witnesses read inline, apex v[k] and legs v[k + 1:]: a hot path
    for key, w in source.items():
        v = shape.unpack(w)
        legs = tuple(map(F.mor_map.__getitem__, v[k + 1:]))
        try:
            fwd = mediator(shape, F.target, target[shape.image_key(F, key)], F.obj_map[v[k]], legs)
        except NotACone:
            return None
        iso = find_iso(F.target, fwd)
        if iso is None:
            return None
        mu[key] = Iso(iso.inv, iso.fwd)   # chosen-of-images -> image-of-chosen
    return LimitPreservationCert(F, source, target, mu)


def first_unpreserved(shape: LimitShape, F: Functor, source: Table, target: Table) -> Key | None:
    """Index-order first source key whose image cone is not limiting; an
    invalid target entry raises, as in :func:`preserves`."""
    for key in sorted(source):
        if preserves(shape, F, {key: source[key]}, target) is None:
            return key
    return None


def transfer(
    shape: LimitShape, cert: WeakEquivalenceCert, table: Table
) -> tuple[Table, LimitPreservationCert]:
    """Push a table along the equivalence: the witness at each pulled-back
    key is imaged, its legs composed with the eso isos of the feet, and the
    result re-validated.  The target need not be skeletal: the witnesses
    carried there are limits, though not the only choice."""
    check_weak_equivalence_cert(cert)
    G = cert.functor
    C, D = G.source, G.target
    k = shape.n_key   # witnesses read inline, as in mediator
    for key, w in table.items():
        if shape.unpack(w)[:k] != key or not shape.is_limit(C, w):
            raise InvalidCert(f"source {shape.name} table entry {key} is invalid")
    out = {}
    for key in shape.keys(D):
        src_key = shape.pull_key(cert, key)
        src = table.get(src_key)
        if src is None:
            raise PreconditionViolation(f"source table lacks the {shape.name} of {src_key}")
        v = shape.unpack(src)
        legs = [
            D.compose(G.mor_map[p], cert.eso_witness[y][1].fwd)
            for p, y in zip(v[k + 1:], shape.feet(D, key))
        ]
        w = shape.witness(*key, G.obj_map[v[k]], *legs)
        if not shape.is_limit(D, w):
            raise OracleDisagreement(f"transferred {shape.name} at {key} failed re-validation")
        out[key] = w
    pres = preserves(shape, G, table, out)
    if pres is None:
        raise OracleDisagreement(f"equivalence does not preserve the {shape.name}s it transferred")
    return out, pres


def reflect(shape: LimitShape, F: Functor, w):
    """A fully faithful functor whose image cone is limiting forces the source
    cone to be limiting; a failure here is an internal error, not bad input."""
    if is_fully_faithful(F) is None:
        raise PreconditionViolation("reflection requires a fully faithful functor")
    if not shape.is_limit(F.target, shape.image(F, w)):
        raise PreconditionViolation(f"image cone is not a {shape.name}")
    if not shape.is_limit(F.source, w):
        raise ReflectionFails(f"image cone is a {shape.name} but the source cone is not")
    return w


def lift(
    shape: LimitShape,
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    Fcert: LimitPreservationCert,
    transferred: Table,
) -> LimitPreservationCert:
    """Preservation for H out of F's preservation: pull each target key back
    along the equivalence, transport F's comparison through alpha, and check
    the result against the direct decision procedure.  transferred is the
    table carried to the completion (the transfer of Fcert.source along
    cert)."""
    _check_triangle(cert, F, H, alpha)
    D = cert.functor.target
    E = F.target
    built: dict[Key, int] = {}
    k = shape.n_key   # witnesses read inline, as in preserves
    for key in shape.keys(D):
        phis = [_phi(cert, H, alpha, y)[1] for y in shape.feet(D, key)]
        src_key = shape.pull_key(cert, key)
        src = shape.unpack(Fcert.source[src_key])
        h = shape.unpack(Fcert.target[shape.image_key(H, key)])
        entry_f = Fcert.target[shape.image_key(F, src_key)]
        theta = mediator(shape, E, entry_f, h[k], tuple(map(E.compose, h[k + 1:], phis)))
        psi = alpha.components[src[k]]
        built[key] = E.compose_many(theta, Fcert.mu[src_key].fwd, psi.inv)
        # the square transporting the universal property must commute
        for p, phi, rho in zip(shape.unpack(transferred[key])[k + 1:], phis, src[k + 1:]):
            if E.compose(H.mor_map[p], phi) != E.compose(psi.fwd, F.mor_map[rho]):
                raise OracleDisagreement(f"transport square for lifted {shape.name}s broke")
    direct = preserves(shape, H, transferred, Fcert.target)
    if direct is None:
        raise OracleDisagreement(f"lifted functor failed the direct {shape.name} check")
    for key, iso in direct.mu.items():
        if iso.fwd != built[key]:
            raise OracleDisagreement(
                f"constructive and direct {shape.name} comparisons disagree at {key}"
            )
    return direct


def _pull_back_morphism(cert: WeakEquivalenceCert, u: int) -> int:
    """The source morphism whose image is iso-conjugate to a target morphism."""
    D = cert.functor.target
    y1, y2 = D.mor_src[u], D.mor_dst[u]
    x1, i1 = cert.eso_witness[y1]
    x2, i2 = cert.eso_witness[y2]
    conj = D.compose_many(i1.fwd, u, i2.inv)
    return cert.ff_inverse(x1, x2, conj)


def _check_triangle(
    cert: WeakEquivalenceCert, F: Functor, H: Functor, alpha: NatIso
) -> None:
    if not functors_equal(alpha.source, compose_functors(cert.functor, H)):
        raise PreconditionViolation("alpha must start at the composite through the equivalence")
    if not functors_equal(alpha.target, F):
        raise PreconditionViolation("alpha must end at the outer functor")


def _phi(cert: WeakEquivalenceCert, H: Functor, alpha: NatIso, y: int) -> tuple[int, int]:
    """For a target object y with eso witness (x, i): the iso
    H(y) -> F(x) given by H(i)^{-1} then alpha_x; returns (x, morphism)."""
    x, i = cert.eso_witness[y]
    E = H.target
    hi = find_iso(E, H.mor_map[i.fwd])
    if hi is None:
        raise OracleDisagreement("functor image of an iso is not invertible")
    return x, E.compose(hi.inv, alpha.components[x].fwd)


# ---------------------------------------------------------------------------
# the public names, each binding one shape to one verb; the terminal names
# wrap their one witness as the table {(): w}


def find_terminal(C: FinCat) -> ChosenTerminal | None:
    return find_limit(TERMINAL, C, ())


def to_terminal(C: FinCat, term: ChosenTerminal, x: int) -> int:
    """The unique arrow from x to the terminal."""
    return mediator(TERMINAL, C, term, x, ())


def preserves_terminal(F: Functor, tC: ChosenTerminal, tD: ChosenTerminal):
    """mu[()] is the pair of unique arrows tD -> F(tC) and back; a tD that is
    not terminal raises."""
    check_table(TERMINAL, F.target, {(): tD})
    return preserves(TERMINAL, F, {(): tC}, {(): tD})


def transfer_terminal(cert: WeakEquivalenceCert, tC: ChosenTerminal):
    table, pres = transfer(TERMINAL, cert, {(): tC})
    return table[()], pres


def reflects_terminal(F: Functor, t: int) -> ChosenTerminal:
    return reflect(TERMINAL, F, ChosenTerminal(t))


def lift_preservation_terminal(cert, F, H, alpha, Fcert, tD):
    return lift(TERMINAL, cert, F, H, alpha, Fcert, {(): tD})


def find_binary_product(C: FinCat, x1: int, x2: int) -> BinProductW | None:
    return find_limit(PRODUCTS, C, (x1, x2))


def find_binary_products(C: FinCat) -> dict[tuple[int, int], BinProductW] | None:
    """Chosen products for every ordered pair, or None if some pair has none."""
    return find_table(PRODUCTS, C)


def partial_binary_products(C: FinCat) -> dict[tuple[int, int], BinProductW]:
    """Chosen products for exactly the pairs that have one."""
    return partial_table(PRODUCTS, C)


def mediating(C: FinCat, w: BinProductW, g1: int, g2: int) -> int:
    """The unique morphism into the apex commuting with both projections."""
    return mediator(PRODUCTS, C, w, C.mor_src[g1], (g1, g2))


def product_comparison(C: FinCat, a: BinProductW, b: BinProductW) -> Iso:
    return comparison(PRODUCTS, C, a, b)


def preserves_binary_products(F: Functor, prodsC: Table, prodsD: Table):
    return preserves(PRODUCTS, F, prodsC, prodsD)


def first_unpreserved_pair(F: Functor, prodsC: Table, prodsD: Table) -> tuple[int, int] | None:
    return first_unpreserved(PRODUCTS, F, prodsC, prodsD)


def transfer_binary_products(cert: WeakEquivalenceCert, prods: Table):
    return transfer(PRODUCTS, cert, prods)


def reflects_binary_products(F: Functor, w: BinProductW) -> BinProductW:
    return reflect(PRODUCTS, F, w)


def lift_preservation_binary_products(cert, F, H, alpha, Fcert, transferred):
    return lift(PRODUCTS, cert, F, H, alpha, Fcert, transferred)


def find_equalizer(C: FinCat, f: int, g: int) -> EqualizerW | None:
    return find_limit(EQUALIZERS, C, (f, g))


def find_equalizers(C: FinCat) -> dict[tuple[int, int], EqualizerW] | None:
    return find_table(EQUALIZERS, C)


def mediating_equalizer(C: FinCat, w: EqualizerW, h: int) -> int:
    return mediator(EQUALIZERS, C, w, C.mor_src[h], (h,))


def equalizer_comparison(C: FinCat, a: EqualizerW, b: EqualizerW) -> Iso:
    return comparison(EQUALIZERS, C, a, b)


def preserves_equalizers(F: Functor, eqsC: Table, eqsD: Table):
    return preserves(EQUALIZERS, F, eqsC, eqsD)


def transfer_equalizers(cert: WeakEquivalenceCert, eqs: Table):
    return transfer(EQUALIZERS, cert, eqs)


def lift_preservation_equalizers(cert, F, H, alpha, Fcert, transferred):
    return lift(EQUALIZERS, cert, F, H, alpha, Fcert, transferred)


def find_pullback(C: FinCat, f: int, g: int) -> PullbackW | None:
    return find_limit(PULLBACKS, C, (f, g))


def find_pullbacks(C: FinCat) -> dict[tuple[int, int], PullbackW] | None:
    return find_table(PULLBACKS, C)


def mediating_pullback(C: FinCat, w: PullbackW, h1: int, h2: int) -> int:
    return mediator(PULLBACKS, C, w, C.mor_src[h1], (h1, h2))


def pullback_comparison(C: FinCat, a: PullbackW, b: PullbackW) -> Iso:
    return comparison(PULLBACKS, C, a, b)


def preserves_pullbacks(F: Functor, pbsC: Table, pbsD: Table):
    return preserves(PULLBACKS, F, pbsC, pbsD)


def transfer_pullbacks(cert: WeakEquivalenceCert, pbs: Table):
    return transfer(PULLBACKS, cert, pbs)


def lift_preservation_pullbacks(cert, F, H, alpha, Fcert, transferred):
    return lift(PULLBACKS, cert, F, H, alpha, Fcert, transferred)


# ---------------------------------------------------------------------------
# colimit duals: delegate through the opposite category, with direct
# searches available as independent oracles


def find_initial(C: FinCat) -> ChosenInitial | None:
    t = find_terminal(opposite(C))
    return None if t is None else ChosenInitial(t.t)


def find_binary_coproduct(C: FinCat, x1: int, x2: int) -> BinCoproductW | None:
    w = find_binary_product(opposite(C), x1, x2)
    return None if w is None else BinCoproductW(x1, x2, w.apex, w.pi1, w.pi2)


def find_binary_coproducts(C: FinCat) -> dict[tuple[int, int], BinCoproductW] | None:
    table = find_binary_products(opposite(C))
    if table is None:
        return None
    return {
        k: BinCoproductW(w.x1, w.x2, w.apex, w.pi1, w.pi2) for k, w in table.items()
    }


def is_binary_coproduct_direct(C: FinCat, w: BinCoproductW) -> bool:
    """Independent oracle: the cocone condition checked without opposites."""
    if C.mor_src[w.in1] != w.x1 or C.mor_dst[w.in1] != w.apex:
        return False
    if C.mor_src[w.in2] != w.x2 or C.mor_dst[w.in2] != w.apex:
        return False
    for z in range(C.n_objects):
        for g1 in C.hom(w.x1, z):
            for g2 in C.hom(w.x2, z):
                budget_tick()
                hits = 0
                for h in C.hom(w.apex, z):
                    if C.compose(w.in1, h) == g1 and C.compose(w.in2, h) == g2:
                        hits += 1
                if hits != 1:
                    return False
    return True


def find_binary_coproduct_direct(C: FinCat, x1: int, x2: int) -> BinCoproductW | None:
    for apex in range(C.n_objects):
        for in1 in C.hom(x1, apex):
            for in2 in C.hom(x2, apex):
                w = BinCoproductW(x1, x2, apex, in1, in2)
                if is_binary_coproduct_direct(C, w):
                    return w
    return None


def find_coequalizer(C: FinCat, f: int, g: int) -> CoequalizerW | None:
    w = find_equalizer(opposite(C), f, g)
    return None if w is None else CoequalizerW(f, g, w.obj, w.arrow)


def find_coequalizers(C: FinCat) -> dict[tuple[int, int], CoequalizerW] | None:
    table = find_equalizers(opposite(C))
    if table is None:
        return None
    return {k: CoequalizerW(w.f, w.g, w.obj, w.arrow) for k, w in table.items()}


def is_coequalizer_direct(C: FinCat, w: CoequalizerW) -> bool:
    y = C.mor_dst[w.f]
    if C.mor_src[w.g] != C.mor_src[w.f] or C.mor_dst[w.g] != y:
        return False
    if C.mor_src[w.arrow] != y or C.mor_dst[w.arrow] != w.obj:
        return False
    if C.compose(w.f, w.arrow) != C.compose(w.g, w.arrow):
        return False
    for z in range(C.n_objects):
        for h in C.hom(y, z):
            if C.compose(w.f, h) != C.compose(w.g, h):
                continue
            budget_tick()
            hits = sum(1 for u in C.hom(w.obj, z) if C.compose(w.arrow, u) == h)
            if hits != 1:
                return False
    return True


def find_coequalizer_direct(C: FinCat, f: int, g: int) -> CoequalizerW | None:
    if C.mor_src[f] != C.mor_src[g] or C.mor_dst[f] != C.mor_dst[g]:
        return None
    for obj in range(C.n_objects):
        for arrow in C.hom(C.mor_dst[f], obj):
            w = CoequalizerW(f, g, obj, arrow)
            if is_coequalizer_direct(C, w):
                return w
    return None

