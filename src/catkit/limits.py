"""Finite limits and colimits: checkers, finders, transfer, preservation.

Every structure is a small witness dataclass that can be re-validated from
scratch by brute force.  ``is_*`` functions quantify over the whole category,
``find_*`` search deterministically (lowest apex first, then lowest morphism
indices), ``transfer_*`` push chosen structure along a weak equivalence and
re-validate every produced witness, ``preserves_*`` decide preservation and
certify it with comparison isos, and ``lift_preservation_*`` derive
preservation for a factored functor by two independent routes that must
agree exactly.

Colimit duals delegate to the limit machinery on the opposite category and
are cross-checked by direct searches.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

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


def find_terminal(C: FinCat) -> ChosenTerminal | None:
    for t in range(C.n_objects):
        if is_terminal(C, t):
            return ChosenTerminal(t)
    return None


def to_terminal(C: FinCat, term: ChosenTerminal, x: int) -> int:
    hom = C.hom(x, term.t)
    if len(hom) != 1:
        raise InvalidCert(f"{C.objects[term.t]} is not terminal: seen from {C.objects[x]}")
    return hom[0]


# ---------------------------------------------------------------------------
# binary products


def is_binary_product(C: FinCat, w: BinProductW) -> bool:
    if not (0 <= w.pi1 < C.n_morphisms and 0 <= w.pi2 < C.n_morphisms):
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


def find_binary_product(C: FinCat, x1: int, x2: int) -> BinProductW | None:
    for apex in range(C.n_objects):
        for pi1 in C.hom(apex, x1):
            for pi2 in C.hom(apex, x2):
                w = BinProductW(x1, x2, apex, pi1, pi2)
                if is_binary_product(C, w):
                    return w
    return None


def find_binary_products(C: FinCat) -> dict[tuple[int, int], BinProductW] | None:
    """Chosen products for every ordered pair, or None if some pair has none."""
    out = {}
    for x1 in range(C.n_objects):
        for x2 in range(C.n_objects):
            w = find_binary_product(C, x1, x2)
            if w is None:
                return None
            out[(x1, x2)] = w
    return out


def partial_binary_products(C: FinCat) -> dict[tuple[int, int], BinProductW]:
    """Chosen products for exactly the pairs that have one."""
    out = {}
    for x1 in range(C.n_objects):
        for x2 in range(C.n_objects):
            w = find_binary_product(C, x1, x2)
            if w is not None:
                out[(x1, x2)] = w
    return out


def mediating(C: FinCat, w: BinProductW, g1: int, g2: int) -> int:
    """The unique morphism into the apex commuting with both projections."""
    if C.mor_dst[g1] != w.x1 or C.mor_dst[g2] != w.x2 or C.mor_src[g1] != C.mor_src[g2]:
        raise NotACone("legs must share a source and land on the product factors")
    z = C.mor_src[g1]
    hits = [
        h
        for h in C.hom(z, w.apex)
        if C.compose(h, w.pi1) == g1 and C.compose(h, w.pi2) == g2
    ]
    if len(hits) != 1:
        raise InvalidCert(
            f"witness on apex {C.objects[w.apex]} admits {len(hits)} mediators for a cone"
        )
    return hits[0]


def product_comparison(C: FinCat, a: BinProductW, b: BinProductW) -> Iso:
    """The canonical iso between two products of the same pair."""
    if (a.x1, a.x2) != (b.x1, b.x2):
        raise NotACone("witnesses do not share their factor pair")
    fwd = mediating(C, b, a.pi1, a.pi2)
    iso = find_iso(C, fwd)
    if iso is None:
        raise OracleDisagreement("comparison between two products is not invertible")
    return iso


# ---------------------------------------------------------------------------
# equalizers


def is_equalizer(C: FinCat, w: EqualizerW) -> bool:
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


def find_equalizer(C: FinCat, f: int, g: int) -> EqualizerW | None:
    if C.mor_src[f] != C.mor_src[g] or C.mor_dst[f] != C.mor_dst[g]:
        return None
    for obj in range(C.n_objects):
        for arrow in C.hom(obj, C.mor_src[f]):
            w = EqualizerW(f, g, obj, arrow)
            if is_equalizer(C, w):
                return w
    return None


def parallel_pairs(C: FinCat) -> list[tuple[int, int]]:
    out = []
    for f in range(C.n_morphisms):
        for g in range(C.n_morphisms):
            if C.mor_src[f] == C.mor_src[g] and C.mor_dst[f] == C.mor_dst[g]:
                out.append((f, g))
    return out


def find_equalizers(C: FinCat) -> dict[tuple[int, int], EqualizerW] | None:
    out = {}
    for f, g in parallel_pairs(C):
        w = find_equalizer(C, f, g)
        if w is None:
            return None
        out[(f, g)] = w
    return out


def mediating_equalizer(C: FinCat, w: EqualizerW, h: int) -> int:
    if C.mor_dst[h] != C.mor_src[w.f]:
        raise NotACone("leg must land on the domain of the parallel pair")
    if C.compose(h, w.f) != C.compose(h, w.g):
        raise NotACone("leg does not equalize the parallel pair")
    z = C.mor_src[h]
    hits = [u for u in C.hom(z, w.obj) if C.compose(u, w.arrow) == h]
    if len(hits) != 1:
        raise InvalidCert(f"equalizer witness admits {len(hits)} mediators for a fork")
    return hits[0]


def equalizer_comparison(C: FinCat, a: EqualizerW, b: EqualizerW) -> Iso:
    if (a.f, a.g) != (b.f, b.g):
        raise NotACone("witnesses do not equalize the same pair")
    fwd = mediating_equalizer(C, b, a.arrow)
    iso = find_iso(C, fwd)
    if iso is None:
        raise OracleDisagreement("comparison between two equalizers is not invertible")
    return iso


# ---------------------------------------------------------------------------
# pullbacks


def is_pullback(C: FinCat, w: PullbackW) -> bool:
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


def find_pullback(C: FinCat, f: int, g: int) -> PullbackW | None:
    if C.mor_dst[f] != C.mor_dst[g]:
        return None
    for apex in range(C.n_objects):
        for p1 in C.hom(apex, C.mor_src[f]):
            for p2 in C.hom(apex, C.mor_src[g]):
                w = PullbackW(f, g, apex, p1, p2)
                if is_pullback(C, w):
                    return w
    return None


def cospan_pairs(C: FinCat) -> list[tuple[int, int]]:
    out = []
    for f in range(C.n_morphisms):
        for g in range(C.n_morphisms):
            if C.mor_dst[f] == C.mor_dst[g]:
                out.append((f, g))
    return out


def find_pullbacks(C: FinCat) -> dict[tuple[int, int], PullbackW] | None:
    out = {}
    for f, g in cospan_pairs(C):
        w = find_pullback(C, f, g)
        if w is None:
            return None
        out[(f, g)] = w
    return out


def mediating_pullback(C: FinCat, w: PullbackW, h1: int, h2: int) -> int:
    if (
        C.mor_dst[h1] != C.mor_src[w.f]
        or C.mor_dst[h2] != C.mor_src[w.g]
        or C.mor_src[h1] != C.mor_src[h2]
    ):
        raise NotACone("legs must share a source and land on the cospan feet")
    if C.compose(h1, w.f) != C.compose(h2, w.g):
        raise NotACone("legs do not commute with the cospan")
    z = C.mor_src[h1]
    hits = [
        u
        for u in C.hom(z, w.apex)
        if C.compose(u, w.p1) == h1 and C.compose(u, w.p2) == h2
    ]
    if len(hits) != 1:
        raise InvalidCert(f"pullback witness admits {len(hits)} mediators for a cone")
    return hits[0]


def pullback_comparison(C: FinCat, a: PullbackW, b: PullbackW) -> Iso:
    if (a.f, a.g) != (b.f, b.g):
        raise NotACone("witnesses do not pull back the same cospan")
    fwd = mediating_pullback(C, b, a.p1, a.p2)
    iso = find_iso(C, fwd)
    if iso is None:
        raise OracleDisagreement("comparison between two pullbacks is not invertible")
    return iso


# ---------------------------------------------------------------------------
# preservation certificates


@dataclass(frozen=True, eq=False)
class TerminalPreservationCert:
    functor: Functor
    source: ChosenTerminal
    target: ChosenTerminal
    iso: Iso   # target.t -> F(source.t)


@dataclass(frozen=True, eq=False)
class ProductPreservationCert:
    """mu maps the chosen product of the images onto the image of the chosen
    product; composing mu with the image projections recovers the chosen
    projections."""

    functor: Functor
    source: dict[tuple[int, int], BinProductW]
    target: dict[tuple[int, int], BinProductW]
    mu: dict[tuple[int, int], Iso]


@dataclass(frozen=True, eq=False)
class EqualizerPreservationCert:
    functor: Functor
    source: dict[tuple[int, int], EqualizerW]
    target: dict[tuple[int, int], EqualizerW]
    mu: dict[tuple[int, int], Iso]


@dataclass(frozen=True, eq=False)
class PullbackPreservationCert:
    functor: Functor
    source: dict[tuple[int, int], PullbackW]
    target: dict[tuple[int, int], PullbackW]
    mu: dict[tuple[int, int], Iso]


def preserves_terminal(
    F: Functor, tC: ChosenTerminal, tD: ChosenTerminal
) -> TerminalPreservationCert | None:
    D = F.target
    ft = F.obj_map[tC.t]
    if not is_terminal(D, ft):
        return None
    fwd = to_terminal(D, ChosenTerminal(ft), tD.t)
    inv = to_terminal(D, tD, ft)
    iso = Iso(fwd, inv)
    if find_iso(D, fwd) != iso:
        raise OracleDisagreement("arrows between two terminal objects are not inverse")
    return TerminalPreservationCert(F, tC, tD, iso)


def preserves_binary_products(
    F: Functor,
    prodsC: dict[tuple[int, int], BinProductW],
    prodsD: dict[tuple[int, int], BinProductW],
) -> ProductPreservationCert | None:
    D = F.target
    mu: dict[tuple[int, int], Iso] = {}
    for (x1, x2), w in prodsC.items():
        entry = prodsD[(F.obj_map[x1], F.obj_map[x2])]
        image_cone = BinProductW(
            entry.x1, entry.x2, F.obj_map[w.apex], F.mor_map[w.pi1], F.mor_map[w.pi2]
        )
        fwd = mediating(D, entry, image_cone.pi1, image_cone.pi2)
        iso = find_iso(D, fwd)
        if iso is None:
            return None
        mu[(x1, x2)] = Iso(iso.inv, iso.fwd)   # chosen-of-images -> image-of-chosen
    return ProductPreservationCert(F, prodsC, prodsD, mu)


def first_unpreserved_pair(
    F: Functor,
    prodsC: dict[tuple[int, int], BinProductW],
    prodsD: dict[tuple[int, int], BinProductW],
) -> tuple[int, int] | None:
    """Index-order first source pair whose image cone is not limiting."""
    D = F.target
    for (x1, x2), w in sorted(prodsC.items()):
        entry = prodsD[(F.obj_map[x1], F.obj_map[x2])]
        try:
            fwd = mediating(D, entry, F.mor_map[w.pi1], F.mor_map[w.pi2])
        except InvalidCert:
            return (x1, x2)
        if find_iso(D, fwd) is None:
            return (x1, x2)
    return None


def preserves_equalizers(
    F: Functor,
    eqsC: dict[tuple[int, int], EqualizerW],
    eqsD: dict[tuple[int, int], EqualizerW],
) -> EqualizerPreservationCert | None:
    D = F.target
    mu: dict[tuple[int, int], Iso] = {}
    for (f, g), w in eqsC.items():
        entry = eqsD[(F.mor_map[f], F.mor_map[g])]
        try:
            fwd = mediating_equalizer(D, entry, F.mor_map[w.arrow])
        except NotACone:
            return None
        iso = find_iso(D, fwd)
        if iso is None:
            return None
        mu[(f, g)] = Iso(iso.inv, iso.fwd)
    return EqualizerPreservationCert(F, eqsC, eqsD, mu)


def preserves_pullbacks(
    F: Functor,
    pbsC: dict[tuple[int, int], PullbackW],
    pbsD: dict[tuple[int, int], PullbackW],
) -> PullbackPreservationCert | None:
    D = F.target
    mu: dict[tuple[int, int], Iso] = {}
    for (f, g), w in pbsC.items():
        entry = pbsD[(F.mor_map[f], F.mor_map[g])]
        try:
            fwd = mediating_pullback(D, entry, F.mor_map[w.p1], F.mor_map[w.p2])
        except NotACone:
            return None
        iso = find_iso(D, fwd)
        if iso is None:
            return None
        mu[(f, g)] = Iso(iso.inv, iso.fwd)
    return PullbackPreservationCert(F, pbsC, pbsD, mu)


# ---------------------------------------------------------------------------
# transfer along a weak equivalence


def _validated(cert: WeakEquivalenceCert, skeletal_hint: bool = True) -> tuple[FinCat, FinCat]:
    """Re-check the certificate.  With skeletal_hint, warn when the target
    is not skeletal: witnesses pushed there are valid but not the unique
    choice.  Callers whose choices were already fixed on a skeleton turn the
    hint off."""
    check_weak_equivalence_cert(cert)
    C, D = cert.functor.source, cert.functor.target
    if skeletal_hint:
        from .completion import skeletality

        if not skeletality(D).is_skeletal:
            warnings.warn(
                f"transfer into non-skeletal {D.name!r}: witnesses remain valid "
                "but choices are not unique",
                stacklevel=3,
            )
    return C, D


def transfer_terminal(
    cert: WeakEquivalenceCert, tC: ChosenTerminal, skeletal_hint: bool = True
) -> tuple[ChosenTerminal, TerminalPreservationCert]:
    C, D = _validated(cert, skeletal_hint)
    G = cert.functor
    if not is_terminal(C, tC.t):
        raise InvalidCert("the given source terminal is not terminal")
    tD = ChosenTerminal(G.obj_map[tC.t])
    if not is_terminal(D, tD.t):
        raise OracleDisagreement("transferred terminal failed re-validation")
    pres = preserves_terminal(G, tC, tD)
    if pres is None:
        raise OracleDisagreement("equivalence does not preserve the terminal it transferred")
    return tD, pres


def transfer_binary_products(
    cert: WeakEquivalenceCert,
    prods: dict[tuple[int, int], BinProductW],
    skeletal_hint: bool = True,
) -> tuple[dict[tuple[int, int], BinProductW], ProductPreservationCert]:
    C, D = _validated(cert, skeletal_hint)
    G = cert.functor
    for key, w in prods.items():
        if (w.x1, w.x2) != key or not is_binary_product(C, w):
            raise InvalidCert(f"source product table entry {key} is invalid")
    out: dict[tuple[int, int], BinProductW] = {}
    for y1 in range(D.n_objects):
        for y2 in range(D.n_objects):
            x1, i1 = cert.eso_witness[y1]
            x2, i2 = cert.eso_witness[y2]
            src = prods.get((x1, x2))
            if src is None:
                raise PreconditionViolation(
                    f"source table lacks the product of ({x1},{x2})"
                )
            w = BinProductW(
                y1,
                y2,
                G.obj_map[src.apex],
                D.compose(G.mor_map[src.pi1], i1.fwd),
                D.compose(G.mor_map[src.pi2], i2.fwd),
            )
            if not is_binary_product(D, w):
                raise OracleDisagreement(
                    f"transferred product at ({y1},{y2}) failed re-validation"
                )
            out[(y1, y2)] = w
    pres = preserves_binary_products(G, prods, out)
    if pres is None:
        raise OracleDisagreement("equivalence does not preserve the products it transferred")
    return out, pres


def _pull_back_morphism(cert: WeakEquivalenceCert, u: int) -> int:
    """The source morphism whose image is iso-conjugate to a target morphism."""
    D = cert.functor.target
    y1, y2 = D.mor_src[u], D.mor_dst[u]
    x1, i1 = cert.eso_witness[y1]
    x2, i2 = cert.eso_witness[y2]
    conj = D.compose_many(i1.fwd, u, i2.inv)
    return cert.ff_inverse(x1, x2, conj)


def transfer_equalizers(
    cert: WeakEquivalenceCert,
    eqs: dict[tuple[int, int], EqualizerW],
    skeletal_hint: bool = True,
) -> tuple[dict[tuple[int, int], EqualizerW], EqualizerPreservationCert]:
    C, D = _validated(cert, skeletal_hint)
    G = cert.functor
    for key, w in eqs.items():
        if (w.f, w.g) != key or not is_equalizer(C, w):
            raise InvalidCert(f"source equalizer table entry {key} is invalid")
    out: dict[tuple[int, int], EqualizerW] = {}
    for u, v in parallel_pairs(D):
        y1 = D.mor_src[u]
        x1, i1 = cert.eso_witness[y1]
        fc = _pull_back_morphism(cert, u)
        gc = _pull_back_morphism(cert, v)
        src = eqs.get((fc, gc))
        if src is None:
            raise PreconditionViolation(f"source table lacks the equalizer of ({fc},{gc})")
        w = EqualizerW(u, v, G.obj_map[src.obj], D.compose(G.mor_map[src.arrow], i1.fwd))
        if not is_equalizer(D, w):
            raise OracleDisagreement(f"transferred equalizer at ({u},{v}) failed re-validation")
        out[(u, v)] = w
    pres = preserves_equalizers(G, eqs, out)
    if pres is None:
        raise OracleDisagreement("equivalence does not preserve the equalizers it transferred")
    return out, pres


def transfer_pullbacks(
    cert: WeakEquivalenceCert,
    pbs: dict[tuple[int, int], PullbackW],
    skeletal_hint: bool = True,
) -> tuple[dict[tuple[int, int], PullbackW], PullbackPreservationCert]:
    C, D = _validated(cert, skeletal_hint)
    G = cert.functor
    for key, w in pbs.items():
        if (w.f, w.g) != key or not is_pullback(C, w):
            raise InvalidCert(f"source pullback table entry {key} is invalid")
    out: dict[tuple[int, int], PullbackW] = {}
    for u, v in cospan_pairs(D):
        x1, i1 = cert.eso_witness[D.mor_src[u]]
        x2, i2 = cert.eso_witness[D.mor_src[v]]
        fc = _pull_back_morphism(cert, u)
        gc = _pull_back_morphism(cert, v)
        src = pbs.get((fc, gc))
        if src is None:
            raise PreconditionViolation(f"source table lacks the pullback of ({fc},{gc})")
        w = PullbackW(
            u,
            v,
            G.obj_map[src.apex],
            D.compose(G.mor_map[src.p1], i1.fwd),
            D.compose(G.mor_map[src.p2], i2.fwd),
        )
        if not is_pullback(D, w):
            raise OracleDisagreement(f"transferred pullback at ({u},{v}) failed re-validation")
        out[(u, v)] = w
    pres = preserves_pullbacks(G, pbs, out)
    if pres is None:
        raise OracleDisagreement("equivalence does not preserve the pullbacks it transferred")
    return out, pres


# ---------------------------------------------------------------------------
# reflection: fully faithful functors reflect limits


def reflects_terminal(F: Functor, t: int) -> ChosenTerminal:
    if is_fully_faithful(F) is None:
        raise PreconditionViolation("reflection requires a fully faithful functor")
    if not is_terminal(F.target, F.obj_map[t]):
        raise PreconditionViolation("image object is not terminal")
    if not is_terminal(F.source, t):
        raise ReflectionFails("image is terminal but the source object is not")
    return ChosenTerminal(t)


def reflects_binary_products(F: Functor, w: BinProductW) -> BinProductW:
    """A fully faithful functor whose image cone is limiting forces the source
    cone to be limiting; a failure here is an internal error, not bad input."""
    if is_fully_faithful(F) is None:
        raise PreconditionViolation("reflection requires a fully faithful functor")
    image = BinProductW(
        F.obj_map[w.x1],
        F.obj_map[w.x2],
        F.obj_map[w.apex],
        F.mor_map[w.pi1],
        F.mor_map[w.pi2],
    )
    if not is_binary_product(F.target, image):
        raise PreconditionViolation("image cone is not a product")
    if not is_binary_product(F.source, w):
        raise ReflectionFails("image cone is a product but the source cone is not")
    return w


# ---------------------------------------------------------------------------
# lifted preservation: the factored functor preserves transferred structure


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


def lift_preservation_terminal(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    Fcert: TerminalPreservationCert,
    tD: ChosenTerminal | None = None,
) -> TerminalPreservationCert:
    """tD is the terminal already carried to the completion; it is
    transferred here when omitted."""
    _check_triangle(cert, F, H, alpha)
    E = F.target
    if tD is None:
        tD, _ = transfer_terminal(cert, Fcert.source)
    # constructive route: connect the chosen target terminal to H(tD)
    built = E.compose(Fcert.iso.fwd, alpha.components[Fcert.source.t].inv)
    direct = preserves_terminal(H, tD, Fcert.target)
    if direct is None:
        raise OracleDisagreement("lifted functor failed the direct terminal check")
    if direct.iso.fwd != built:
        raise OracleDisagreement("constructive and direct terminal comparisons disagree")
    return direct


def lift_preservation_binary_products(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    Fcert: ProductPreservationCert,
    transferred: dict[tuple[int, int], BinProductW] | None = None,
) -> ProductPreservationCert:
    """Preservation for H out of F's preservation: pull each target pair back
    along the equivalence, transport F's comparison through alpha, and check
    the result against the direct decision procedure.

    transferred is the product table already carried to the completion, the
    transfer of Fcert.source along cert; it is transferred here when
    omitted."""
    _check_triangle(cert, F, H, alpha)
    D = cert.functor.target
    E = F.target
    if transferred is None:
        transferred, _ = transfer_binary_products(cert, Fcert.source)
    built: dict[tuple[int, int], int] = {}
    for y1 in range(D.n_objects):
        for y2 in range(D.n_objects):
            x1, phi1 = _phi(cert, H, alpha, y1)
            x2, phi2 = _phi(cert, H, alpha, y2)
            src = Fcert.source[(x1, x2)]
            entry_h = Fcert.target[(H.obj_map[y1], H.obj_map[y2])]
            entry_f = Fcert.target[(F.obj_map[x1], F.obj_map[x2])]
            theta = mediating(
                E,
                entry_f,
                E.compose(entry_h.pi1, phi1),
                E.compose(entry_h.pi2, phi2),
            )
            psi = alpha.components[src.apex]
            built[(y1, y2)] = E.compose_many(theta, Fcert.mu[(x1, x2)].fwd, psi.inv)
            # the square transporting the universal property must commute
            tw = transferred[(y1, y2)]
            for pi, phi, rho in ((tw.pi1, phi1, src.pi1), (tw.pi2, phi2, src.pi2)):
                if E.compose(H.mor_map[pi], phi) != E.compose(psi.fwd, F.mor_map[rho]):
                    raise OracleDisagreement("transport square for lifted products broke")
    direct = preserves_binary_products(H, transferred, Fcert.target)
    if direct is None:
        raise OracleDisagreement("lifted functor failed the direct product check")
    for key, iso in direct.mu.items():
        if iso.fwd != built[key]:
            raise OracleDisagreement(
                f"constructive and direct product comparisons disagree at {key}"
            )
    return direct


def lift_preservation_equalizers(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    Fcert: EqualizerPreservationCert,
    transferred: dict[tuple[int, int], EqualizerW] | None = None,
) -> EqualizerPreservationCert:
    """As for products; transferred is the carried equalizer table."""
    _check_triangle(cert, F, H, alpha)
    D = cert.functor.target
    E = F.target
    if transferred is None:
        transferred, _ = transfer_equalizers(cert, Fcert.source)
    built: dict[tuple[int, int], int] = {}
    for u, v in parallel_pairs(D):
        y1 = D.mor_src[u]
        x1, phi1 = _phi(cert, H, alpha, y1)
        fc = _pull_back_morphism(cert, u)
        gc = _pull_back_morphism(cert, v)
        src = Fcert.source[(fc, gc)]
        entry_h = Fcert.target[(H.mor_map[u], H.mor_map[v])]
        entry_f = Fcert.target[(F.mor_map[fc], F.mor_map[gc])]
        theta = mediating_equalizer(E, entry_f, E.compose(entry_h.arrow, phi1))
        psi = alpha.components[src.obj]
        built[(u, v)] = E.compose_many(theta, Fcert.mu[(fc, gc)].fwd, psi.inv)
        tw = transferred[(u, v)]
        if E.compose(H.mor_map[tw.arrow], phi1) != E.compose(psi.fwd, F.mor_map[src.arrow]):
            raise OracleDisagreement("transport square for lifted equalizers broke")
    direct = preserves_equalizers(H, transferred, Fcert.target)
    if direct is None:
        raise OracleDisagreement("lifted functor failed the direct equalizer check")
    for key, iso in direct.mu.items():
        if iso.fwd != built[key]:
            raise OracleDisagreement(
                f"constructive and direct equalizer comparisons disagree at {key}"
            )
    return direct


def lift_preservation_pullbacks(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    Fcert: PullbackPreservationCert,
    transferred: dict[tuple[int, int], PullbackW] | None = None,
) -> PullbackPreservationCert:
    """As for products; transferred is the carried pullback table."""
    _check_triangle(cert, F, H, alpha)
    D = cert.functor.target
    E = F.target
    if transferred is None:
        transferred, _ = transfer_pullbacks(cert, Fcert.source)
    built: dict[tuple[int, int], int] = {}
    for u, v in cospan_pairs(D):
        x1, phi1 = _phi(cert, H, alpha, D.mor_src[u])
        x2, phi2 = _phi(cert, H, alpha, D.mor_src[v])
        fc = _pull_back_morphism(cert, u)
        gc = _pull_back_morphism(cert, v)
        src = Fcert.source[(fc, gc)]
        entry_h = Fcert.target[(H.mor_map[u], H.mor_map[v])]
        entry_f = Fcert.target[(F.mor_map[fc], F.mor_map[gc])]
        theta = mediating_pullback(
            E,
            entry_f,
            E.compose(entry_h.p1, phi1),
            E.compose(entry_h.p2, phi2),
        )
        psi = alpha.components[src.apex]
        built[(u, v)] = E.compose_many(theta, Fcert.mu[(fc, gc)].fwd, psi.inv)
        tw = transferred[(u, v)]
        for p, phi, rho in ((tw.p1, phi1, src.p1), (tw.p2, phi2, src.p2)):
            if E.compose(H.mor_map[p], phi) != E.compose(psi.fwd, F.mor_map[rho]):
                raise OracleDisagreement("transport square for lifted pullbacks broke")
    direct = preserves_pullbacks(H, transferred, Fcert.target)
    if direct is None:
        raise OracleDisagreement("lifted functor failed the direct pullback check")
    for key, iso in direct.mu.items():
        if iso.fwd != built[key]:
            raise OracleDisagreement(
                f"constructive and direct pullback comparisons disagree at {key}"
            )
    return direct


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

