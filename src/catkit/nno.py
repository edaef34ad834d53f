"""Parameterized natural-number objects relative to chosen structure.

The defining property quantifies over every parameter object whose chosen
product with the candidate exists: for each parameter t', stage m, and data
(z': t' -> m, s': m -> m) there is exactly one recursor out of t' x N.
Pairs missing from a partial product table are skipped as vacuous, which is
only ever exercised on product-incomplete fragments.  The registry verbs
take witness bags holding the chosen terminal and products; ``is_pnno`` and
``reflect_pnno`` take them separately.  :func:`transfer_pnno` is
:func:`check_pnno` on the source followed by :func:`carry_pnno`, the lift
is :func:`limits.decide_lift` by ``preserves``, and :func:`preserves_pnno`
is the one place that compares an image triple with a chosen one.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FinCat,
    Functor,
    Iso,
    NatIso,
    WeakEquivalenceCert,
    budget_tick,
    find_iso,
)
from .errors import (
    InvalidCert,
    OracleDisagreement,
    PreconditionViolation,
    ReflectionFails,
)
from .limits import (
    TERMINAL,
    BinProductW,
    ChosenTerminal,
    decide_lift,
    mediating,
    preserves,
    to_terminal,
)


@dataclass(frozen=True)
class PNNOW:
    """z is the zero point out of the chosen terminal; s the successor."""

    N: int
    z: int
    s: int


@dataclass(frozen=True, eq=False)
class PNNOPreservationCert:
    """comparison runs from the codomain's candidate to the image of the
    source one, commuting with zero and successor."""

    functor: Functor
    comparison: Iso


def _recursor_arrows(
    C: FinCat,
    prods: dict[tuple[int, int], BinProductW],
    w: PNNOW,
    t_prime: int,
    term: ChosenTerminal,
) -> tuple[int, int, int]:
    """The apex of t' x N, the point (id, !;z) into it, and the step id x s
    on it."""
    entry = prods[(t_prime, w.N)]
    bang = to_terminal(C, term, t_prime)
    pair = mediating(C, entry, C.identity[t_prime], C.compose(bang, w.z))
    step = mediating(C, entry, entry.pi1, C.compose(entry.pi2, w.s))
    return entry.apex, pair, step


def _recursors(
    C: FinCat,
    prods: dict[tuple[int, int], BinProductW],
    w: PNNOW,
    t_prime: int,
    m: int,
    z_prime: int,
    s_prime: int,
    term: ChosenTerminal,
) -> list[int]:
    apex, pair, step = _recursor_arrows(C, prods, w, t_prime, term)
    out = []
    for f in C.hom(apex, m):
        budget_tick()
        if C.compose(pair, f) == z_prime and C.compose(step, f) == C.compose(f, s_prime):
            out.append(f)
    return out


def is_pnno(
    C: FinCat,
    term: ChosenTerminal,
    prods: dict[tuple[int, int], BinProductW],
    N: int,
    z: int,
    s: int,
) -> PNNOW | None:
    """The recursor arrows are built once per t', and the candidate
    recursors grouped by their restriction along the point once per
    (t', m); the budget ticks once per candidate per (z', s'), as it would
    testing each candidate."""
    if not C.has_morphisms(z, s) or C.mor_src[z] != term.t or C.mor_dst[z] != N:
        return None
    if C.mor_src[s] != N or C.mor_dst[s] != N:
        return None
    w = PNNOW(N, z, s)
    comp, hom = C.comp_table, C.hom_map.get
    for t_prime in range(C.n_objects):
        if (t_prime, N) not in prods:
            continue
        apex, pair, step = _recursor_arrows(C, prods, w, t_prime, term)
        for m in range(C.n_objects):
            z_primes = hom((t_prime, m), ())
            if not z_primes:
                continue
            candidates = hom((apex, m), ())
            by_point: dict[int, list[tuple[int, int]]] = {}   # pair;f -> [(f, step;f)]
            for f in candidates:
                by_point.setdefault(comp[pair][f], []).append((f, comp[step][f]))
            for z_prime in z_primes:
                fits = by_point.get(z_prime, ())
                for s_prime in hom((m, m), ()):
                    budget_tick(len(candidates))
                    if sum(1 for f, sf in fits if comp[f][s_prime] == sf) != 1:
                        return None
    return w


def check_pnno(C: FinCat, bag: dict) -> None:
    w = bag["pnno"]
    if is_pnno(C, bag["terminal"], bag["products"], w.N, w.z, w.s) is None:
        raise InvalidCert("parameterized-N witness fails its defining property")


def find_pnno(C: FinCat, bag: dict) -> PNNOW | None:
    term, prods = bag["terminal"], bag["products"]
    for N in range(C.n_objects):
        for z in C.hom(term.t, N):
            for s in C.hom(N, N):
                w = is_pnno(C, term, prods, N, z, s)
                if w is not None:
                    return w
    return None


def _refuse_out_of_range(C: FinCat, term: ChosenTerminal, w: PNNOW) -> None:
    if not (0 <= term.t < C.n_objects and 0 <= w.N < C.n_objects and C.has_morphisms(w.z, w.s)):
        raise InvalidCert(f"source parameterized-N witness {w} on {term} is out of range")


def _image_triple(
    F: Functor, termC: ChosenTerminal, termD: ChosenTerminal, w: PNNOW
) -> PNNOW:
    """The image of w under F, its zero re-based onto termD."""
    D = F.target
    u = to_terminal(D, ChosenTerminal(F.obj_map[termC.t]), termD.t)
    return PNNOW(F.obj_map[w.N], D.compose(u, F.mor_map[w.z]), F.mor_map[w.s])


def transfer_pnno(cert: WeakEquivalenceCert, src: dict, dst: dict) -> PNNOW:
    """:func:`check_pnno` on the source, then :func:`carry_pnno`."""
    check_pnno(cert.functor.source, src)
    return carry_pnno(cert, src, dst)


def carry_pnno(cert: WeakEquivalenceCert, src: dict, dst: dict) -> PNNOW:
    """The image of a parameterized N valid on the source along the
    equivalence, its zero re-based onto the terminal of dst, so that the
    triple is typed by construction; :func:`preserves_pnno` decides it."""
    return _image_triple(cert.functor, src["terminal"], dst["terminal"], src["pnno"])


def reflect_pnno(
    cert: WeakEquivalenceCert,
    termC: ChosenTerminal,
    prodsC: dict[tuple[int, int], BinProductW],
    termD: ChosenTerminal,
    prodsD: dict[tuple[int, int], BinProductW],
    N: int,
    z: int,
    s: int,
) -> PNNOW:
    """From a validated image triple back to the source; a triple out of
    range on the source is bad input, and a failure after a valid image an
    engine bug."""
    G = cert.functor
    _refuse_out_of_range(G.source, termC, PNNOW(N, z, s))
    wD = _image_triple(G, termC, termD, PNNOW(N, z, s))
    if is_pnno(G.target, termD, prodsD, wD.N, wD.z, wD.s) is None:
        raise PreconditionViolation("image triple is not a parameterized N downstream")
    w = is_pnno(G.source, termC, prodsC, N, z, s)
    if w is None:
        raise ReflectionFails("image triple validates but the source triple does not")
    return w


def preserves_pnno(F: Functor, src: dict, dst: dict, certs: dict) -> PNNOPreservationCert | None:
    """Canonical comparison: the recursor at parameter t', stage F(N),
    restricted along the unit point of the product.  It is the identity,
    unsearched, where the image triple, its zero re-based onto the terminal
    of dst, is the witness of dst, since the recursor of a parameterized
    N's own zero and successor is the product projection.  The terminal and
    parameterized N of dst are taken as checked, as they are in every bag
    the registry passes; a source triple out of range raises."""
    D = F.target
    termC, wC = src["terminal"], src["pnno"]
    termD, prodsD, wD = dst["terminal"], dst["products"], dst["pnno"]
    if preserves(TERMINAL, F, {(): termC}, {(): termD}) is None:
        return None
    _refuse_out_of_range(F.source, termC, wC)
    if (termD.t, wD.N) not in prodsD:
        raise PreconditionViolation("product table lacks the pair needed for the comparison")
    image = _image_triple(F, termC, termD, wC)
    if image == wD:
        one = D.identity[wD.N]
        return PNNOPreservationCert(F, Iso(one, one))
    hits = _recursors(D, prodsD, wD, termD.t, image.N, image.z, image.s, termD)
    if len(hits) != 1:
        raise OracleDisagreement("validated witness lost recursor uniqueness")
    entry = prodsD[(termD.t, wD.N)]
    point = mediating(
        D, entry, to_terminal(D, termD, wD.N), D.identity[wD.N]
    )
    c = D.compose(point, hits[0])
    if D.compose(wD.z, c) != image.z or D.compose(wD.s, c) != D.compose(c, image.s):
        raise OracleDisagreement("comparison fails zero or successor compatibility")
    iso = find_iso(D, c)
    if iso is None:
        return None
    return PNNOPreservationCert(F, iso)


def lift_preservation_pnno(
    cert: WeakEquivalenceCert, F: Functor, H: Functor, alpha: NatIso, src: dict, dst: dict,
    Fcerts: dict, carried: dict, Hcerts: dict,
) -> PNNOPreservationCert:
    """The comparison for the factored functor, decided directly; carried
    holds the terminal, products and parameterized N already transferred
    to the completion, and Hcerts H's certificates already lifted."""
    return decide_lift("parameterized-N", cert, F, H, alpha, preserves_pnno, carried, dst, Hcerts)
