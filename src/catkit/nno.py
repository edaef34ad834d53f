"""Parameterized natural-number objects relative to chosen structure.

The defining property quantifies over every parameter object whose chosen
product with the candidate exists: for each parameter t', stage m, and data
(z': t' -> m, s': m -> m) there is exactly one recursor out of t' x N.
Pairs missing from a partial product table are skipped as vacuous, which is
only ever exercised on product-incomplete fragments.  The registry verbs
take witness bags holding the chosen terminal and products; ``is_pnno`` and
``reflect_pnno`` take them separately.
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
    BinProductW,
    ChosenTerminal,
    mediating,
    preserves_terminal,
    to_terminal,
    _check_triangle,
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
    entry = prods[(t_prime, w.N)]
    bang = to_terminal(C, term, t_prime)
    pair = mediating(C, entry, C.identity[t_prime], C.compose(bang, w.z))
    step = mediating(C, entry, entry.pi1, C.compose(entry.pi2, w.s))
    out = []
    for f in C.hom(entry.apex, m):
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
    if not C.has_morphisms(z, s) or C.mor_src[z] != term.t or C.mor_dst[z] != N:
        return None
    if C.mor_src[s] != N or C.mor_dst[s] != N:
        return None
    w = PNNOW(N, z, s)
    for t_prime in range(C.n_objects):
        if (t_prime, N) not in prods:
            continue
        for m in range(C.n_objects):
            for z_prime in C.hom(t_prime, m):
                for s_prime in C.hom(m, m):
                    if len(_recursors(C, prods, w, t_prime, m, z_prime, s_prime, term)) != 1:
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


def _transported_triple(
    cert: WeakEquivalenceCert, termC: ChosenTerminal, termD: ChosenTerminal, w: PNNOW
) -> PNNOW:
    G = cert.functor
    D = G.target
    u = to_terminal(D, ChosenTerminal(G.obj_map[termC.t]), termD.t)
    return PNNOW(G.obj_map[w.N], D.compose(u, G.mor_map[w.z]), G.mor_map[w.s])


def transfer_pnno(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> tuple[PNNOW, PNNOPreservationCert]:
    G = cert.functor
    termC, prodsC, w = src["terminal"], src["products"], src["pnno"]
    termD, prodsD = dst["terminal"], dst["products"]
    if is_pnno(G.source, termC, prodsC, w.N, w.z, w.s) is None:
        raise PreconditionViolation("source witness is not a parameterized N")
    wD = _transported_triple(cert, termC, termD, w)
    if is_pnno(G.target, termD, prodsD, wD.N, wD.z, wD.s) is None:
        raise OracleDisagreement("transferred triple failed re-validation")
    pres = preserves_pnno(G, src, {**dst, "pnno": wD}, {})
    if pres is None:
        raise OracleDisagreement("equivalence does not preserve the witness it transferred")
    return wD, pres


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
    """From a validated image triple back to the source; failure after a
    valid image is an engine bug, not bad input."""
    G = cert.functor
    wD = _transported_triple(cert, termC, termD, PNNOW(N, z, s))
    if is_pnno(G.target, termD, prodsD, wD.N, wD.z, wD.s) is None:
        raise PreconditionViolation("image triple is not a parameterized N downstream")
    w = is_pnno(G.source, termC, prodsC, N, z, s)
    if w is None:
        raise ReflectionFails("image triple validates but the source triple does not")
    return w


def preserves_pnno(F: Functor, src: dict, dst: dict, certs: dict) -> PNNOPreservationCert | None:
    """Canonical comparison: the recursor at parameter t', stage F(N),
    restricted along the unit point of the product."""
    D = F.target
    termC, wC = src["terminal"], src["pnno"]
    termD, prodsD, wD = dst["terminal"], dst["products"], dst["pnno"]
    if preserves_terminal(F, termC, termD) is None:
        return None
    if (termD.t, wD.N) not in prodsD:
        raise PreconditionViolation("product table lacks the pair needed for the comparison")
    u = to_terminal(D, ChosenTerminal(F.obj_map[termC.t]), termD.t)
    z_img = D.compose(u, F.mor_map[wC.z])
    s_img = F.mor_map[wC.s]
    hits = _recursors(D, prodsD, wD, termD.t, F.obj_map[wC.N], z_img, s_img, termD)
    if len(hits) != 1:
        raise OracleDisagreement("validated witness lost recursor uniqueness")
    entry = prodsD[(termD.t, wD.N)]
    point = mediating(
        D, entry, to_terminal(D, termD, wD.N), D.identity[wD.N]
    )
    c = D.compose(point, hits[0])
    if D.compose(wD.z, c) != z_img or D.compose(wD.s, c) != D.compose(c, s_img):
        raise OracleDisagreement("comparison fails zero or successor compatibility")
    iso = find_iso(D, c)
    if iso is None:
        return None
    return PNNOPreservationCert(F, iso)


def lift_preservation_pnno(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    src: dict,
    dst: dict,
    Fcerts: dict,
    carried: dict,
) -> PNNOPreservationCert:
    """Comparison for the factored functor, built from F's through alpha;
    zero/successor compatibility pins it down, so the direct decision
    procedure must return the same morphism.  carried holds the terminal,
    products and parameterized N already transferred to the completion."""
    _check_triangle(cert, F, H, alpha)
    E = F.target
    direct = preserves_pnno(H, carried, dst, {})
    if direct is None:
        raise OracleDisagreement("lifted functor failed the direct check")
    built = E.compose(Fcerts["pnno"].comparison.fwd, alpha.components[src["pnno"].N].inv)
    if built != direct.comparison.fwd:
        raise OracleDisagreement("constructive and direct comparisons disagree")
    return direct
