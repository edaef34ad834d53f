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

from dataclasses import dataclass, replace

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
    mediating,
    preserves,
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
    source one, commuting with zero and successor.  A certificate that
    :func:`carry_pnno` returns holds, as back, the quasi-inverse's
    certificate from its re-validation; otherwise back is None."""

    functor: Functor
    comparison: Iso
    back: PNNOPreservationCert | None = None


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


def _image_triple(
    F: Functor, termC: ChosenTerminal, termD: ChosenTerminal, w: PNNOW
) -> PNNOW:
    """The image of w under F, its zero re-based onto termD."""
    D = F.target
    u = to_terminal(D, ChosenTerminal(F.obj_map[termC.t]), termD.t)
    return PNNOW(F.obj_map[w.N], D.compose(u, F.mor_map[w.z]), F.mor_map[w.s])


def check_pnno_along(F: Functor, src: dict, dst: dict) -> PNNOPreservationCert:
    """:func:`check_pnno` on the source of F, decided on its target, and F's
    preservation certificate of the witness of src into that of dst.

    F is a weak equivalence whose certificate was checked; the terminals
    and products of src and dst are checked, and the parameterized N of dst
    is known to be one.  A triple typed on the source (``z`` out of the
    chosen terminal into ``N``, ``s`` an endomorphism of ``N``) is a
    parameterized N exactly when its image is one, with the image zero
    re-based onto the terminal of dst: the equivalence F preserves and
    reflects the terminal, products and the parameterized N.  An image
    equal to the witness of dst is accepted, with the identity comparison,
    since the recursor of a parameterized N's own zero and successor is the
    product projection.  Any other is decided by :func:`preserves_pnno`
    alone: its comparison out of the known-good witness of dst is an iso
    exactly when the image is a parameterized N.
    """
    C = F.source
    termC, w = src["terminal"], src["pnno"]
    if (
        not C.has_morphisms(w.z, w.s)
        or C.mor_src[w.z] != termC.t
        or C.mor_dst[w.z] != w.N
        or C.mor_src[w.s] != w.N
        or C.mor_dst[w.s] != w.N
    ):
        raise InvalidCert("parameterized-N witness is not typed on the source")
    image = _image_triple(F, termC, dst["terminal"], w)
    if image == dst["pnno"]:
        one = F.target.identity[image.N]
        return PNNOPreservationCert(F, Iso(one, one))
    pres = preserves_pnno(F, src, dst, {})
    if pres is None:
        raise InvalidCert("parameterized-N witness fails its defining property")
    return pres


def transfer_pnno(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> tuple[PNNOW, PNNOPreservationCert]:
    """:func:`carry_pnno` after checking the witness of src on the source."""
    w = src["pnno"]
    if is_pnno(cert.functor.source, src["terminal"], src["products"], w.N, w.z, w.s) is None:
        raise PreconditionViolation("source witness is not a parameterized N")
    return carry_pnno(cert, src, dst)


def carry_pnno(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> tuple[PNNOW, PNNOPreservationCert]:
    """Transport a parameterized N valid on the source along the equivalence
    and re-validate it along the quasi-inverse (:func:`check_pnno_along`),
    which takes it back onto the witness it came from and returns the
    quasi-inverse's certificate as the back of the equivalence's; the
    terminal and products of dst must be checked."""
    G = cert.functor
    wD = _image_triple(G, src["terminal"], dst["terminal"], src["pnno"])
    carried = {**dst, "pnno": wD}
    try:
        back = check_pnno_along(cert.quasi_inverse, carried, src)
    except InvalidCert as e:
        raise OracleDisagreement(f"transferred triple failed re-validation: {e}") from None
    pres = preserves_pnno(G, src, carried, {})
    if pres is None:
        raise OracleDisagreement("equivalence does not preserve the witness it transferred")
    return wD, replace(pres, back=back)


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
    wD = _image_triple(G, termC, termD, PNNOW(N, z, s))
    if is_pnno(G.target, termD, prodsD, wD.N, wD.z, wD.s) is None:
        raise PreconditionViolation("image triple is not a parameterized N downstream")
    w = is_pnno(G.source, termC, prodsC, N, z, s)
    if w is None:
        raise ReflectionFails("image triple validates but the source triple does not")
    return w


def preserves_pnno(F: Functor, src: dict, dst: dict, certs: dict) -> PNNOPreservationCert | None:
    """Canonical comparison: the recursor at parameter t', stage F(N),
    restricted along the unit point of the product.  The terminal of dst is
    taken as checked, as it is in every bag the registry passes."""
    D = F.target
    termC, wC = src["terminal"], src["pnno"]
    termD, prodsD, wD = dst["terminal"], dst["products"], dst["pnno"]
    if preserves(TERMINAL, F, {(): termC}, {(): termD}) is None:
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
    Hcerts: dict,
) -> PNNOPreservationCert:
    """The comparison for the factored functor, decided directly; carried
    holds the terminal, products and parameterized N already transferred
    to the completion, and Hcerts H's certificates already lifted.  A
    refusal is an engine bug, as in :func:`limits.lift`."""
    _check_triangle(cert, F, H, alpha)
    direct = preserves_pnno(H, carried, dst, Hcerts)
    if direct is None:
        raise OracleDisagreement("lifted functor failed the direct check")
    return direct
