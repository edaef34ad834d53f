"""Exponential objects relative to chosen binary products.

An exponential witness for a pair (x, y) names the object of maps from x to
y together with its evaluation morphism out of the chosen product.  All
checks quantify exhaustively over currying candidates, and transfer along a
weak equivalence re-validates every produced witness.  The registry verbs
(``check``, ``find``, ``transfer``, ``preserves`` and ``lift_preservation``)
take witness bags and read the chosen products from them; ``is_exponential``,
``curry`` and ``find_exponential`` take the product table itself.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Functor,
    FinCat,
    Iso,
    NatIso,
    WeakEquivalenceCert,
    budget_tick,
    find_iso,
)
from .errors import (
    InvalidCert,
    NotACone,
    OracleDisagreement,
    PreconditionViolation,
)
from .limits import (
    PRODUCTS,
    BinProductW,
    LimitPreservationCert,
    mediating,
    preserves_binary_products,
    _check_triangle,
    _phi,
)


@dataclass(frozen=True)
class ExponentialW:
    """obj is the object of maps from x to y; ev evaluates out of the chosen
    product of (obj, x)."""

    x: int
    y: int
    obj: int
    ev: int


@dataclass(frozen=True, eq=False)
class ExpPreservationCert:
    """comparison[(x, y)] runs from F(obj) to the chosen exponential of the
    images, commuting with evaluations through the product comparison."""

    functor: Functor
    source: dict[tuple[int, int], ExponentialW]
    target: dict[tuple[int, int], ExponentialW]
    comparison: dict[tuple[int, int], Iso]


def _pairing(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], lam: int, x: int
) -> int:
    """lam x id_x: the mediator taking the product of (src lam, x) to the
    product of (dst lam, x)."""
    src_w = prods[(C.mor_src[lam], x)]
    dst_w = prods[(C.mor_dst[lam], x)]
    return mediating(C, dst_w, C.compose(src_w.pi1, lam), src_w.pi2)


def is_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], w: ExponentialW
) -> bool:
    entry = prods.get((w.obj, w.x))
    if entry is None or not C.has_morphisms(w.ev):
        return False
    if C.mor_src[w.ev] != entry.apex or C.mor_dst[w.ev] != w.y:
        return False
    for z in range(C.n_objects):
        zx = prods.get((z, w.x))
        if zx is None:
            return False
        for f in C.hom(zx.apex, w.y):
            budget_tick()
            hits = 0
            for lam in C.hom(z, w.obj):
                if C.compose(_pairing(C, prods, lam, w.x), w.ev) == f:
                    hits += 1
            if hits != 1:
                return False
    return True


def curry(
    C: FinCat,
    prods: dict[tuple[int, int], BinProductW],
    w: ExponentialW,
    z: int,
    f: int,
) -> int:
    """The unique lam out of z with (lam x id);ev = f, for f out of the
    chosen product of (z, w.x)."""
    entry = prods.get((z, w.x))
    if entry is None or entry.apex != C.mor_src[f] or C.mor_dst[f] != w.y:
        raise NotACone("morphism is not shaped like an uncurried map out of z")
    hits = [
        lam
        for lam in C.hom(z, w.obj)
        if C.compose(_pairing(C, prods, lam, w.x), w.ev) == f
    ]
    if len(hits) != 1:
        raise InvalidCert(f"exponential witness admits {len(hits)} curried forms")
    return hits[0]


def find_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], x: int, y: int
) -> ExponentialW | None:
    for obj in range(C.n_objects):
        entry = prods.get((obj, x))
        if entry is None:
            return None
        for ev in C.hom(entry.apex, y):
            w = ExponentialW(x, y, obj, ev)
            if is_exponential(C, prods, w):
                return w
    return None


def check_exponentials(C: FinCat, bag: dict) -> None:
    table = bag["exponentials"]
    prods = bag["products"]
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            w = table.get((x, y))
            if w is None or (w.x, w.y) != (x, y) or not is_exponential(C, prods, w):
                raise InvalidCert(f"exponential table is wrong at ({x},{y})")


def find_exponentials(C: FinCat, bag: dict) -> dict[tuple[int, int], ExponentialW] | None:
    prods = bag["products"]
    out = {}
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            w = find_exponential(C, prods, x, y)
            if w is None:
                return None
            out[(x, y)] = w
    return out


def exponential_comparison(
    C: FinCat,
    prods: dict[tuple[int, int], BinProductW],
    a: ExponentialW,
    b: ExponentialW,
) -> Iso:
    """Canonical iso between two exponentials of the same pair."""
    if (a.x, a.y) != (b.x, b.y):
        raise NotACone("witnesses do not exponentiate the same pair")
    # a.ev leaves the chosen product of (a.obj, x), which is exactly the
    # domain currying against b expects
    fwd = curry(C, prods, b, a.obj, a.ev)
    iso = find_iso(C, fwd)
    if iso is None:
        raise OracleDisagreement("comparison between two exponentials is not invertible")
    return iso


def transfer_exponentials(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> tuple[dict[tuple[int, int], ExponentialW], ExpPreservationCert]:
    """Push every exponential of src along the equivalence: the image witness
    is re-based onto the chosen products of dst through the mediator of the
    image cone, then re-validated."""
    G = cert.functor
    C, D = G.source, G.target
    prodsC, expsC, prodsD = src["products"], src["exponentials"], dst["products"]
    for key, w in expsC.items():
        if (w.x, w.y) != key or not is_exponential(C, prodsC, w):
            raise InvalidCert(f"source exponential table entry {key} is invalid")
    out: dict[tuple[int, int], ExponentialW] = {}
    for d1 in range(D.n_objects):
        for d2 in range(D.n_objects):
            x1, i1 = cert.eso_witness[d1]
            x2, i2 = cert.eso_witness[d2]
            wC = expsC.get((x1, x2))
            if wC is None:
                raise PreconditionViolation(f"source table lacks the exponential of ({x1},{x2})")
            image = PRODUCTS.image(G, prodsC[(wC.obj, x1)])
            target_entry = prodsD[(G.obj_map[wC.obj], d1)]
            try:
                u = mediating(D, image, target_entry.pi1, D.compose(target_entry.pi2, i1.inv))
            except InvalidCert:
                raise OracleDisagreement(
                    "image of a chosen product stopped being a product during transfer"
                ) from None
            ev = D.compose_many(u, G.mor_map[wC.ev], i2.fwd)
            w = ExponentialW(d1, d2, G.obj_map[wC.obj], ev)
            if not is_exponential(D, prodsD, w):
                raise OracleDisagreement(
                    f"transferred exponential at ({d1},{d2}) failed re-validation"
                )
            out[(d1, d2)] = w
    muG = preserves_binary_products(G, prodsC, prodsD)
    if muG is None:
        raise OracleDisagreement("equivalence does not preserve the products in scope")
    pres = preserves_exponentials(
        G, src, {"products": prodsD, "exponentials": out}, {"products": muG}
    )
    if pres is None:
        raise OracleDisagreement("equivalence does not preserve the exponentials it transferred")
    return out, pres


def preserves_exponentials(
    F: Functor, src: dict, dst: dict, certs: dict
) -> ExpPreservationCert | None:
    """Canonical comparison by currying mu;F(ev), with mu from F's products
    certificate in certs; None when some comparison fails to invert.  An
    invalid target exponential raises."""
    D = F.target
    expsC, prodsD, expsD = src["exponentials"], dst["products"], dst["exponentials"]
    muF = certs["products"]
    comparison: dict[tuple[int, int], Iso] = {}
    for (x, y), w in expsC.items():
        target = expsD[(F.obj_map[x], F.obj_map[y])]
        mu = muF.mu[(w.obj, x)]
        g = D.compose(mu.fwd, F.mor_map[w.ev])
        try:
            lam = curry(D, prodsD, target, F.obj_map[w.obj], g)
        except NotACone:
            return None
        iso = find_iso(D, lam)
        if iso is None:
            return None
        comparison[(x, y)] = iso
    return ExpPreservationCert(F, expsC, expsD, comparison)


def check_exp_preservation(
    cert: ExpPreservationCert,
    prodsC: dict[tuple[int, int], BinProductW],
    prodsD: dict[tuple[int, int], BinProductW],
    muF: LimitPreservationCert,
) -> None:
    """Re-derive each comparison's defining equation from scratch."""
    F = cert.functor
    D = F.target
    for (x, y), w in cert.source.items():
        target = cert.target[(F.obj_map[x], F.obj_map[y])]
        comp = cert.comparison[(x, y)]
        if find_iso(D, comp.fwd) != comp:
            raise InvalidCert(f"comparison at ({x},{y}) is not an isomorphism")
        mu = muF.mu[(w.obj, x)]
        g = D.compose(mu.fwd, F.mor_map[w.ev])
        if D.compose(_pairing(D, prodsD, comp.fwd, target.x), target.ev) != g:
            raise InvalidCert(f"comparison at ({x},{y}) does not commute with evaluation")


def lift_preservation_exponentials(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    src: dict,
    dst: dict,
    Fcerts: dict,
    carried: dict,
) -> ExpPreservationCert:
    """Preservation of transferred exponentials for the factored functor:
    comparisons built constructively from F's data through alpha must match
    the direct decision procedure exactly.  carried holds the products and
    exponentials already transferred to the completion."""
    _check_triangle(cert, F, H, alpha)
    E = F.target
    prodsD, expsD = carried["products"], carried["exponentials"]
    prodsE, expsE = dst["products"], dst["exponentials"]
    FexpCert = Fcerts["exponentials"]
    HprodCert = preserves_binary_products(H, prodsD, prodsE)
    if HprodCert is None:
        raise PreconditionViolation("factored functor does not preserve the products in scope")
    direct = preserves_exponentials(H, carried, dst, {"products": HprodCert})
    if direct is None:
        raise OracleDisagreement("lifted functor failed the direct exponential check")
    for y1, y2 in expsD:
        x1, phi1 = _phi(cert, H, alpha, y1)
        x2, phi2 = _phi(cert, H, alpha, y2)
        srcC = src["exponentials"][(x1, x2)]
        ef = expsE[(F.obj_map[x1], F.obj_map[x2])]
        eh = expsE[(H.obj_map[y1], H.obj_map[y2])]
        # xi: chosen exponential of the F-pair to the chosen one of the H-pair
        pf = prodsE[(ef.obj, H.obj_map[y1])]
        pfx = prodsE[(ef.obj, F.obj_map[x1])]
        route = mediating(E, pfx, pf.pi1, E.compose(pf.pi2, phi1))
        phi2_inv = find_iso(E, phi2)
        if phi2_inv is None:
            raise OracleDisagreement("transport iso is not invertible")
        xi = curry(E, prodsE, eh, ef.obj, E.compose_many(route, ef.ev, phi2_inv.inv))
        built = E.compose_many(
            alpha.components[srcC.obj].fwd, FexpCert.comparison[(x1, x2)].fwd, xi
        )
        if built != direct.comparison[(y1, y2)].fwd:
            raise OracleDisagreement(
                f"constructive and direct exponential comparisons disagree at ({y1},{y2})"
            )
    return direct
