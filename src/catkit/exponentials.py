"""Exponential objects relative to chosen binary products.

An exponential witness for a pair (x, y) names the object of maps from x to
y together with its evaluation morphism out of the chosen product.  All
checks quantify exhaustively over currying candidates, and transfer along a
weak equivalence re-validates every produced witness.  The registry verbs
(``check``, ``check_along``, ``find``, ``transfer``, ``carry``,
``preserves`` and ``lift_preservation``) take witness bags and read the
chosen products, or a functor's certificate for them, from them;
``is_exponential``, ``curry`` and ``find_exponential`` take the
product table itself.  The searches test each typed candidate ``ev`` with
the universal-property loop alone, and one sweep of ``find_exponentials``
or ``check_exponentials`` computes each ``lam x id_x`` once.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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
    mediating,
    preserves_binary_products,
    _check_triangle,
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
    images, commuting with evaluations through the product comparison.  A
    certificate that :func:`carry_exponentials` returns holds, as back, the
    quasi-inverse's certificate from its re-validation; otherwise back is
    None."""

    functor: Functor
    source: dict[tuple[int, int], ExponentialW]
    target: dict[tuple[int, int], ExponentialW]
    comparison: dict[tuple[int, int], Iso]
    back: ExpPreservationCert | None = None


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
    return _is_exponential(C, prods, w, {})


def _is_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], w: ExponentialW, pairs: dict
) -> bool:
    """:func:`is_exponential`, reading lam x id_x through the memo pairs,
    which maps (lam, x) to :func:`_pairing` for these C and prods."""
    entry = prods.get((w.obj, w.x))
    if entry is None or not C.has_morphisms(w.ev):
        return False
    if C.mor_src[w.ev] != entry.apex or C.mor_dst[w.ev] != w.y:
        return False
    return _exponential_universal(C, prods, w.x, w.y, w.obj, w.ev, pairs)


def _exponential_universal(
    C: FinCat,
    prods: dict[tuple[int, int], BinProductW],
    x: int,
    y: int,
    obj: int,
    ev: int,
    pairs: dict,
) -> bool:
    """Every f out of the chosen product of (z, x) into y curries exactly
    once; ev is typed out of the chosen product of (obj, x) into y."""
    comp, hom = C.comp_table, C.hom_map.get
    for z in range(C.n_objects):
        zx = prods.get((z, x))
        if zx is None:
            return False
        once = None   # the image table of hom(z, obj), built at the first cone from z
        for f in hom((zx.apex, y), ()):
            budget_tick()
            if once is None:
                once = {}
                for lam in hom((z, obj), ()):
                    pair = pairs.get((lam, x))
                    if pair is None:
                        pair = pairs[(lam, x)] = _pairing(C, prods, lam, x)
                    g = comp[pair][ev]
                    once[g] = g not in once
            if not once.get(f):
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
    return _find_exponential(C, prods, x, y, {})


def _find_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], x: int, y: int, pairs: dict
) -> ExponentialW | None:
    """Lowest obj first, then lowest ev.  Each ev is drawn from the hom out
    of the chosen product of (obj, x) into y, so it is typed and goes
    straight to the universal property; only the winner becomes a
    witness."""
    for obj in range(C.n_objects):
        entry = prods.get((obj, x))
        if entry is None:
            return None
        for ev in C.hom(entry.apex, y):
            if _exponential_universal(C, prods, x, y, obj, ev, pairs):
                return ExponentialW(x, y, obj, ev)
    return None


def check_exponentials(C: FinCat, bag: dict) -> None:
    table = bag["exponentials"]
    prods = bag["products"]
    pairs: dict = {}   # (lam, x) -> lam x id_x, shared by the whole sweep
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            w = table.get((x, y))
            if w is None or (w.x, w.y) != (x, y) or not _is_exponential(C, prods, w, pairs):
                raise InvalidCert(f"exponential table is wrong at ({x},{y})")


def check_exponentials_along(F: Functor, src: dict, dst: dict) -> ExpPreservationCert:
    """:func:`check_exponentials` on the source of F, decided on its target,
    and F's preservation certificate of the exponentials of src into those
    of dst.

    F is a weak equivalence whose certificate was checked; the products of
    src and dst are checked tables, and the exponentials of dst are known
    to be exponentials.  A witness keyed by its pair and typed on the source
    (``ev`` out of the chosen product of ``(obj, x)`` into ``y``) is an
    exponential exactly when its image is one, with the image ``ev``
    re-based onto the chosen product of the images through the mediator of
    the image product, which is ``mu;F(ev)`` for the product comparison
    ``mu``: the equivalence F preserves and reflects products and
    exponentials.  Each distinct image is decided once by its comparison
    with the exponential of dst at its pair (:func:`_comparison_at`).
    """
    C, D = F.source, F.target
    table, prodsC, prodsD = src["exponentials"], src["products"], dst["products"]
    expsD = dst["exponentials"]
    rebase: dict[tuple[int, int], int] = {}   # (obj, x) -> mediator onto the image product
    by_image: dict[tuple[int, int, int, int], Iso] = {}   # image witness -> comparison
    comparison: dict[tuple[int, int], Iso] = {}
    n = C.n_objects
    for x in range(n):
        for y in range(n):
            w = table.get((x, y))
            entry = None if w is None or not 0 <= w.obj < n else prodsC.get((w.obj, x))
            if (
                entry is None
                or (w.x, w.y) != (x, y)
                or not C.has_morphisms(w.ev)
                or C.mor_src[w.ev] != entry.apex
                or C.mor_dst[w.ev] != y
            ):
                raise InvalidCert(f"exponential table is wrong at ({x},{y})")
            u = rebase.get((w.obj, x))
            if u is None:
                chosen = prodsD[(F.obj_map[w.obj], F.obj_map[x])]
                u = mediating(D, PRODUCTS.image(F, entry), chosen.pi1, chosen.pi2)
                rebase[(w.obj, x)] = u
            image = (F.obj_map[x], F.obj_map[y], F.obj_map[w.obj], D.compose(u, F.mor_map[w.ev]))
            iso = by_image.get(image)
            if iso is None:
                iso = _comparison_at(D, prodsD, expsD[image[:2]], image[2], image[3])
                if iso is None:
                    raise InvalidCert(f"exponential table is wrong at ({x},{y})")
                by_image[image] = iso
            comparison[(x, y)] = iso
    return ExpPreservationCert(F, table, expsD, comparison)


def find_exponentials(C: FinCat, bag: dict) -> dict[tuple[int, int], ExponentialW] | None:
    prods = bag["products"]
    pairs: dict = {}   # (lam, x) -> lam x id_x, shared by the whole sweep
    out = {}
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            w = _find_exponential(C, prods, x, y, pairs)
            if w is None:
                return None
            out[(x, y)] = w
    return out


def transfer_exponentials(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> tuple[dict[tuple[int, int], ExponentialW], ExpPreservationCert]:
    """:func:`carry_exponentials` after checking every exponential of src on
    the source."""
    C = cert.functor.source
    for key, w in src["exponentials"].items():
        if (w.x, w.y) != key or not is_exponential(C, src["products"], w):
            raise InvalidCert(f"source exponential table entry {key} is invalid")
    return carry_exponentials(cert, src, dst)


def carry_exponentials(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> tuple[dict[tuple[int, int], ExponentialW], ExpPreservationCert]:
    """Push every exponential of src, each valid on the source, along the
    equivalence: the image witness is re-based onto the chosen products of
    dst through the mediator of the image cone.  The result is re-validated
    along the quasi-inverse (:func:`check_exponentials_along`), which takes
    it back onto the source entries it came from and returns the
    quasi-inverse's certificate as the back of the equivalence's; the
    products of dst must be a checked table."""
    G = cert.functor
    D = G.target
    prodsC, expsC, prodsD = src["products"], src["exponentials"], dst["products"]
    out: dict[tuple[int, int], ExponentialW] = {}
    rebase: dict[tuple[int, int], int] = {}   # (wC.obj, d1) -> mediator onto the target product
    for d1 in range(D.n_objects):
        for d2 in range(D.n_objects):
            x1, i1 = cert.eso_witness[d1]
            x2, i2 = cert.eso_witness[d2]
            wC = expsC.get((x1, x2))
            if wC is None:
                raise PreconditionViolation(f"source table lacks the exponential of ({x1},{x2})")
            u = rebase.get((wC.obj, d1))
            if u is None:
                image = PRODUCTS.image(G, prodsC[(wC.obj, x1)])
                target_entry = prodsD[(G.obj_map[wC.obj], d1)]
                try:
                    u = mediating(D, image, target_entry.pi1, D.compose(target_entry.pi2, i1.inv))
                except InvalidCert:
                    raise OracleDisagreement(
                        "image of a chosen product stopped being a product during transfer"
                    ) from None
                rebase[(wC.obj, d1)] = u
            ev = D.compose_many(u, G.mor_map[wC.ev], i2.fwd)
            out[(d1, d2)] = ExponentialW(d1, d2, G.obj_map[wC.obj], ev)
    try:
        back = check_exponentials_along(
            cert.quasi_inverse, {"products": prodsD, "exponentials": out}, src
        )
    except InvalidCert as e:
        raise OracleDisagreement(f"transferred exponentials failed re-validation: {e}") from None
    muG = preserves_binary_products(G, prodsC, prodsD)
    if muG is None:
        raise OracleDisagreement("equivalence does not preserve the products in scope")
    pres = preserves_exponentials(
        G, src, {"products": prodsD, "exponentials": out}, {"products": muG}
    )
    if pres is None:
        raise OracleDisagreement("equivalence does not preserve the exponentials it transferred")
    return out, replace(pres, back=back)


def _comparison_at(
    D: FinCat,
    prods: dict[tuple[int, int], BinProductW],
    target: ExponentialW,
    obj: int,
    g: int,
) -> Iso | None:
    """The comparison from obj, with evaluation g out of the chosen product
    of (obj, target.x) into target.y, to the chosen exponential target;
    None when it is not an iso.  target must be an exponential: the
    identity is then taken unsearched where obj and g are target's obj and
    ev, since the only endomorphism of an exponential that commutes with
    its evaluation is the identity, and otherwise g curries through target
    exactly once."""
    if obj == target.obj and g == target.ev:
        one = D.identity[obj]
        return Iso(one, one)
    try:
        lam = curry(D, prods, target, obj, g)
    except NotACone:
        return None
    return find_iso(D, lam)


def preserves_exponentials(
    F: Functor, src: dict, dst: dict, certs: dict
) -> ExpPreservationCert | None:
    """Canonical comparison by currying mu;F(ev), with mu from F's products
    certificate in certs; None when some comparison fails to invert.  An
    invalid target exponential raises.  The target exponentials must be
    exponentials, as every found or checked table is
    (:func:`_comparison_at`)."""
    D = F.target
    expsC, prodsD, expsD = src["exponentials"], dst["products"], dst["exponentials"]
    muF = certs["products"]
    comparison: dict[tuple[int, int], Iso] = {}
    for (x, y), w in expsC.items():
        target = expsD[(F.obj_map[x], F.obj_map[y])]
        g = D.compose(muF.mu[(w.obj, x)].fwd, F.mor_map[w.ev])
        iso = _comparison_at(D, prodsD, target, F.obj_map[w.obj], g)
        if iso is None:
            return None
        comparison[(x, y)] = iso
    return ExpPreservationCert(F, expsC, expsD, comparison)


def lift_preservation_exponentials(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    src: dict,
    dst: dict,
    Fcerts: dict,
    carried: dict,
    Hcerts: dict,
) -> ExpPreservationCert:
    """Preservation of the transferred exponentials for the factored
    functor, decided directly through H's certificate for the products in
    scope, which Hcerts holds already lifted.  carried holds the products
    and exponentials already transferred to the completion; a refusal of
    the exponentials is an engine bug, as in :func:`limits.lift`."""
    _check_triangle(cert, F, H, alpha)
    direct = preserves_exponentials(H, carried, dst, Hcerts)
    if direct is None:
        raise OracleDisagreement("lifted functor failed the direct exponential check")
    return direct
