"""Parameterized natural-number objects relative to chosen structure,
decided by order.

A parameterized N is a triple (N, z: 1 -> N, s: N -> N) such that for each
parameter t', stage m and data (z': t' -> m, s': m -> m) there is exactly
one recursor out of t' x N; its witness :class:`PNNOW` is that triple, a
``NamedTuple`` of indices.  It needs binary products, which a finite
category has only when it is thin (Freyd; Mac Lane, CWM V.2, Prop. 3).  On
a thin category whose chosen products with N are meets
(``limits._meet_apexes``), a parameterized N is a top with its one zero and
the identity as successor: an arrow from the terminal into N makes N a
top, and every recursor is the one arrow from t' x N, which lies below t'
and so below m.  Every verb here decides by that rule; elsewhere the
predicates answer None, the search returns None, and ``check`` and
``preserves`` refuse with ``InvalidCert``.  The general loop over
recursors is kept in the tests as the rule's oracle.

The registry verbs take witness bags holding the chosen terminal and
products; ``is_pnno`` and ``reflect_pnno`` take them separately.
:func:`transfer_pnno` is :func:`check_pnno` on the source and the check
of the certificate, followed by :func:`carry_pnno`, the lift is
:func:`limits.decide_lift` by ``preserves``, and :func:`preserves_pnno` is
the one place that compares an image triple with a chosen one, by the pair
of arrows between their N.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    MORPHISM,
    OBJECT,
    FinCat,
    Functor,
    Iso,
    NatIso,
    WeakEquivalenceCert,
    all_ints,
    check_weak_equivalence_cert,
    first_bad_field,
    was_found,
)
from .errors import (
    InvalidCert,
    PreconditionViolation,
    ReflectionFails,
)
from .limits import (
    TERMINAL,
    BinProductW,
    ChosenTerminal,
    check_table,
    decide_lift,
    preserves,
    refuse_missing_kinds,
    to_terminal,
    _meet_apexes,
)


class PNNOW(NamedTuple):
    """z is the zero point out of the chosen terminal; s the successor."""

    N: int
    z: int
    s: int


# each field of a parameterized-N witness, with its name in a category document
FIELDS = (("N", OBJECT), ("z", MORPHISM), ("s", MORPHISM))


@dataclass(frozen=True, eq=False)
class PNNOPreservationCert:
    """comparison runs from the codomain's candidate to the image of the
    source one, commuting with zero and successor."""

    functor: Functor
    comparison: Iso


def is_pnno(
    C: FinCat,
    term: ChosenTerminal,
    prods: dict[tuple[int, int], BinProductW],
    N: int,
    z: int,
    s: int,
) -> PNNOW | None:
    """The triple when z runs from the chosen terminal into N and s from N
    to N, on a thin category whose chosen products with N are meets: N is
    then a top, and for every parameter t', stage m and data (z', s') the
    one arrow from t' x N, which lies below t' and so below m, is the one
    recursor.  A field of the triple that is not an int
    (``core.all_ints``) or names nothing of C makes it none.  A chosen
    terminal that is not terminal raises; the terminal check is the one
    tick."""
    if not (all_ints((N, z, s)) and C.has_morphisms(z, s)) \
            or (C.mor_src[z], C.mor_dst[z]) != (term.t, N) \
            or (C.mor_src[s], C.mor_dst[s]) != (N, N) or _meet_apexes(C, prods, N) is None:
        return None
    check_table(TERMINAL, C, {(): term})
    return PNNOW(N, z, s)


def check_pnno(C: FinCat, bag: dict) -> None:
    refuse_missing_kinds(bag, ("terminal", "products", "pnno"))
    w = bag["pnno"]
    if first_bad_field(C, FIELDS, zip(w)) is not None \
            or is_pnno(C, bag["terminal"], bag["products"], w.N, w.z, w.s) is None:
        raise InvalidCert("parameterized-N witness fails its defining property")


def find_pnno(C: FinCat, bag: dict) -> PNNOW | None:
    """The lowest object N with an arrow z from the chosen terminal, with z
    and its identity, when :func:`is_pnno` accepts them: on a thin category
    the lowest top, the triple a search over (N, z, s) meets first."""
    refuse_missing_kinds(bag, ("terminal", "products"))
    term = bag["terminal"]
    N = next((N for N in range(C.n_objects) if C.hom(term.t, N)), None)
    if N is None:
        return None
    return is_pnno(C, term, bag["products"], N, C.hom(term.t, N)[0], C.identity[N])


def _refuse_misnamed(side: str, C: FinCat, term: ChosenTerminal, w: PNNOW) -> None:
    """Refuse a terminal or a triple with a field that names nothing of C."""
    if first_bad_field(C, TERMINAL.fields + FIELDS, zip((*term, *w))) is not None:
        raise InvalidCert(f"{side} parameterized-N witness {w} on {term} is out of range")


def _image_triple(
    F: Functor, termC: ChosenTerminal, termD: ChosenTerminal, w: PNNOW
) -> PNNOW:
    """The image of w under F, its zero re-based onto termD."""
    D = F.target
    u = to_terminal(D, ChosenTerminal(F.obj_map[termC.t]), termD.t)
    return PNNOW(F.obj_map[w.N], D.compose(u, F.mor_map[w.z]), F.mor_map[w.s])


def transfer_pnno(cert: WeakEquivalenceCert, src: dict, dst: dict) -> PNNOW:
    """:func:`check_pnno` on the source and
    :func:`check_weak_equivalence_cert`, then :func:`carry_pnno`.  Entries
    found on this very source instance are not checked again, as in
    ``limits.transfer``."""
    refuse_missing_kinds(src, ("terminal", "products", "pnno"))
    refuse_missing_kinds(dst, ("terminal",))
    if not was_found(cert.functor.source, src, ("terminal", "products", "pnno")):
        check_pnno(cert.functor.source, src)
    check_weak_equivalence_cert(cert)
    return carry_pnno(cert, src, dst)


def carry_pnno(cert: WeakEquivalenceCert, src: dict, dst: dict) -> PNNOW:
    """The image of the parameterized N of src along the equivalence, its
    zero re-based onto the terminal of dst, so that the triple is typed by
    construction.  The triple must be checked on the source and cert a
    checked certificate, as :func:`transfer_pnno` ensures;
    :func:`preserves_pnno` decides the image."""
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
    """From a validated image triple back to the source; a terminal or a
    triple that names nothing of the source is bad input, and a failure
    after a valid image an engine bug."""
    G = cert.functor
    _refuse_misnamed("source", G.source, termC, PNNOW(N, z, s))
    wD = _image_triple(G, termC, termD, PNNOW(N, z, s))
    if is_pnno(G.target, termD, prodsD, wD.N, wD.z, wD.s) is None:
        raise PreconditionViolation("image triple is not a parameterized N downstream")
    w = is_pnno(G.source, termC, prodsC, N, z, s)
    if w is None:
        raise ReflectionFails("image triple validates but the source triple does not")
    return w


def preserves_pnno(F: Functor, src: dict, dst: dict) -> PNNOPreservationCert | None:
    """The comparison is the pair of arrows between the parameterized N of
    dst and the image of the source one; None when F does not preserve the
    terminal, or the two are not isomorphic.  On a thin category both are
    tops when the terminal is preserved, and the arrows between them
    commute with zero and successor.  The terminal and parameterized N of
    dst are taken as checked, as they are in every bag the registry passes,
    and a category that is not thin, which carries none, is refused; so is
    a source or target triple with a field that names nothing of its
    category."""
    refuse_missing_kinds(src, ("terminal", "pnno"))
    refuse_missing_kinds(dst, ("terminal", "pnno"))
    D = F.target
    termC, wC, wD = src["terminal"], src["pnno"], dst["pnno"]
    if preserves(TERMINAL, F, {(): termC}, {(): dst["terminal"]}) is None:
        return None
    _refuse_misnamed("source", F.source, termC, wC)
    _refuse_misnamed("target", D, dst["terminal"], wD)
    if D.down_sets is None:
        raise InvalidCert("a category that is not thin carries no parameterized N")
    N = F.obj_map[wC.N]
    fwd, inv = D.hom_map.get((wD.N, N)), D.hom_map.get((N, wD.N))
    if fwd is None or inv is None:
        return None
    return PNNOPreservationCert(F, Iso(fwd[0], inv[0]))


def lift_preservation_pnno(
    cert: WeakEquivalenceCert, F: Functor, H: Functor, alpha: NatIso, carried: dict, dst: dict,
) -> PNNOPreservationCert:
    """The comparison for the factored functor, decided directly; carried
    holds the terminal and parameterized N already transferred to the
    completion, and dst those of F's target."""
    return decide_lift("parameterized-N", cert, F, H, alpha, preserves_pnno, carried, dst)
