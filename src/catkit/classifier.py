"""Monomorphisms, subobject classifiers, and elementary topoi.

Each classifier decision takes one route.  Monos and chi entries are
decided by the counting kernel of ``limits``, one tick per check: f is
monic when u -> u;f is injective on into(src f), and chi classifies the
mono m when the h into dst m with h;chi == !;tau number |into(src m)|.
The search builds its chi tables from one mono list per category, a carry
searches the target's table once, and a functor preserves the classifier
when the classifying morphism of its image truth arrow is an iso.  The
second routes are oracles in ``tests/classifier_oracles.py``.  The
classifier's registry verbs take witness bags and read the chosen terminal
from them.  On a thin category with an arrow that is not an iso, the
search decides the classifier absent by a theorem, not by a search: every
arrow of a thin category is monic, and every mono a classifier classifies
there is an iso.

A topos is a bag of its six components keyed by kind name, and the topos
helpers walk ``lifting.KINDS`` and ``TOPOS_KINDS``; they import ``lifting``
when called, since ``lifting`` imports this module.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

from .core import (
    FinCat,
    Functor,
    Iso,
    NatIso,
    WeakEquivalenceCert,
    budget_tick,
    check_weak_equivalence_cert,
    find_iso,
)
from .errors import (
    AmbiguousClassifier,
    InvalidCert,
    NoClassifier,
    OracleDisagreement,
)
from .limits import (
    PULLBACKS,
    ChosenTerminal,
    PullbackW,
    _Counts,
    _counted_universal,
    _jointly_monic,
    is_terminal,
    decide_lift,
    preserves_terminal,
    refuse_missing_kinds,
    to_terminal,
)


def is_mono(C: FinCat, f: int) -> PullbackW | None:
    """The kernel-pair square of f, a pullback exactly when f is monic,
    when u -> u;f is injective on into(src f); None otherwise, and for an
    f that is no morphism of C.  One tick."""
    if not C.has_morphisms(f):
        return None
    budget_tick()
    x = C.mor_src[f]
    return PullbackW(f, f, x, C.identity[x], C.identity[x]) if _jointly_monic(C, x, (f,)) else None


def monos(C: FinCat) -> list[int]:
    return [f for f in range(C.n_morphisms) if is_mono(C, f) is not None]


@dataclass(frozen=True)
class SubobjectClassifierW:
    """tau points from the chosen terminal into omega; chi maps each mono to
    its unique classifying morphism."""

    omega: int
    tau: int
    chi: Mapping[int, int]

    def _replace(self, **changes) -> SubobjectClassifierW:
        """A copy with changes made, as every tuple witness's ``_replace``."""
        return replace(self, **changes)

    def __iter__(self):
        """The fields in order, as every tuple witness's."""
        return iter((self.omega, self.tau, self.chi))


def _chi_table(
    C: FinCat, term: ChosenTerminal, omega: int, tau: int, ms: list[int]
) -> SubobjectClassifierW:
    """omega and tau with a chi entry for each of the monos ms: the unique
    chi whose square on m against tau commutes and is a pullback, one tick
    per candidate; raises NoClassifier / AmbiguousClassifier at the first
    mono where existence or uniqueness fails.  bang[z], the one arrow from
    z to the terminal, and top[z] = bang[z];tau are read once per object
    for the commuting test; a commuting square is decided by the kernel on
    the cospan (chi, tau), over one count of each arrow's composites for
    the whole table."""
    comp, src = C.comp_table, C.mor_src
    bang = [C.hom_map[(z, term.t)][0] for z in range(C.n_objects)]
    top = [comp[b][tau] for b in bang]
    counts, chi = _Counts(C), {}
    for m in ms:
        x, y = src[m], C.mor_dst[m]
        hits = []
        for c in C.hom(y, omega):
            if comp[m][c] != top[x]:
                budget_tick()
            elif _counted_universal(counts, PULLBACKS, (c, tau), x, (m, bang[x])):
                hits.append(c)
        if not hits:
            raise NoClassifier(f"mono {m} has no classifying morphism into object {omega}")
        if len(hits) > 1:
            raise AmbiguousClassifier(
                f"mono {m} has {len(hits)} classifying morphisms into object {omega}"
            )
        chi[m] = hits[0]
    return SubobjectClassifierW(omega, tau, MappingProxyType(chi))


def subobject_classifier_cert(
    C: FinCat, term: ChosenTerminal, omega: int, tau: int
) -> SubobjectClassifierW:
    """Builds the full chi table or raises NoClassifier / AmbiguousClassifier
    at the first offending mono."""
    if not is_terminal(C, term.t):
        raise InvalidCert("terminal witness does not name a terminal object")
    if not C.has_morphisms(tau) or C.mor_src[tau] != term.t or C.mor_dst[tau] != omega:
        raise InvalidCert("truth arrow is not a point of omega")
    return _chi_table(C, term, omega, tau, monos(C))


def is_subobject_classifier(
    C: FinCat, term: ChosenTerminal, omega: int, tau: int
) -> SubobjectClassifierW | None:
    try:
        return subobject_classifier_cert(C, term, omega, tau)
    except (NoClassifier, AmbiguousClassifier):
        return None


def find_subobject_classifier(C: FinCat, bag: dict) -> SubobjectClassifierW | None:
    """The first point tau of an omega, in object and hom order, that
    classifies every mono; the mono list is built once for all candidates.
    A thin category with an arrow that is not an iso is refuted with one
    tick: a pullback of tau along any chi is the whole of its domain there,
    so every mono it classifies is an iso, and every arrow of a thin
    category is monic."""
    term = bag["terminal"]
    if not is_terminal(C, term.t):
        raise InvalidCert("terminal witness does not name a terminal object")
    down = C.down_sets
    if down is not None:
        budget_tick()
        # x -> y is an iso exactly when y -> x exists
        if any(not down[x] >> y & 1 for x, y in C.hom_map):
            return None
    ms = monos(C)
    for omega in range(C.n_objects):
        for tau in C.hom(term.t, omega):
            try:
                return _chi_table(C, term, omega, tau, ms)
            except (NoClassifier, AmbiguousClassifier):
                pass
    return None


def check_subobject_classifier(C: FinCat, bag: dict) -> None:
    w = bag["classifier"]
    rebuilt = subobject_classifier_cert(C, bag["terminal"], w.omega, w.tau)
    if rebuilt.chi != w.chi:
        raise InvalidCert("chi table does not match the rebuilt classifier")


def transfer_subobject_classifier(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> SubobjectClassifierW:
    """:func:`carry_subobject_classifier` after checking the classifier of
    src on the source and the certificate."""
    refuse_missing_kinds(src, ("terminal", "classifier"))
    refuse_missing_kinds(dst, ("terminal",))
    check_subobject_classifier(cert.functor.source, src)
    check_weak_equivalence_cert(cert)
    return carry_subobject_classifier(cert, src, dst)


def carry_subobject_classifier(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> SubobjectClassifierW:
    """Transport omega and tau of a classifier along the equivalence onto
    the terminal of dst, and build their chi table by one search on the
    target.  The classifier of src must be checked on the source and cert
    a checked certificate, as :func:`transfer_subobject_classifier`
    ensures; the terminal of dst is checked here.  The carried classifier
    is decided by :func:`preserves_subobject_classifier`."""
    G = cert.functor
    D = G.target
    termC, socC, termD = src["terminal"], src["classifier"], dst["terminal"]
    if not is_terminal(D, termD.t):
        raise InvalidCert("target terminal witness is not terminal")
    omega_D = G.obj_map[socC.omega]
    # both t_D and G(t_C) are terminal in D, so the connecting map is unique
    u = to_terminal(D, ChosenTerminal(G.obj_map[termC.t]), termD.t)
    tau_D = D.compose(u, G.mor_map[socC.tau])
    return subobject_classifier_cert(D, termD, omega_D, tau_D)


@dataclass(frozen=True, eq=False)
class OmegaPreservationCert:
    """comparison is the classifying morphism of the image truth arrow,
    invertible exactly when the functor preserves the classifier."""

    functor: Functor
    comparison: Iso


def preserves_subobject_classifier(
    F: Functor, src: dict, dst: dict, certs: dict
) -> OmegaPreservationCert | None:
    """The comparison, the classifying morphism in the chi table of dst of
    the image truth arrow, as an iso; None when F does not preserve the
    terminal or the comparison is not invertible.  The bag dst must be a
    found or checked one, whose chi table classifies every mono: the image
    pair then classifies exactly when the comparison is an iso.  A source
    omega, tau or chi entry out of range raises."""
    refuse_missing_kinds(src, ("terminal", "classifier"))
    refuse_missing_kinds(dst, ("terminal", "classifier"))
    C, D = F.source, F.target
    termC, socC = src["terminal"], src["classifier"]
    termD, socD = dst["terminal"], dst["classifier"]
    if preserves_terminal(F, termC, termD) is None:
        return None
    if not (0 <= socC.omega < C.n_objects
            and C.has_morphisms(socC.tau, *socC.chi, *socC.chi.values())):
        raise InvalidCert(f"source classifier witness at omega {socC.omega}, tau {socC.tau} "
                          "is out of range")
    # the image of tau is split monic, so the chosen chi table classifies it
    i = socD.chi.get(F.mor_map[socC.tau])
    if i is None:
        raise OracleDisagreement("image of the truth arrow is missing from the chi table")
    comparison = find_iso(D, i)
    if comparison is None:
        return None
    # the classifying square already forces compatibility with both truths
    bang = to_terminal(D, termD, F.obj_map[termC.t])
    if D.compose(F.mor_map[socC.tau], comparison.fwd) != D.compose(bang, socD.tau):
        raise OracleDisagreement("comparison fails truth-arrow compatibility")
    return OmegaPreservationCert(F, comparison)


def lift_preservation_subobject_classifier(
    cert: WeakEquivalenceCert, F: Functor, H: Functor, alpha: NatIso, src: dict, dst: dict,
    Fcerts: dict, carried: dict, Hcerts: dict,
) -> OmegaPreservationCert:
    """Classifier preservation for the factored functor, decided directly;
    carried holds the terminal and classifier already transferred to the
    completion, and Hcerts H's certificates already lifted."""
    return decide_lift("classifier", cert, F, H, alpha, preserves_subobject_classifier,
                       carried, dst, Hcerts)


def gaps_from_found(found: dict[str, object]) -> list[str]:
    """Names of the missing topos components, in dependency order, from a
    bag of the kinds a search found; a component whose dependency is missing
    is reported as such rather than as absent."""
    from .lifting import KINDS, TOPOS_KINDS

    gaps = []
    for kind, label in TOPOS_KINDS.items():
        missing = [dep for dep in KINDS[kind].deps if dep not in found]
        if missing:
            gaps.append(f"{label} ({', '.join(missing)} missing)")
        elif kind not in found:
            gaps.append(label)
    return gaps


def topos_gaps(C: FinCat) -> list[str]:
    """Names of the topos components this category is missing, in dependency
    order; downstream components that need missing ones are not attempted."""
    from .lifting import TOPOS_KINDS, find_bag

    return gaps_from_found(find_bag(C, TOPOS_KINDS))


def assemble_topos(C: FinCat) -> dict[str, object] | None:
    """A bag of every topos component, keyed by kind, or None when one is
    missing."""
    from .lifting import TOPOS_KINDS, find_bag

    bag = find_bag(C, TOPOS_KINDS)
    return bag if len(bag) == len(TOPOS_KINDS) else None


def is_logical_functor(F: Functor, TC: dict, TD: dict) -> dict[str, object] | None:
    """One preservation certificate per topos component, keyed by kind, for
    F between the topos bags TC and TD; None when F fails to preserve one.
    A bag without a kind the verbs read is refused before anything is
    decided: every kind of TC, and the limit kinds of TD."""
    from .lifting import KINDS, TOPOS_KINDS

    refuse_missing_kinds(TC, tuple(TOPOS_KINDS))
    refuse_missing_kinds(TD, ("terminal", "products", "equalizers", "pullbacks"))
    certs: dict[str, object] = {}
    for kind in TOPOS_KINDS:
        cert = KINDS[kind].preserves(F, TC, TD, certs)
        if cert is None:
            return None
        certs[kind] = cert
    return certs
