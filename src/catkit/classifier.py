"""Monomorphisms, subobject classifiers, and elementary topoi.

Monos are certified by two independent characterizations that must agree:
left cancellation, and the kernel-pair square being a pullback.  A
classifier witness carries the full chi table, one classifying morphism per
mono, and every constructive transport is cross-checked against the search
that rebuilds the same table from scratch.  The classifier's registry verbs
take witness bags and read the chosen terminal from them.

A topos is a bag of its six components keyed by kind name, and the topos
helpers walk the kinds through ``lifting.KINDS``; they import ``lifting``
when called, since ``lifting`` imports this module.
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
    AmbiguousClassifier,
    ConditionsDisagree,
    InvalidCert,
    NoClassifier,
    OracleDisagreement,
    PreconditionViolation,
)
from .limits import (
    ChosenTerminal,
    PullbackW,
    is_pullback,
    is_terminal,
    preserves_terminal,
    to_terminal,
    _check_triangle,
)


@dataclass(frozen=True)
class MonoCert:
    """Both characterizations, recorded separately so disagreement is
    detectable; a returned cert always has both True."""

    f: int
    cancellation: bool
    pullback_square: bool


def mono_by_cancellation(C: FinCat, f: int) -> bool:
    x = C.mor_src[f]
    for z in range(C.n_objects):
        legs = C.hom(z, x)
        for i, g in enumerate(legs):
            for h in legs[i + 1 :]:
                budget_tick()
                if C.compose(g, f) == C.compose(h, f):
                    return False
    return True


def mono_by_pullback(C: FinCat, f: int) -> bool:
    x = C.mor_src[f]
    w = PullbackW(f, f, x, C.identity[x], C.identity[x])
    return is_pullback(C, w)


def is_mono(C: FinCat, f: int) -> MonoCert | None:
    a = mono_by_cancellation(C, f)
    b = mono_by_pullback(C, f)
    if a != b:
        raise ConditionsDisagree(
            f"mono characterizations split on morphism {f}: cancellation={a}, kernel pair={b}"
        )
    return MonoCert(f, a, b) if a else None


def monos(C: FinCat) -> list[int]:
    return [f for f in range(C.n_morphisms) if is_mono(C, f) is not None]


@dataclass(frozen=True, eq=False)
class SubobjectClassifierW:
    """tau points from the chosen terminal into omega; chi maps each mono to
    its unique classifying morphism."""

    omega: int
    tau: int
    chi: dict[int, int]


def _classify_one(
    C: FinCat, term: ChosenTerminal, omega: int, tau: int, m: int
) -> int:
    """The unique chi whose square on m against tau commutes and is a
    pullback; raises when existence or uniqueness fails."""
    x, y = C.mor_src[m], C.mor_dst[m]
    bang = to_terminal(C, term, x)
    hits = []
    for chi in C.hom(y, omega):
        budget_tick()
        if C.compose(m, chi) != C.compose(bang, tau):
            continue
        if is_pullback(C, PullbackW(chi, tau, x, m, bang)):
            hits.append(chi)
    if not hits:
        raise NoClassifier(f"mono {m} has no classifying morphism into object {omega}")
    if len(hits) > 1:
        raise AmbiguousClassifier(
            f"mono {m} has {len(hits)} classifying morphisms into object {omega}"
        )
    return hits[0]


def subobject_classifier_cert(
    C: FinCat, term: ChosenTerminal, omega: int, tau: int
) -> SubobjectClassifierW:
    """Builds the full chi table or raises NoClassifier / AmbiguousClassifier
    at the first offending mono."""
    if not is_terminal(C, term.t):
        raise InvalidCert("terminal witness does not name a terminal object")
    if not C.has_morphisms(tau) or C.mor_src[tau] != term.t or C.mor_dst[tau] != omega:
        raise InvalidCert("truth arrow is not a point of omega")
    # a point of any object is split monic, with the terminal map as retract
    if is_mono(C, tau) is None:
        raise OracleDisagreement("a global point failed to be monic")
    chi = {m: _classify_one(C, term, omega, tau, m) for m in monos(C)}
    return SubobjectClassifierW(omega, tau, chi)


def is_subobject_classifier(
    C: FinCat, term: ChosenTerminal, omega: int, tau: int
) -> SubobjectClassifierW | None:
    try:
        return subobject_classifier_cert(C, term, omega, tau)
    except (NoClassifier, AmbiguousClassifier):
        return None


def find_subobject_classifier(C: FinCat, bag: dict) -> SubobjectClassifierW | None:
    term = bag["terminal"]
    for omega in range(C.n_objects):
        for tau in C.hom(term.t, omega):
            w = is_subobject_classifier(C, term, omega, tau)
            if w is not None:
                return w
    return None


def check_subobject_classifier(C: FinCat, bag: dict) -> None:
    w = bag["classifier"]
    rebuilt = subobject_classifier_cert(C, bag["terminal"], w.omega, w.tau)
    if rebuilt.chi != w.chi:
        raise InvalidCert("chi table does not match the rebuilt classifier")


def transfer_subobject_classifier(
    cert: WeakEquivalenceCert, src: dict, dst: dict
) -> tuple[SubobjectClassifierW, "OmegaPreservationCert"]:
    """Transport omega and tau along the equivalence onto the terminal of
    dst, rebuild chi two ways (ff-inverse transport and direct search), and
    demand exact agreement."""
    G = cert.functor
    C, D = G.source, G.target
    check_subobject_classifier(C, src)
    termC, socC, termD = src["terminal"], src["classifier"], dst["terminal"]
    if not is_terminal(D, termD.t):
        raise InvalidCert("target terminal witness is not terminal")
    omega_D = G.obj_map[socC.omega]
    # both t_D and G(t_C) are terminal in D, so the connecting map is unique
    u = to_terminal(D, ChosenTerminal(G.obj_map[termC.t]), termD.t)
    tau_D = D.compose(u, G.mor_map[socC.tau])
    searched = subobject_classifier_cert(D, termD, omega_D, tau_D)
    for m in searched.chi:
        d1, d2 = D.mor_src[m], D.mor_dst[m]
        x1, i1 = cert.eso_witness[d1]
        x2, i2 = cert.eso_witness[d2]
        m_c = cert.ff_inverse(x1, x2, D.compose_many(i1.fwd, m, i2.inv))
        if is_mono(C, m_c) is None:
            raise OracleDisagreement("equivalence failed to reflect a mono during transfer")
        transported = D.compose(i2.inv, G.mor_map[socC.chi[m_c]])
        if transported != searched.chi[m]:
            raise OracleDisagreement(
                f"transported classifying morphism for mono {m} disagrees with the search"
            )
    pres = preserves_subobject_classifier(G, src, {"terminal": termD, "classifier": searched}, {})
    if pres is None:
        raise OracleDisagreement("equivalence does not preserve the classifier it transferred")
    return searched, pres


@dataclass(frozen=True, eq=False)
class OmegaPreservationCert:
    """classifies packages the first condition: the image pair is itself a
    classifier downstream.  comparison packages the second: the classifying
    morphism of the image truth arrow is invertible."""

    functor: Functor
    classifies: SubobjectClassifierW
    comparison: Iso


def preserves_subobject_classifier(
    F: Functor, src: dict, dst: dict, certs: dict
) -> OmegaPreservationCert | None:
    """Evaluates both preservation conditions independently and insists they
    agree before certifying."""
    D = F.target
    termC, socC = src["terminal"], src["classifier"]
    termD, socD = dst["terminal"], dst["classifier"]
    if preserves_terminal(F, termC, termD) is None:
        raise PreconditionViolation("functor does not preserve the terminal object")
    u = to_terminal(D, ChosenTerminal(F.obj_map[termC.t]), termD.t)
    tau_img = D.compose(u, F.mor_map[socC.tau])
    cond1 = is_subobject_classifier(D, termD, F.obj_map[socC.omega], tau_img)
    # the image of tau is split monic, so the chosen chi table classifies it
    i = socD.chi.get(F.mor_map[socC.tau])
    if i is None:
        raise OracleDisagreement("image of the truth arrow is missing from the chi table")
    comparison = find_iso(D, i)
    if (cond1 is not None) != (comparison is not None):
        raise ConditionsDisagree(
            "image-classifies and comparison-iso conditions disagree"
        )
    if cond1 is None or comparison is None:
        return None
    # the classifying square already forces compatibility with both truths
    bang = to_terminal(D, termD, F.obj_map[termC.t])
    if D.compose(F.mor_map[socC.tau], comparison.fwd) != D.compose(bang, socD.tau):
        raise OracleDisagreement("comparison fails truth-arrow compatibility")
    return OmegaPreservationCert(F, cond1, comparison)


def lift_preservation_subobject_classifier(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    src: dict,
    dst: dict,
    Fcerts: dict,
    carried: dict,
) -> OmegaPreservationCert:
    """Classifier preservation for the factored functor: alpha transports F's
    comparison, and classifying-map uniqueness forces agreement with the
    direct decision procedure.  carried holds the terminal and classifier
    already transferred to the completion."""
    _check_triangle(cert, F, H, alpha)
    E = F.target
    direct = preserves_subobject_classifier(H, carried, dst, {})
    if direct is None:
        raise OracleDisagreement("lifted functor failed the direct classifier check")
    built = E.compose(
        alpha.components[src["classifier"].omega].fwd, Fcerts["classifier"].comparison.fwd
    )
    if built != direct.comparison.fwd:
        raise OracleDisagreement(
            "constructive and direct classifier comparisons disagree"
        )
    return direct


# the structure kinds of an elementary topos, in dependency order, with the
# names gap lists give them
TOPOS_KINDS = {
    "terminal": "terminal",
    "products": "binary products",
    "equalizers": "equalizers",
    "pullbacks": "pullbacks",
    "exponentials": "exponentials",
    "classifier": "subobject classifier",
}


def gaps_from_found(found: dict[str, object]) -> list[str]:
    """Names of the missing topos components, in dependency order, from a
    bag of the kinds a search found; a component whose dependency is missing
    is reported as such rather than as absent."""
    from .lifting import KINDS

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
    from .lifting import find_bag

    return gaps_from_found(find_bag(C, TOPOS_KINDS))


def assemble_topos(C: FinCat) -> dict[str, object] | None:
    """A bag of every topos component, keyed by kind, or None when one is
    missing."""
    from .lifting import find_bag

    bag = find_bag(C, TOPOS_KINDS)
    return bag if len(bag) == len(TOPOS_KINDS) else None


def is_logical_functor(F: Functor, TC: dict, TD: dict) -> dict[str, object] | None:
    """One preservation certificate per topos component, keyed by kind, for
    F between the topos bags TC and TD; None when F fails to preserve one."""
    from .lifting import KINDS

    certs: dict[str, object] = {}
    for kind in TOPOS_KINDS:
        cert = KINDS[kind].preserves(F, TC, TD, certs)
        if cert is None:
            return None
        certs[kind] = cert
    return certs
