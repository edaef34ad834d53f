"""Set-level skeletal completion with explicit certificates.

``skeletize`` collapses each isomorphism class of objects onto its
lowest-index representative and returns the comparison functor eta together
with a full weak-equivalence certificate.  The companion operations factor
functors through the completion and certify that the factorization is unique
up to a connecting natural isomorphism.
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
    check_functor,
    check_nat_iso,
    check_weak_equivalence_cert,
    compose_functors,
    find_iso,
    functor,
    functors_equal,
    is_fully_faithful,
    is_weak_equivalence,
    iso_between,
    iso_classes,
    isos_between,
    nat_iso,
    same_tables,
    tabulate,
)
from .errors import (
    InvalidCert,
    InvalidFactorization,
    NatIsoError,
    OracleDisagreement,
    SourceMismatch,
    ZeroCopies,
)


@dataclass(frozen=True)
class SkeletalityReport:
    """is_gaunt additionally demands at most one iso between any ordered pair
    of objects (identity included), which is what makes the completion an
    exact reflection of the univalent one rather than an approximation."""

    is_skeletal: bool
    is_gaunt: bool

    @property
    def fidelity(self) -> str:
        return "exact" if self.is_gaunt else "skeletal-approximation"


def skeletality(C: FinCat) -> SkeletalityReport:
    classes = iso_classes(C)
    skeletal = all(len(c) == 1 for c in classes)
    # in a skeletal category the only isos are automorphisms, and in a thin
    # one the only automorphism is the identity
    gaunt = skeletal and (
        C.order_scan[0] is not None
        or all(len(isos_between(C, x, x)) == 1 for x in range(C.n_objects))
    )
    return SkeletalityReport(skeletal, gaunt)


@dataclass(frozen=True, eq=False)
class CompletionResult:
    source: FinCat
    completed: FinCat
    eta: Functor
    cert: WeakEquivalenceCert
    fidelity: str
    representative: tuple[int, ...]      # per source object: its class representative (source index)
    rep_objects: tuple[int, ...]         # source indices of representatives, ascending
    inclusion: Functor                   # completed -> source, onto the representatives


def skeletize(C: FinCat) -> CompletionResult:
    """Skeleton on lowest-index representatives, eta by conjugation with the
    canonical isos, and a validated weak-equivalence certificate.  On a
    thin category eta sends each arrow to the skeleton's one arrow between
    the classes of its ends, which is what the conjugate is."""
    classes = iso_classes(C)
    rep_of = [0] * C.n_objects
    for cls in classes:
        for x in cls:
            rep_of[x] = cls[0]
    reps = tuple(cls[0] for cls in classes)

    completed, incl = full_subcategory(C, reps, f"{C.name}|skeleton")
    obj_reindex = {r: i for i, r in enumerate(incl.obj_map)}
    eta_obj = [obj_reindex[rep_of[x]] for x in range(C.n_objects)]
    if C.order_scan[0] is not None:
        hom = completed.hom_map
        eta_mor = [hom[(eta_obj[x], eta_obj[y])][0] for x, y in zip(C.mor_src, C.mor_dst)]
    else:
        canon: list[Iso] = []
        for x in range(C.n_objects):
            r = rep_of[x]
            if x == r:
                canon.append(Iso(C.identity[x], C.identity[x]))
            else:
                iso = iso_between(C, x, r)
                assert iso is not None
                canon.append(iso)
        mor_reindex = {f: i for i, f in enumerate(incl.mor_map)}
        eta_mor = []
        for f in range(C.n_morphisms):
            x, y = C.mor_src[f], C.mor_dst[f]
            conj = C.compose_many(canon[x].inv, f, canon[y].fwd)
            eta_mor.append(mor_reindex[conj])
    eta = functor(C, completed, eta_obj, eta_mor, name=f"eta_{C.name}")

    cert = is_weak_equivalence(eta)
    if cert is None:
        raise OracleDisagreement("eta failed its own weak-equivalence check")
    report = skeletality(completed)
    if not report.is_skeletal:
        raise OracleDisagreement("completion is not skeletal")
    return CompletionResult(
        source=C,
        completed=completed,
        eta=eta,
        cert=cert,
        fidelity=report.fidelity,
        representative=tuple(rep_of),
        rep_objects=reps,
        inclusion=incl,
    )


def skeleton_inclusion(cr: CompletionResult) -> WeakEquivalenceCert:
    """The inclusion of the representatives, completed -> source, certified
    as a weak equivalence; transfer along it carries witnesses chosen on the
    completion back to the source.

    The eso iso at a source object x is the preimage under eta of the
    inverse of eta's own eso iso at eta(x).  With that choice, carrying a
    witness back and then transferring it along eta returns it unchanged,
    which lifting preservation through a factorization relies on.
    """
    C, incl = cr.source, cr.inclusion
    ff = is_fully_faithful(incl)
    if ff is None:
        raise OracleDisagreement("inclusion of the representatives is not fully faithful")
    eso = []
    for x in range(C.n_objects):
        y = cr.eta.obj_map[x]
        r = cr.rep_objects[y]
        i = cr.cert.eso_witness[y][1]
        eso.append((y, Iso(cr.cert.ff_inverse(r, x, i.inv), cr.cert.ff_inverse(x, r, i.fwd))))
    cert = WeakEquivalenceCert(incl, ff, tuple(eso))
    try:
        check_weak_equivalence_cert(cert)
    except InvalidCert as e:
        raise OracleDisagreement(f"inclusion certificate failed its own check: {e}") from e
    return cert


# ---------------------------------------------------------------------------
# factorization through the completion


@dataclass(frozen=True, eq=False)
class Factorization:
    functor: Functor      # H: completed -> E
    alpha: NatIso         # eta ; H  =>  F


def factor_through(cr: CompletionResult, F: Functor) -> Factorization:
    """Factor F: source -> E through eta as F iso eta;H.

    H sends a completed object to F of its eso preimage and a morphism to F
    of its ff preimage; alpha's components are F of the canonical isos.  F
    may start at any category with the same tables as the source.
    """
    if F.source is not cr.source and not same_tables(F.source, cr.source):
        raise SourceMismatch("functor does not start at the completed category's source")
    E = F.target
    if not skeletality(E).is_gaunt:
        warnings.warn(
            f"target {E.name!r} is not gaunt; factorization is canonical but not rigid",
            stacklevel=2,
        )

    D = cr.completed
    sigma = [cr.cert.eso_witness[y][0] for y in range(D.n_objects)]
    eso_iso = [cr.cert.eso_witness[y][1] for y in range(D.n_objects)]

    H_obj = [F.obj_map[sigma[y]] for y in range(D.n_objects)]
    H_mor = []
    for g in range(D.n_morphisms):
        y1, y2 = D.mor_src[g], D.mor_dst[g]
        conj = D.compose_many(eso_iso[y1].fwd, g, eso_iso[y2].inv)
        f = cr.cert.ff_inverse(sigma[y1], sigma[y2], conj)
        H_mor.append(F.mor_map[f])
    H = functor(D, E, H_obj, H_mor, name=f"{F.name}|factored")

    # component at x: F applied to the unique preimage of the eso iso at
    # eta(x), an iso from sigma(eta x) to x; with the canonical completion
    # data this is exactly F of the inverse canonical iso.
    etaH = compose_functors(cr.eta, H)
    components = []
    for x in range(cr.source.n_objects):
        y = cr.eta.obj_map[x]
        j = cr.cert.ff_inverse(sigma[y], x, eso_iso[y].fwd)
        components.append(F.mor_map[j])
    alpha = nat_iso(etaH, F, components)
    return Factorization(H, alpha)


def check_factorization(cr: CompletionResult, F: Functor, fac: Factorization) -> None:
    """Validate that fac really factors F through cr's eta."""
    check_functor(fac.functor)
    if fac.functor.source is not cr.completed and not same_tables(
        fac.functor.source, cr.completed
    ):
        raise InvalidFactorization("factor does not start at the completion")
    etaH = compose_functors(cr.eta, fac.functor)
    if not functors_equal(fac.alpha.source, etaH):
        raise InvalidFactorization("alpha does not start at eta;H")
    if not functors_equal(fac.alpha.target, F):
        raise InvalidFactorization("alpha does not end at F")
    try:
        check_nat_iso(fac.alpha)
    except NatIsoError as e:
        raise InvalidFactorization(f"alpha is not a natural isomorphism: {e}") from e


def factorization_unique(
    cr: CompletionResult, F: Functor, fac1: Factorization, fac2: Factorization
) -> NatIso:
    """The connecting natural isomorphism H1 => H2 between two factorizations
    of the same functor, built from their alphas at the eso preimages."""
    check_factorization(cr, F, fac1)
    check_factorization(cr, F, fac2)
    D, E = cr.completed, F.target
    H1, H2 = fac1.functor, fac2.functor
    components = []
    for y in range(D.n_objects):
        x, j = cr.cert.eso_witness[y]
        # H(j) transports the component at eta(x) to one at y
        a1 = fac1.alpha.components[x]
        a2 = fac2.alpha.components[x]
        j1 = H1.mor_map[j.fwd]
        j2 = H2.mor_map[j.fwd]
        # H1(y) --H1(j)^-1--> H1(eta x) --a1--> F(x) --a2^-1--> H2(eta x) --H2(j)--> H2(y)
        inv_j1 = _inverse_in(E, j1)
        fwd = E.compose_many(inv_j1, a1.fwd, a2.inv, j2)
        components.append(fwd)
    try:
        return nat_iso(H1, H2, components)
    except NatIsoError as e:
        raise OracleDisagreement(
            f"connecting iso between validated factorizations failed: {e}"
        ) from e


def _inverse_in(E: FinCat, f: int) -> int:
    iso = find_iso(E, f)
    if iso is None:
        raise OracleDisagreement("expected an isomorphism while connecting factorizations")
    return iso.inv


# ---------------------------------------------------------------------------
# inflate: the canonical source of non-skeletal categories


def inflate(C: FinCat, copies) -> tuple[FinCat, Functor]:
    """Replace each object by the given number of mutually isomorphic copies.

    ``copies`` is an int (uniform) or a per-object sequence; every count must
    be at least 1.  Returns the inflated category and the projection functor,
    which is always a weak equivalence.  With all counts equal to 1 the
    result has the same tables as C.
    """
    if isinstance(copies, int):
        counts = [copies] * C.n_objects
    else:
        counts = list(copies)
    if len(counts) != C.n_objects or any(c < 1 for c in counts):
        raise ZeroCopies("every object needs at least one copy")

    # copy j of object x is object obj_of[(x, j)]; the entry (f, j, k) is
    # the copy of f from copy j of its source to copy k of its target
    obj_copies = [(x, j) for x in range(C.n_objects) for j in range(counts[x])]
    obj_of = {xj: i for i, xj in enumerate(obj_copies)}
    entries = [
        (f, j, k)
        for f in range(C.n_morphisms)
        for j in range(counts[C.mor_src[f]])
        for k in range(counts[C.mor_dst[f]])
    ]
    labels = C.mor_labels
    inflated, _ = tabulate(
        f"{C.name}~inflated",
        [C.objects[x] if j == 0 else f"{C.objects[x]}~{j}" for x, j in obj_copies],
        entries,
        [obj_of[(C.mor_src[f], j)] for f, j, _ in entries],
        [obj_of[(C.mor_dst[f], k)] for f, _, k in entries],
        [labels[f] if j == k == 0 else f"{labels[f]}~{j}.{k}" for f, j, k in entries],
        [(C.identity[x], j, j) for x, j in obj_copies],
        lambda s, t: (C.comp_table[s[0]][t[0]], s[1], t[2]),
    )
    proj = functor(
        inflated, C, [x for x, _ in obj_copies], [f for f, _, _ in entries], name=f"proj_{C.name}"
    )
    return inflated, proj


def inflate_section(proj: Functor) -> Functor:
    """The copy-0 section of an inflate projection.

    Sends each base object and morphism to its least preimage; a weak
    equivalence, with the projection as retraction.
    """
    infl, C = proj.source, proj.target
    obj_map = [-1] * C.n_objects
    for y in range(infl.n_objects - 1, -1, -1):
        obj_map[proj.obj_map[y]] = y
    mor_map = [-1] * C.n_morphisms
    for g in range(infl.n_morphisms - 1, -1, -1):
        f = proj.mor_map[g]
        if (
            infl.mor_src[g] == obj_map[C.mor_src[f]]
            and infl.mor_dst[g] == obj_map[C.mor_dst[f]]
        ):
            mor_map[f] = g
    return functor(C, infl, obj_map, mor_map, name=f"section_{C.name}")


# ---------------------------------------------------------------------------
# full subcategories and replete images


def full_subcategory(C: FinCat, object_ids: list[int], name: str = "") -> tuple[FinCat, Functor]:
    """The full subcategory on the given objects, named name or after C, plus its inclusion."""
    objs = sorted(set(object_ids))
    obj_reindex = {x: i for i, x in enumerate(objs)}
    keep = [
        f
        for f in range(C.n_morphisms)
        if C.mor_src[f] in obj_reindex and C.mor_dst[f] in obj_reindex
    ]
    table = C.comp_table
    sub, _ = tabulate(
        name or f"{C.name}|full",
        [C.objects[x] for x in objs],
        keep,
        [obj_reindex[C.mor_src[f]] for f in keep],
        [obj_reindex[C.mor_dst[f]] for f in keep],
        [C.mor_labels[f] for f in keep],
        [C.identity[x] for x in objs],
        lambda f, g: table[f][g],
    )
    incl = functor(sub, C, objs, keep, name=f"incl_{C.name}")
    return sub, incl
