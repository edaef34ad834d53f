"""The universal-property checks as one loop per cone: for each cone from
each test object, every arrow into the apex is composed with the legs and
the hits counted.  These define the limits, exponentials and parameterized
N; the checks in ``catkit`` that read hom(z, apex) once per test object are
compared against them, verdict and budget ticks alike.

The searches as one witness per candidate: ``find_limit`` and
``find_exponential`` hand every enumerated candidate, typed or not,
commuting or not, to the public ``is_*`` of its module, looked up there at
call time.  The searches in ``catkit``, which test only typed, commuting
candidates with the universal-property loop alone, are compared against
them, witnesses and budget ticks alike.

Beside them, the exponential comparison iso and the re-derivation of an
exponential preservation certificate, which only the tests use, and the
carry and preserves loops as ``catkit`` first wrote them: every source
field read through dicts of F's maps, every carried entry imaged and
composed key by key.  ``limits.carry`` and ``limits.preserves`` are
compared against them, entries, certificates and raises alike."""
import itertools

from catkit import exponentials
from catkit.core import (
    FinCat,
    Functor,
    Iso,
    WeakEquivalenceCert,
    budget_tick,
    check_weak_equivalence_cert,
    find_iso,
)
from catkit.errors import InvalidCert, NotACone, OracleDisagreement, PreconditionViolation
from catkit.exponentials import ExpPreservationCert, ExponentialW, _pairing, curry
from catkit.limits import (
    BinProductW,
    ChosenTerminal,
    EqualizerW,
    LimitPreservationCert,
    LimitShape,
    PullbackW,
    Table,
    _comparison_at,
    mediating,
    to_terminal,
)
from catkit.nno import PNNOW


def is_binary_product(C: FinCat, w: BinProductW) -> bool:
    if not C.has_morphisms(w.pi1, w.pi2):
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


def is_equalizer(C: FinCat, w: EqualizerW) -> bool:
    if not C.has_morphisms(w.f, w.g, w.arrow):
        return False
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


def is_pullback(C: FinCat, w: PullbackW) -> bool:
    if not C.has_morphisms(w.f, w.g, w.p1, w.p2):
        return False
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


def find_limit(shape: LimitShape, C: FinCat, key: tuple[int, ...]) -> object | None:
    feet = shape.feet(C, key)
    if feet is None:
        return None
    for apex in range(C.n_objects):
        for legs in itertools.product(*[C.hom(apex, x) for x in feet]):
            w = shape.witness(*key, apex, *legs)
            if shape.is_limit(C, w):
                return w
    return None


def find_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], x: int, y: int
) -> ExponentialW | None:
    for obj in range(C.n_objects):
        entry = prods.get((obj, x))
        if entry is None:
            return None
        for ev in C.hom(entry.apex, y):
            w = ExponentialW(x, y, obj, ev)
            if exponentials.is_exponential(C, prods, w):
                return w
    return None


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


def preserves(
    shape: LimitShape, F: Functor, source: Table, target: Table
) -> LimitPreservationCert | None:
    """``limits.preserves`` with each source field read through a dict of
    F's map, so that an apex or leg out of range raises; the key parts are
    read by bare index."""
    mu: dict = {}
    by_image: dict = {}
    in_range: set = set()
    E = F.target
    obj, mor = dict(enumerate(F.obj_map)), dict(enumerate(F.mor_map))
    k = shape.n_key
    for key, w in source.items():
        v = shape.unpack(w)
        try:
            image = (*shape.image_key(F, key), obj[v[k]], *map(mor.__getitem__, v[k + 1:]))
        except KeyError:
            raise InvalidCert(f"source {shape.name} entry {key} is out of range") from None
        iso = by_image.get(image)
        if iso is None:
            image_key = image[:k]
            entry = target[image_key]
            if image_key not in in_range:
                if not shape.in_range(E, shape.unpack(entry)):
                    raise InvalidCert(f"target {shape.name} entry {image_key} is out of range")
                in_range.add(image_key)
            iso = _comparison_at(shape, E, entry, image)
            if iso is None:
                return None
            by_image[image] = iso
        mu[key] = iso
    return LimitPreservationCert(F, source, target, mu)


def carry(shape: LimitShape, cert: WeakEquivalenceCert, table: Table) -> Table:
    """``limits.carry`` key by key: the entry at each pulled-back key is
    imaged again for every key, and each leg composed with the eso iso of
    its foot by ``FinCat.compose``."""
    check_weak_equivalence_cert(cert)
    G, Q = cert.functor, cert.quasi_inverse
    D = G.target
    k = shape.n_key
    out = {}
    for key in shape.keys(D):
        src_key = shape.image_key(Q, key)
        src = table.get(src_key)
        if src is None:
            raise PreconditionViolation(f"source table lacks the {shape.name} of {src_key}")
        v = shape.unpack(src)
        legs = [
            D.compose(G.mor_map[p], cert.eso_witness[y][1].fwd)
            for p, y in zip(v[k + 1:], shape.feet(D, key))
        ]
        out[key] = shape.witness(*key, G.obj_map[v[k]], *legs)
    return out
