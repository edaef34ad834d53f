"""The universal-property checks as one loop per cone: for each cone from
each test object, every arrow into the apex is composed with the legs and
the hits counted.  These define the limits, exponentials and parameterized
N; the checks in ``catkit``, which decide by order on a thin category and
by counting cones elsewhere, one tick per check, are compared against them:
the same verdict, and one tick wherever the loop reaches its universal
property.

The searches as one witness per candidate: ``find_limit`` and
``find_exponential`` hand every enumerated candidate, typed or not,
commuting or not, to the public ``is_*`` of its module, looked up there at
call time.  The searches in ``catkit``, which test only typed, commuting
candidates with the universal-property loop alone, are compared against
them, witnesses and budget ticks alike.

Beside them, currying, the exponential comparison iso and the
re-derivation of an exponential preservation certificate, which only the
tests use, and the carry and preserves loops as ``catkit`` first wrote
them, each after refusing bad input as its public verb does: every source
field read through dicts of F's maps, every carried entry imaged and
composed key by key.  ``limits.transfer`` and ``limits.preserves`` are
compared against them, entries, certificates and raises alike.  The
comparisons of exponentials and parameterized N by currying and by
recursion are the oracles of ``preserves_exponentials`` and
``preserves_pnno``, which compare by order.

Last, the generic searches, which decide every limit, exponential,
parameterized N and subobject classifier by its loops over cones whatever
the category: the oracles of the routes that decide by order on thin
categories and by counting elsewhere."""
import dataclasses
import itertools
from functools import cache, partial

from catkit import exponentials, limits
from catkit.classifier import SubobjectClassifierW
from catkit.core import (
    FinCat,
    Functor,
    Iso,
    WeakEquivalenceCert,
    budget_tick,
    check_weak_equivalence_cert,
    find_iso,
)
from catkit.errors import InvalidCert, NotACone, OracleDisagreement
from catkit.exponentials import ExpPreservationCert, ExponentialW
from catkit.limits import (
    BinProductW,
    ChosenTerminal,
    EqualizerW,
    LimitPreservationCert,
    LimitShape,
    PullbackW,
    Table,
    _comparison_at,
    check_table,
    mediating,
    to_terminal,
)
from catkit.lifting import KINDS
from catkit.nno import PNNOW, PNNOPreservationCert, _image_triple


def is_terminal(C: FinCat, t: int) -> bool:
    if not 0 <= t < C.n_objects:
        return False
    for x in range(C.n_objects):
        budget_tick()
        if len(C.hom(x, t)) != 1:
            return False
    return True


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


def _pairing(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], lam: int, x: int
) -> int:
    """lam x id_x: the mediator taking the product of (src lam, x) to the
    product of (dst lam, x)."""
    src_w = prods[(C.mor_src[lam], x)]
    dst_w = prods[(C.mor_dst[lam], x)]
    return mediating(C, dst_w, C.compose(src_w.pi1, lam), src_w.pi2)


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


def is_exponential(
    C: FinCat, prods: dict[tuple[int, int], BinProductW], w: ExponentialW, pairing=None
) -> bool:
    """pairing(lam, x) is lam x id_x, by :func:`_pairing` unless given."""
    pairing = pairing or partial(_pairing, C, prods)
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
                if C.compose(pairing(lam, w.x), w.ev) == f:
                    hits += 1
            if hits != 1:
                return False
    return True


def find_limit(shape: LimitShape, C: FinCat, key: tuple[int, ...], check=None) -> object | None:
    """The first candidate, by apex, then legs, that check passes:
    ``shape.is_limit`` unless given."""
    feet = shape.feet(C, key)
    if feet is None:
        return None
    check = check or shape.is_limit
    for apex in range(C.n_objects):
        for legs in itertools.product(*[C.hom(apex, x) for x in feet]):
            w = shape.witness(*key, apex, *legs)
            if check(C, w):
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


def find_pnno(C: FinCat, bag: dict) -> PNNOW | None:
    """``nno.find_pnno`` by the general search: the first typed triple, by
    N, then z, then s, that passes the loop over recursors."""
    term, prods = bag["terminal"], bag["products"]
    for N in range(C.n_objects):
        for z in C.hom(term.t, N):
            for s in C.hom(N, N):
                w = is_pnno(C, term, prods, N, z, s)
                if w is not None:
                    return w
    return None


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


def preserves_exponentials(F: Functor, src: dict, dst: dict, certs: dict
                           ) -> ExpPreservationCert | None:
    """``exponentials.preserves_exponentials`` by currying: mu;F(ev), with
    mu from F's products certificate in certs, curried through the chosen
    exponential of the images; None when it is not shaped as an uncurried
    map or does not invert."""
    D = F.target
    prodsD, expsD, muF = dst["products"], dst["exponentials"], certs["products"]
    comparison = {}
    for (x, y), w in src["exponentials"].items():
        target = expsD[(F.obj_map[x], F.obj_map[y])]
        g = D.compose(muF.mu[(w.obj, x)].fwd, F.mor_map[w.ev])
        try:
            iso = find_iso(D, curry(D, prodsD, target, F.obj_map[w.obj], g))
        except NotACone:
            return None
        if iso is None:
            return None
        comparison[(x, y)] = iso
    return ExpPreservationCert(F, src["exponentials"], expsD, comparison)


def preserves_pnno(F: Functor, src: dict, dst: dict, certs: dict) -> PNNOPreservationCert | None:
    """``nno.preserves_pnno`` by recursion: the recursor at parameter the
    terminal and stage F(N), restricted along the unit point of the
    product; None when F does not preserve the terminal or the comparison
    does not invert."""
    D = F.target
    termC, wC = src["terminal"], src["pnno"]
    termD, prodsD, wD = dst["terminal"], dst["products"], dst["pnno"]
    if limits.preserves(limits.TERMINAL, F, {(): termC}, {(): termD}) is None:
        return None
    image = _image_triple(F, termC, termD, wC)
    hits = _recursors(D, prodsD, wD, termD.t, image.N, image.z, image.s, termD)
    if len(hits) != 1:
        raise OracleDisagreement("validated witness lost recursor uniqueness")
    entry = prodsD[(termD.t, wD.N)]
    point = mediating(D, entry, to_terminal(D, termD, wD.N), D.identity[wD.N])
    c = D.compose(point, hits[0])
    if D.compose(wD.z, c) != image.z or D.compose(wD.s, c) != D.compose(c, image.s):
        raise OracleDisagreement("comparison fails zero or successor compatibility")
    iso = find_iso(D, c)
    return None if iso is None else PNNOPreservationCert(F, iso)


def preserves(
    shape: LimitShape, F: Functor, source: Table, target: Table
) -> LimitPreservationCert | None:
    """``limits.preserves`` as three walks over the source: each source
    field read through a dict of F's map, so that an apex or leg out of
    range is refused, the key parts read by bare index; then the target
    entry of each image, refused when missing or out of range; then each
    image compared anew, key by key."""
    E = F.target
    obj, mor = dict(enumerate(F.obj_map)), dict(enumerate(F.mor_map))
    k = shape.n_key
    images = {}
    for key, v in source.items():
        try:
            images[key] = (*shape.image_key(F, key), obj[v[k]], *map(mor.__getitem__, v[k + 1:]))
        except KeyError:
            raise InvalidCert(f"source {shape.name} entry {key} is out of range") from None
    for image in images.values():
        entry = target.get(image[:k])
        if entry is None:
            raise InvalidCert(f"target {shape.name} table lacks the entry at {image[:k]}")
        if not shape.in_range(E, entry):
            raise InvalidCert(f"target {shape.name} entry {image[:k]} is out of range")
    mu = {}
    for key, image in images.items():
        mu[key] = _comparison_at(shape, E, target[image[:k]], image)
        if mu[key] is None:
            return None
    return LimitPreservationCert(F, source, target, mu)


def carry(shape: LimitShape, cert: WeakEquivalenceCert, table: Table) -> Table:
    """``limits.transfer`` key by key: the source table and the
    certificate are refused first, as ``transfer`` refuses them, and then
    the entry at each pulled-back key is imaged again for every key, and
    each leg composed with the eso iso of its foot by ``FinCat.compose``."""
    check_table(shape, cert.functor.source, table)
    check_weak_equivalence_cert(cert)
    G, Q = cert.functor, cert.quasi_inverse
    D = G.target
    k = shape.n_key
    out = {}
    for key in shape.keys(D):
        v = table[shape.image_key(Q, key)]
        legs = [
            D.compose(G.mor_map[p], cert.eso_witness[y][1].fwd)
            for p, y in zip(v[k + 1:], shape.feet(D, key))
        ]
        out[key] = shape.witness(*key, G.obj_map[v[k]], *legs)
    return out


def generic_view(C: FinCat) -> FinCat:
    """C's tables with its down-sets hidden, so that every check and search
    in ``catkit`` takes the route it takes off a thin category: the
    counting kernel, ``find_limit`` key by key, and the certificate checks'
    walks."""
    G = dataclasses.replace(C)
    G.__dict__["down_sets"] = None
    G.__dict__["order_scan"] = (None, 0)
    return G


# shape name -> its loop over cones, taking a witness
CONE_LOOPS = {
    "terminal": lambda C, w: is_terminal(C, w.t),
    "product": is_binary_product,
    "equalizer": is_equalizer,
    "pullback": is_pullback,
}


def generic_table(shape: LimitShape, C: FinCat) -> Table | None:
    """``limits.find_table`` by the generic search: ``find_limit`` key by
    key, every candidate decided by the loop over cones."""
    out = {}
    for key in shape.keys(C):
        w = find_limit(shape, C, key, CONE_LOOPS[shape.name])
        if w is None:
            return None
        out[key] = w
    return out


def chi_by_pullback(C: FinCat, t: int, omega: int, tau: int) -> dict | None:
    """The chi table of omega and tau by the loops over cones: the monos
    are the arrows whose kernel-pair square is a pullback, and each is
    classified by the one chi whose square against tau is a pullback; None
    when some mono has no such chi or more than one."""
    ids, chi = C.identity, {}
    for m in range(C.n_morphisms):
        x, y = C.mor_src[m], C.mor_dst[m]
        if not is_pullback(C, PullbackW(m, m, x, ids[x], ids[x])):
            continue
        bang = C.hom(x, t)[0]
        hits = [c for c in C.hom(y, omega) if is_pullback(C, PullbackW(c, tau, x, m, bang))]
        if len(hits) != 1:
            return None
        chi[m] = hits[0]
    return chi


def find_subobject_classifier(C: FinCat, bag: dict) -> SubobjectClassifierW | None:
    """``classifier.find_subobject_classifier`` by the loops over cones:
    the first omega and tau, in object and hom order, that
    :func:`chi_by_pullback` classifies every mono with."""
    t = bag["terminal"].t
    for omega in range(C.n_objects):
        for tau in C.hom(t, omega):
            chi = chi_by_pullback(C, t, omega, tau)
            if chi is not None:
                return SubobjectClassifierW(omega, tau, chi)
    return None


def generic_exponentials(C: FinCat, prods: Table) -> dict | None:
    """``exponentials.find_exponentials`` by the general search: for each
    pair the lowest obj, then the lowest ev, that passes the loop over
    curried forms, each lam x id_x built once."""
    pairing = cache(partial(_pairing, C, prods))
    out = {}
    for x, y in itertools.product(range(C.n_objects), repeat=2):
        out[(x, y)] = w = _generic_exponential(C, prods, x, y, pairing)
        if w is None:
            return None
    return out


def _generic_exponential(C: FinCat, prods: Table, x: int, y: int, pairing) -> ExponentialW | None:
    for obj in range(C.n_objects):
        entry = prods.get((obj, x))
        if entry is None:
            return None
        for ev in C.hom(entry.apex, y):
            w = ExponentialW(x, y, obj, ev)
            if is_exponential(C, prods, w, pairing):
                return w
    return None


# kind -> its generic search, taking the bag of the kinds before it
GENERIC_FINDS = {
    "terminal": lambda C, bag: (generic_table(limits.TERMINAL, C) or {}).get(()),
    "products": lambda C, bag: generic_table(limits.PRODUCTS, C),
    "equalizers": lambda C, bag: generic_table(limits.EQUALIZERS, C),
    "pullbacks": lambda C, bag: generic_table(limits.PULLBACKS, C),
    "exponentials": lambda C, bag: generic_exponentials(C, bag["products"]),
    "classifier": find_subobject_classifier,
    "pnno": find_pnno,
}


def generic_bag(C: FinCat) -> dict:
    """``lifting.find_bag(C, KIND_ORDER)`` by the generic searches, every
    kind whose dependencies were found searched, pullbacks included."""
    bag: dict = {}
    for name, find in GENERIC_FINDS.items():
        if all(dep in bag for dep in KINDS[name].deps):
            w = find(C, bag)
            if w is not None:
                bag[name] = w
    return bag
