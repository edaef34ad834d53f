"""The second route to each lifted preservation certificate, which
``catkit`` no longer runs: F's comparisons transported through alpha and
the eso isos of the equivalence onto the factored functor H.  Each
``lift_preservation_*`` decides H's preservation directly; the tests
compare its certificate with the comparisons these build.  Each takes the
arguments of the lift it shadows and returns the forward morphisms of the
comparisons it builds; the limit route also raises when a square
transporting the universal property fails to commute."""
from catkit.core import Functor, NatIso, WeakEquivalenceCert, find_iso
from catkit.errors import OracleDisagreement
from catkit.limits import Key, LimitPreservationCert, LimitShape, Table, mediating, mediator
from limit_oracles import curry


def transport_iso(cert: WeakEquivalenceCert, H: Functor, alpha: NatIso, y: int) -> tuple[int, int]:
    """For a target object y with eso witness (x, i): the iso
    H(y) -> F(x) given by H(i)^{-1} then alpha_x; returns (x, morphism)."""
    x, i = cert.eso_witness[y]
    E = H.target
    hi = find_iso(E, H.mor_map[i.fwd])
    if hi is None:
        raise OracleDisagreement("functor image of an iso is not invertible")
    return x, E.compose(hi.inv, alpha.components[x].fwd)


def limit_transport(
    shape: LimitShape,
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    Fcert: LimitPreservationCert,
    transferred: Table,
) -> dict[Key, int]:
    """mu for H at each key of the completion: pull the key back along the
    equivalence and transport F's comparison there through alpha."""
    D = cert.functor.target
    E = F.target
    built: dict[Key, int] = {}
    phi_at: dict[int, int] = {}   # foot -> its transport iso, one find_iso per foot object
    k = shape.n_key
    for key in shape.keys(D):
        feet = shape.feet(D, key)
        for y in feet:
            if y not in phi_at:
                phi_at[y] = transport_iso(cert, H, alpha, y)[1]
        phis = [phi_at[y] for y in feet]
        src_key = shape.image_key(cert.quasi_inverse, key)
        src = Fcert.source[src_key]
        h = Fcert.target[shape.image_key(H, key)]
        entry_f = Fcert.target[shape.image_key(F, src_key)]
        theta = mediator(shape, E, entry_f, h[k], tuple(map(E.compose, h[k + 1:], phis)))
        psi = alpha.components[src[k]]
        built[key] = E.compose_many(theta, Fcert.mu[src_key].fwd, psi.inv)
        # the square transporting the universal property must commute
        for p, phi, rho in zip(transferred[key][k + 1:], phis, src[k + 1:]):
            if E.compose(H.mor_map[p], phi) != E.compose(psi.fwd, F.mor_map[rho]):
                raise OracleDisagreement(f"transport square for lifted {shape.name}s broke")
    return built


def exponential_transport(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    src: dict,
    dst: dict,
    Fcerts: dict,
    carried: dict,
) -> dict[tuple[int, int], int]:
    """The comparison for H at each pair of the completion: alpha, then F's
    comparison, then xi, the comparison from the chosen exponential of the
    F-pair to that of the H-pair."""
    E = F.target
    prodsE, expsE = dst["products"], dst["exponentials"]
    FexpCert = Fcerts["exponentials"]
    phi = [transport_iso(cert, H, alpha, y) for y in range(cert.functor.target.n_objects)]
    built: dict[tuple[int, int], int] = {}
    for y1, y2 in carried["exponentials"]:
        (x1, phi1), (x2, phi2) = phi[y1], phi[y2]
        srcC = src["exponentials"][(x1, x2)]
        ef = expsE[(F.obj_map[x1], F.obj_map[x2])]
        eh = expsE[(H.obj_map[y1], H.obj_map[y2])]
        pf = prodsE[(ef.obj, H.obj_map[y1])]
        pfx = prodsE[(ef.obj, F.obj_map[x1])]
        route = mediating(E, pfx, pf.pi1, E.compose(pf.pi2, phi1))
        phi2_inv = find_iso(E, phi2)
        if phi2_inv is None:
            raise OracleDisagreement("transport iso is not invertible")
        xi = curry(E, prodsE, eh, ef.obj, E.compose_many(route, ef.ev, phi2_inv.inv))
        built[(y1, y2)] = E.compose_many(
            alpha.components[srcC.obj].fwd, FexpCert.comparison[(x1, x2)].fwd, xi
        )
    return built


def pnno_transport(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    src: dict,
    dst: dict,
    Fcerts: dict,
    carried: dict,
) -> int:
    """F's comparison, then alpha back at the source N; zero and successor
    compatibility pin the comparison down."""
    return F.target.compose(Fcerts["pnno"].comparison.fwd, alpha.components[src["pnno"].N].inv)


def classifier_transport(
    cert: WeakEquivalenceCert,
    F: Functor,
    H: Functor,
    alpha: NatIso,
    src: dict,
    dst: dict,
    Fcerts: dict,
    carried: dict,
) -> int:
    """alpha at the source omega, then F's comparison; classifying-map
    uniqueness pins the comparison down."""
    return F.target.compose(
        alpha.components[src["classifier"].omega].fwd, Fcerts["classifier"].comparison.fwd
    )
