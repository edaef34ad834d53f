"""The second routes of each classifier decision, which ``catkit.classifier``
does not run: left cancellation and the kernel-pair square walked by the
loop over cones for monos, the chi table transported through the
quasi-inverse of an equivalence, and the image pair classifying for
preservation.  The tests compare ``is_mono``, the carried chi table and
``preserves_subobject_classifier`` against them."""
import limit_oracles
from catkit.classifier import is_subobject_classifier
from catkit.core import FinCat, Functor, WeakEquivalenceCert, budget_tick
from catkit.limits import ChosenTerminal, PullbackW, to_terminal


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
    return limit_oracles.is_pullback(C, w)


def transported_chi(cert: WeakEquivalenceCert, src: dict) -> dict[int, int]:
    """The chi table on the target of cert, for omega and tau carried from
    the classifier of src: each mono m of the target is pulled back through
    the eso isos to a mono m_c of the source, whose classifying morphism is
    pushed forward and conjugated back onto m."""
    G = cert.functor
    C, D = G.source, G.target
    chi_C = src["classifier"].chi
    out = {}
    for m in range(D.n_morphisms):
        if not mono_by_cancellation(D, m):
            continue
        x1, i1 = cert.eso_witness[D.mor_src[m]]
        x2, i2 = cert.eso_witness[D.mor_dst[m]]
        m_c = cert.ff_inverse(x1, x2, D.compose_many(i1.fwd, m, i2.inv))
        assert mono_by_cancellation(C, m_c), f"the equivalence failed to reflect mono {m}"
        out[m] = D.compose(i2.inv, G.mor_map[chi_C[m_c]])
    return out


def image_pair_classifies(F: Functor, src: dict, dst: dict) -> bool:
    """Whether the image of omega, with the image of tau moved onto the
    terminal of dst, is itself a subobject classifier on the target."""
    D = F.target
    termC, socC, termD = src["terminal"], src["classifier"], dst["terminal"]
    u = to_terminal(D, ChosenTerminal(F.obj_map[termC.t]), termD.t)
    tau_img = D.compose(u, F.mor_map[socC.tau])
    return is_subobject_classifier(D, termD, F.obj_map[socC.omega], tau_img) is not None
