"""Constructions that only the tests use: every natural isomorphism between
two functors, by exhaustive search, the replete image of a functor, the
automorphism of an inflation that shifts its copies, and a table of
equalizers twisted by automorphisms."""
import dataclasses
import itertools

from catkit.completion import full_subcategory
from catkit.core import (
    FinCat,
    Functor,
    NatIso,
    budget_tick,
    functor,
    iso_between,
    isos_between,
)
from catkit.limits import EqualizerW, find_equalizers


def nat_isos_between(F: Functor, G: Functor) -> list[NatIso]:
    """Exhaustive enumeration of all natural isomorphisms F => G.  Desk-scale
    only; the component search space is the product of iso sets."""
    C, D = F.source, F.target
    candidate_sets = []
    for x in range(C.n_objects):
        cands = isos_between(D, F.obj_map[x], G.obj_map[x])
        if not cands:
            return []
        candidate_sets.append(cands)
    out = []
    for combo in itertools.product(*candidate_sets):
        budget_tick()
        ok = True
        for f in range(C.n_morphisms):
            x, y = C.mor_src[f], C.mor_dst[f]
            if D.compose(F.mor_map[f], combo[y].fwd) != D.compose(
                combo[x].fwd, G.mor_map[f]
            ):
                ok = False
                break
        if ok:
            out.append(NatIso(F, G, tuple(combo)))
    return out


def replete_image(F: Functor) -> FinCat:
    """Full subcategory of the target on every object isomorphic to some
    image object."""
    D = F.target
    image = set(F.obj_map)
    hit = []
    for y in range(D.n_objects):
        if y in image or any(iso_between(D, fx, y) is not None for fx in image):
            hit.append(y)
    sub, _ = full_subcategory(D, hit)
    return dataclasses.replace(sub, name=f"{D.name}|replete({F.name or 'F'})")


def shifted_copies(proj: Functor) -> Functor:
    """The automorphism of the inflation proj projects from that moves each
    copy of a base object onto the next one, the last onto the first, and
    each morphism onto the one over the same base morphism between the
    moved copies."""
    infl = proj.source
    copies: dict[int, list[int]] = {}
    for y in range(infl.n_objects):
        copies.setdefault(proj.obj_map[y], []).append(y)
    obj_map = [0] * infl.n_objects
    for ys in copies.values():
        for i, y in enumerate(ys):
            obj_map[y] = ys[(i + 1) % len(ys)]
    mor_map = [
        next(h for h in infl.hom(obj_map[infl.mor_src[g]], obj_map[infl.mor_dst[g]])
             if proj.mor_map[h] == proj.mor_map[g])
        for g in range(infl.n_morphisms)
    ]
    return functor(infl, infl, obj_map, mor_map, name=f"shift_{infl.name}")


def twisted_equalizers(C: FinCat) -> tuple[dict, int]:
    """The chosen equalizers of C with each arrow composed after an
    involution of its object other than the identity, where there is one,
    and the number so twisted: still equalizers, but not the chosen ones."""
    twisted, n = {}, 0
    for key, w in find_equalizers(C).items():
        autos = [
            a for a in C.hom(w.obj, w.obj)
            if a != C.identity[w.obj] and C.compose(a, a) == C.identity[w.obj]
        ]
        if autos:
            w = EqualizerW(w.f, w.g, w.obj, C.compose(autos[0], w.arrow))
            n += 1
        twisted[key] = w
    return twisted, n
