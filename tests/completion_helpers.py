"""Constructions that only the tests use: every natural isomorphism between
two functors, by exhaustive search, and the replete image of a functor."""
import dataclasses
import itertools

from catkit.completion import full_subcategory
from catkit.core import FinCat, Functor, NatIso, budget_tick, iso_between, isos_between


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
