"""Direct colimit searches, written without opposites: the independent
oracles that the duality-based finders in ``catkit.limits`` are compared
against."""
from catkit.core import FinCat, budget_tick
from catkit.limits import BinCoproductW, CoequalizerW


def is_binary_coproduct_direct(C: FinCat, w: BinCoproductW) -> bool:
    """Independent oracle: the cocone condition checked without opposites."""
    if not C.has_morphisms(w.in1, w.in2):
        return False
    if C.mor_src[w.in1] != w.x1 or C.mor_dst[w.in1] != w.apex:
        return False
    if C.mor_src[w.in2] != w.x2 or C.mor_dst[w.in2] != w.apex:
        return False
    for z in range(C.n_objects):
        for g1 in C.hom(w.x1, z):
            for g2 in C.hom(w.x2, z):
                budget_tick()
                hits = 0
                for h in C.hom(w.apex, z):
                    if C.compose(w.in1, h) == g1 and C.compose(w.in2, h) == g2:
                        hits += 1
                if hits != 1:
                    return False
    return True


def find_binary_coproduct_direct(C: FinCat, x1: int, x2: int) -> BinCoproductW | None:
    for apex in range(C.n_objects):
        for in1 in C.hom(x1, apex):
            for in2 in C.hom(x2, apex):
                w = BinCoproductW(x1, x2, apex, in1, in2)
                if is_binary_coproduct_direct(C, w):
                    return w
    return None


def find_coequalizer(C: FinCat, f: int, g: int) -> CoequalizerW | None:
    w = find_equalizer(opposite(C), f, g)
    return None if w is None else CoequalizerW(f, g, w.obj, w.arrow)


def find_coequalizers(C: FinCat) -> dict[tuple[int, int], CoequalizerW] | None:
    table = find_equalizers(opposite(C))
    if table is None:
        return None
    return {k: CoequalizerW(w.f, w.g, w.obj, w.arrow) for k, w in table.items()}


def is_coequalizer_direct(C: FinCat, w: CoequalizerW) -> bool:
    if not C.has_morphisms(w.f, w.g, w.arrow):
        return False
    y = C.mor_dst[w.f]
    if C.mor_src[w.g] != C.mor_src[w.f] or C.mor_dst[w.g] != y:
        return False
    if C.mor_src[w.arrow] != y or C.mor_dst[w.arrow] != w.obj:
        return False
    if C.compose(w.f, w.arrow) != C.compose(w.g, w.arrow):
        return False
    for z in range(C.n_objects):
        for h in C.hom(y, z):
            if C.compose(w.f, h) != C.compose(w.g, h):
                continue
            budget_tick()
            hits = sum(1 for u in C.hom(w.obj, z) if C.compose(w.arrow, u) == h)
            if hits != 1:
                return False
    return True


def find_coequalizer_direct(C: FinCat, f: int, g: int) -> CoequalizerW | None:
    if C.mor_src[f] != C.mor_src[g] or C.mor_dst[f] != C.mor_dst[g]:
        return None
    for obj in range(C.n_objects):
        for arrow in C.hom(C.mor_dst[f], obj):
            w = CoequalizerW(f, g, obj, arrow)
            if is_coequalizer_direct(C, w):
                return w
    return None
