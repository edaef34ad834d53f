"""The certificate checks of ``catkit.core`` and ``catkit.completion`` by
their definitions, which the routes that decide a thin category by order
are compared against: isomorphism classes from inverse pairs searched
pair by pair, the lowest essential preimage by search, gauntness by
counting automorphisms, the naturality walk over every square, the
full-and-faithful check one morphism at a tick, and the preservation of
exponentials walked key by key.  Only the last two tick the search budget:
once per source morphism, and on the first read of the target's
down-sets."""
from types import MappingProxyType

from catkit.core import FinCat, Functor, Iso, NatIso, budget_tick, same_tables
from catkit.errors import ComponentNotIso, IllTypedImage, InvalidCert, NaturalitySquareFails
from catkit.exponentials import ExpPreservationCert


def inverse(C: FinCat, f: int) -> int | None:
    """The g, searched over every morphism, with f;g and g;f identities."""
    x, y = C.mor_src[f], C.mor_dst[f]
    for g in range(C.n_morphisms):
        if (C.mor_src[g], C.mor_dst[g]) == (y, x) and C.comp_table[f][g] == C.identity[x] \
                and C.comp_table[g][f] == C.identity[y]:
            return g
    return None


def isos(C: FinCat, x: int, y: int) -> list[Iso]:
    """Every iso from x to y with its inverse, in index order."""
    return [Iso(f, g) for f in range(C.n_morphisms)
            if (C.mor_src[f], C.mor_dst[f]) == (x, y) and (g := inverse(C, f)) is not None]


def iso_classes(C: FinCat) -> tuple[tuple[int, ...], ...]:
    """Each object with every object it has an iso to, classes ordered by
    least member."""
    out, placed = [], set()
    for x in range(C.n_objects):
        if x not in placed:
            cls = tuple(y for y in range(C.n_objects) if y == x or isos(C, x, y))
            placed.update(cls)
            out.append(cls)
    return tuple(out)


def essentially_surjective(F: Functor) -> tuple[tuple[int, Iso], ...] | None:
    """For each target object y, the least source object x and the least
    iso from F(x) to y; an image outside the target is isomorphic to
    nothing."""
    D = F.target
    out = []
    for y in range(D.n_objects):
        hit = next(((x, found[0]) for x in range(F.source.n_objects)
                    if 0 <= F.obj_map[x] < D.n_objects
                    and (found := isos(D, F.obj_map[x], y))), None)
        if hit is None:
            return None
        out.append(hit)
    return tuple(out)


def skeletality(C: FinCat) -> tuple[bool, bool]:
    """(skeletal, gaunt): no two objects isomorphic, and, besides, every
    object with exactly one automorphism."""
    skeletal = all(len(cls) == 1 for cls in iso_classes(C))
    return skeletal, skeletal and all(len(isos(C, x, x)) == 1 for x in range(C.n_objects))


def check_nat_iso(alpha: NatIso) -> None:
    """Every image of F and of G, object by object and morphism by
    morphism, then every component, an iso from F(x) to G(x) with its
    inverse, then every naturality square by composing both of its paths."""
    F, G = alpha.source, alpha.target
    C, D = F.source, F.target
    if G.source is not C and not same_tables(G.source, C):
        raise NaturalitySquareFails("functors are not parallel")
    for H, end in ((F, "source"), (G, "target")):
        typed = len(H.obj_map) == C.n_objects and len(H.mor_map) == C.n_morphisms
        for x in range(C.n_objects if typed else 0):
            typed = typed and 0 <= H.obj_map[x] < D.n_objects
        for f in range(C.n_morphisms if typed else 0):
            h = H.mor_map[f]
            typed = typed and 0 <= h < D.n_morphisms and (D.mor_src[h], D.mor_dst[h]) == (
                H.obj_map[C.mor_src[f]], H.obj_map[C.mor_dst[f]])
        if not typed:
            raise IllTypedImage(f"{end} functor {H.name} has an image out of range or ill-typed")
    if len(alpha.components) != C.n_objects:
        raise ComponentNotIso("one component per source object is required")
    for x, comp in enumerate(alpha.components):
        if not 0 <= comp.fwd < D.n_morphisms:
            raise ComponentNotIso(f"component at {C.objects[x]} is not a morphism of the target")
        if (D.mor_src[comp.fwd], D.mor_dst[comp.fwd]) != (F.obj_map[x], G.obj_map[x]):
            raise ComponentNotIso(f"component at {C.objects[x]} has the wrong endpoints")
        if inverse(D, comp.fwd) != comp.inv:
            raise ComponentNotIso(f"component at {C.objects[x]} is not an isomorphism")
    for f in range(C.n_morphisms):
        x, y = C.mor_src[f], C.mor_dst[f]
        left = D.compose(F.mor_map[f], alpha.components[y].fwd)
        right = D.compose(alpha.components[x].fwd, G.mor_map[f])
        if left != right:
            raise NaturalitySquareFails(f"naturality square for {C.mor_labels[f]} does not commute")


def is_fully_faithful(F: Functor) -> dict | None:
    """Hom-set by hom-set, one tick per source morphism, stopping at the
    first repeated image or the first hom-set not covered."""
    C, D = F.source, F.target
    out = {}
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            table = {}
            for f in C.hom(x, y):
                budget_tick()
                if F.mor_map[f] in table:
                    return None
                table[F.mor_map[f]] = f
            if len(table) != len(D.hom(F.obj_map[x], F.obj_map[y])):
                return None
            out[(x, y)] = MappingProxyType(table)
    return out


def preserves_exponentials(F: Functor, src: dict, dst: dict) -> ExpPreservationCert | None:
    """``exponentials.preserves_exponentials`` as three walks over the
    source, each image taken anew: a source entry out of range is refused,
    then a target entry missing or not an exponential, before any pair is
    compared."""
    D = F.target
    expsC, prodsD, expsD = src["exponentials"], dst["products"], dst["exponentials"]
    n, m = len(F.obj_map), len(F.mor_map)
    for (x, y), w in expsC.items():
        if not (0 <= x < n and 0 <= y < n and 0 <= w.obj < n and 0 <= w.ev < m):
            raise InvalidCert(f"source exponential entry {(x, y)} is out of range")
    images = {(x, y): ((F.obj_map[x], F.obj_map[y]), F.obj_map[w.obj])
              for (x, y), w in expsC.items()}
    for key, obj in images.values():
        if key not in expsD:
            raise InvalidCert(f"target exponential table lacks the entry at {key}")
        tx, ty, tobj, tev = expsD[key]
        entry = prodsD.get((tobj, key[0]))
        if (D.down_sets is None or not D.hom(obj, tobj) or entry is None
                or (tx, ty) != key or not D.has_morphisms(tev)
                or (D.mor_src[tev], D.mor_dst[tev]) != (entry[2], key[1])):
            raise InvalidCert(f"target exponential entry {key} is not an exponential")
    comparison = {}
    for xy, (key, obj) in images.items():
        tobj = expsD[key].obj
        inv = D.hom(tobj, obj)
        if not inv:
            return None
        comparison[xy] = Iso(D.hom(obj, tobj)[0], inv[0])
    return ExpPreservationCert(F, expsC, expsD, comparison)
