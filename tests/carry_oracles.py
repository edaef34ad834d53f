"""The re-validation every carry used to run, which ``catkit`` no longer
runs: each carried bag is pulled back along the quasi-inverse of the
inclusion of the representatives onto the skeleton's chosen entries, by a
comparison loop of its own per kind.  ``complete_structured`` decides the
same entries once, by eta's ``preserves``; the tests check that this route
accepts every carried bag and, where eta equals that quasi-inverse, gives
eta's certificates.  Each check raises ``InvalidCert`` naming the first
offending key, as the library's brute-force checks do."""
import itertools

from catkit.completion import skeleton_inclusion
from catkit.core import Functor, Iso, find_iso
from catkit.errors import InvalidCert, NotACone
from catkit.exponentials import ExpPreservationCert
from catkit.limits import (
    EQUALIZERS,
    PRODUCTS,
    PULLBACKS,
    TERMINAL,
    LimitPreservationCert,
    LimitShape,
    Table,
    _comparison_at,
    mediating,
)
from catkit.nno import PNNOPreservationCert, _image_triple, preserves_pnno
from limit_oracles import curry

SHAPES = {"terminal": TERMINAL, "products": PRODUCTS, "equalizers": EQUALIZERS,
          "pullbacks": PULLBACKS}


def table_along(
    shape: LimitShape, F: Functor, table: Table, target: Table
) -> LimitPreservationCert:
    """Type each entry of table on the source of F, then compare each
    distinct image cone with the target entry of its diagram."""
    C, D = F.source, F.target
    k = shape.n_key
    mu, by_image = {}, {}
    for key in shape.keys(C):
        v = table.get(key)
        if v is None or v[:k] != key or not 0 <= v[k] < C.n_objects:
            raise InvalidCert(f"{shape.name} table is wrong at {key}")
        for p, x in zip(v[k + 1:], shape.feet(C, key)):
            if not 0 <= p < C.n_morphisms or C.mor_src[p] != v[k] or C.mor_dst[p] != x:
                raise InvalidCert(f"{shape.name} table is wrong at {key}")
        image = (*shape.image_key(F, key), F.obj_map[v[k]], *(F.mor_map[p] for p in v[k + 1:]))
        if image not in by_image:
            by_image[image] = _comparison_at(shape, D, target[image[:k]], image)
        if by_image[image] is None:
            raise InvalidCert(f"{shape.name} table is wrong at {key}")
        mu[key] = by_image[image]
    return LimitPreservationCert(F, table, target, mu)


def exponentials_along(F: Functor, src: dict, dst: dict) -> ExpPreservationCert:
    """Type each exponential of src on the source of F, re-base its image
    evaluation onto the chosen product of the images through the mediator
    of the image product, and curry it through the exponential of dst."""
    C, D = F.source, F.target
    table, prodsC, prodsD, expsD = (
        src["exponentials"], src["products"], dst["products"], dst["exponentials"]
    )
    comparison, by_image = {}, {}
    for x, y in itertools.product(range(C.n_objects), repeat=2):
        w = table.get((x, y))
        entry = None if w is None or not 0 <= w.obj < C.n_objects else prodsC.get((w.obj, x))
        if (entry is None or (w.x, w.y) != (x, y) or not C.has_morphisms(w.ev)
                or C.mor_src[w.ev] != entry.apex or C.mor_dst[w.ev] != y):
            raise InvalidCert(f"exponential table is wrong at ({x},{y})")
        chosen = prodsD[(F.obj_map[w.obj], F.obj_map[x])]
        u = mediating(D, PRODUCTS.image(F, entry), chosen.pi1, chosen.pi2)
        image = (F.obj_map[x], F.obj_map[y], F.obj_map[w.obj], D.compose(u, F.mor_map[w.ev]))
        if image not in by_image:
            target = expsD[image[:2]]
            if image[2:] == (target.obj, target.ev):
                by_image[image] = Iso(D.identity[target.obj], D.identity[target.obj])
            else:
                try:
                    by_image[image] = find_iso(D, curry(D, prodsD, target, image[2], image[3]))
                except NotACone:
                    by_image[image] = None
        if by_image[image] is None:
            raise InvalidCert(f"exponential table is wrong at ({x},{y})")
        comparison[(x, y)] = by_image[image]
    return ExpPreservationCert(F, table, expsD, comparison)


def pnno_along(F: Functor, src: dict, dst: dict) -> PNNOPreservationCert:
    """Type the triple of src on the source of F; its image is accepted
    with the identity where it is the triple of dst, and decided by its
    comparison otherwise."""
    C, termC, w = F.source, src["terminal"], src["pnno"]
    if (not C.has_morphisms(w.z, w.s) or (C.mor_src[w.z], C.mor_dst[w.z]) != (termC.t, w.N)
            or (C.mor_src[w.s], C.mor_dst[w.s]) != (w.N, w.N)):
        raise InvalidCert("parameterized-N witness is not typed on the source")
    if _image_triple(F, termC, dst["terminal"], w) == dst["pnno"]:
        one = F.target.identity[dst["pnno"].N]
        return PNNOPreservationCert(F, Iso(one, one))
    pres = preserves_pnno(F, src, dst, {})
    if pres is None:
        raise InvalidCert("parameterized-N witness fails its defining property")
    return pres


def revalidate_carried(sc) -> dict[str, object]:
    """Every carried bag of sc but the classifier, whose carry searches its
    target instead, re-validated along the quasi-inverse of the inclusion
    of the representatives; returns that functor's certificate per kind."""
    Q = skeleton_inclusion(sc.result).quasi_inverse
    out: dict[str, object] = {}
    for name in sc.kinds:
        if name in SHAPES:
            shape = SHAPES[name]
            table, target = sc.source[name], sc.completed[name]
            if not shape.n_key:   # the terminal's bag entry is its one witness
                table, target = {(): table}, {(): target}
            out[name] = table_along(shape, Q, table, target)
        elif name == "exponentials":
            out[name] = exponentials_along(Q, sc.source, sc.completed)
        elif name == "pnno":
            out[name] = pnno_along(Q, sc.source, sc.completed)
    return out
