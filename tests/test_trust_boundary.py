"""The trust boundary: what ``catkit`` builds by construction is certified
here, and what enters from outside is refused as a ``CatkitError``.

``skeletize`` builds eta, the skeleton's inclusion and eta's certificate
without checking them, and ``skeleton_inclusion`` builds the inclusion's
certificate without a search or a check.  On a corpus of the law corpus,
the finset fragments of 2 and 3 and their inflations, H-valued sets over
the diamond and two chains, and deloopings, the checks they skip pass on
what they build.  The public verbs that take a certificate, a bag or a
table from outside refuse a malformed one before they read it: every
``transfer_*`` checks its certificate, and ``limits.preserves`` and
``preserves_exponentials`` refuse a bad target entry before they decide
anything, and every bag verb refuses a bag without a kind it reads.
``full_subcategory`` refuses an object index that names no object, and
``compose_functors`` an image of the first functor outside the second's
source, rather than reading either from the end of a table.
``limits.mediator`` refuses a witness with a field outside its category
before it reads one.  ``structure_from_json`` refuses a document that is
not an object, and ``structure_to_json`` a bag keyed by anything but a
kind and a witness field, a chi entry's included, that is not an int or
names nothing of its category.  ``check_table`` refuses a terminal witness
that is not an int as one that names no terminal, and
``preserves_subobject_classifier`` a target omega or tau out of range
before it reads either."""
import re
from functools import cache

import pytest

from catkit import classifier, exponentials, limits, nno
from catkit.completion import (
    full_subcategory,
    inflate,
    skeletality,
    skeletize,
    skeleton_inclusion,
)
from catkit.core import (
    Functor,
    WeakEquivalenceCert,
    check_functor,
    compose_functors,
    check_weak_equivalence_cert,
    identity_functor,
    is_fully_faithful,
)
from catkit.errors import (
    CatkitError,
    DanglingReference,
    DependencyMissing,
    IllTypedImage,
    InvalidCert,
    MalformedInput,
    PreconditionViolation,
)
from catkit.generators import (
    chain_poset,
    delooping,
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    hvalued_sets,
    setoid_groupoid,
)
from catkit.interchange import structure_from_json, structure_to_json
from catkit.lifting import KIND_ORDER, KINDS, find_bag
from catkit.limits import ChosenTerminal
from test_law_oracles import corpus as law_corpus


def _cyclic(n: int):
    return delooping([[(i + j) % n for j in range(n)] for i in range(n)], name=f"Z{n}")


@cache
def corpus():
    out = list(law_corpus())
    for C, copies in ((finset_fragment(2), [2, 1, 2]), (finset_fragment(3), [1, 2, 2, 3])):
        out += [C, inflate(C, copies)[0]]
    out += [hvalued_sets(heyting_diamond(), 2)]
    out += [hvalued_sets(heyting_chain(n), 2) for n in (2, 3)]
    out += [_cyclic(n) for n in (2, 3, 4)]
    out += [delooping([[0, 1], [1, 1]], name="idempotent"), inflate(_cyclic(3), 2)[0]]
    return tuple(out)


def _fresh(cert: WeakEquivalenceCert) -> WeakEquivalenceCert:
    """A copy of cert that no check has seen: its tables copied, and its
    functor a new one with the same maps."""
    F = cert.functor
    G = Functor(F.source, F.target, F.obj_map, F.mor_map, F.name)
    ff = {key: dict(table) for key, table in cert.ff_witness.items()}
    return WeakEquivalenceCert(G, ff, cert.eso_witness)


def test_the_constructions_pass_the_checks_they_skip():
    seen = set()
    for C in corpus():
        res = skeletize(C)
        incl_cert = skeleton_inclusion(res)
        check_functor(res.eta)
        check_functor(res.inclusion)
        report = skeletality(res.completed)
        assert report.is_skeletal and res.fidelity == report.fidelity, C.name
        assert dict(incl_cert.ff_witness) == is_fully_faithful(res.inclusion), C.name
        for cert in (res.cert, incl_cert):
            check_weak_equivalence_cert(_fresh(cert))
        seen.add((res.fidelity, C.n_objects != res.completed.n_objects))
    # gaunt and non-gaunt skeletons, of categories skeletal or not
    assert seen == {(fidelity, collapsed) for fidelity in ("exact", "skeletal-approximation")
                    for collapsed in (True, False)}, seen


def test_the_inclusion_certificate_is_read_only():
    incl_cert = skeleton_inclusion(skeletize(inflate(chain_poset(3), [2, 1, 2])[0]))
    table = incl_cert.ff_witness[(0, 0)]
    (h, f), = table.items()
    with pytest.raises(TypeError):
        table[h] = f
    with pytest.raises(TypeError):
        incl_cert.ff_witness[(0, 0)] = {}


# ---------------------------------------------------------------------------
# bad input at the public verbs


def _chain():
    """A non-skeletal chain, its completion and the bags found on both sides."""
    C = inflate(chain_poset(3), [1, 2, 1])[0]
    res = skeletize(C)
    kinds = ("terminal", "products", "equalizers", "pullbacks", "exponentials", "pnno")
    return C, res, find_bag(C, kinds), find_bag(res.completed, kinds)


def test_preserves_refuses_a_target_without_an_entry_it_reads():
    C, res, bagC, bagD = _chain()
    D = res.completed
    prods = bagD["products"]
    first = next(iter(prods))
    lacks = re.escape(f"table lacks the entry at {first}")
    short = {key: w for key, w in prods.items() if key != first}
    with pytest.raises(InvalidCert, match=lacks):
        limits.preserves_binary_products(res.eta, bagC["products"], short)
    with pytest.raises(InvalidCert, match=lacks):
        limits.preserves_binary_products(identity_functor(D), prods, short)
    exps = bagD["exponentials"]
    short = {key: w for key, w in exps.items() if key != first}
    with pytest.raises(InvalidCert, match=lacks):
        exponentials.preserves_exponentials(res.eta, bagC, {**bagD, "exponentials": short})
    with pytest.raises(DependencyMissing, match="the bag lacks 'exponentials'"):
        exponentials.preserves_exponentials(res.eta, bagC, {"products": prods})


def test_preserves_refuses_a_bad_entry_after_an_unpreserved_one():
    """Folding the diamond's b onto a preserves no meet of a and b, and the
    target has no entry at the image of the last key: the refusal comes
    first."""
    D = heyting_category(heyting_diamond())
    bot, a, b, top = range(4)
    obj_map = (bot, a, a, top)
    hom = D.hom_map
    mor_map = tuple(hom[(obj_map[x], obj_map[y])][0] for x, y in zip(D.mor_src, D.mor_dst))
    F = Functor(D, D, obj_map, mor_map, "fold")
    check_functor(F)
    prods = find_bag(D, ("products",))["products"]
    assert limits.preserves_binary_products(F, prods, prods) is None
    short = {key: w for key, w in prods.items() if key != (top, top)}
    with pytest.raises(InvalidCert, match=re.escape(f"lacks the entry at {(top, top)}")):
        limits.preserves_binary_products(F, prods, short)


def test_transfer_exponentials_refuses_a_target_without_the_products_it_reads():
    C, res, bagC, bagD = _chain()
    with pytest.raises(InvalidCert, match="target products lack a product of"):
        exponentials.transfer_exponentials(res.cert, bagC, {"products": {}})
    with pytest.raises(DependencyMissing, match="the bag lacks 'products'"):
        exponentials.transfer_exponentials(res.cert, bagC, {})
    assert exponentials.transfer_exponentials(res.cert, bagC, bagD) == bagD["exponentials"]


# each bag verb, called on the chain with a bag that lacks the kind named
_BAG_VERBS = {
    "check_exponentials": (
        lambda C, eta, bag: exponentials.check_exponentials(C, {"exponentials": bag["exponentials"]}),
        "products",
    ),
    "find_exponentials": (lambda C, eta, bag: exponentials.find_exponentials(C, {}), "products"),
    "check_subobject_classifier": (
        lambda C, eta, bag: classifier.check_subobject_classifier(C, {"terminal": bag["terminal"]}),
        "classifier",
    ),
    "find_subobject_classifier": (
        lambda C, eta, bag: classifier.find_subobject_classifier(C, {}), "terminal",
    ),
    "check_pnno": (lambda C, eta, bag: nno.check_pnno(C, {"pnno": bag["pnno"]}), "terminal"),
    "find_pnno": (lambda C, eta, bag: nno.find_pnno(C, {}), "terminal"),
    "preserves_pnno": (
        lambda C, eta, bag: nno.preserves_pnno(eta, {"terminal": bag["terminal"]}, bag),
        "pnno",
    ),
    "preserves_subobject_classifier": (
        lambda C, eta, bag: classifier.preserves_subobject_classifier(eta, bag, bag),
        "classifier",
    ),
    "is_logical_functor": (lambda C, eta, bag: classifier.is_logical_functor(eta, {}, {}), "terminal"),
    # a source bag naming every topos kind, so that the target's is refused
    "is_logical_functor, target": (
        lambda C, eta, bag: classifier.is_logical_functor(eta, {**bag, "classifier": None}, {}),
        "terminal",
    ),
}


@pytest.mark.parametrize("verb", sorted(_BAG_VERBS))
def test_a_bag_verb_refuses_a_bag_without_a_kind_it_reads(verb):
    C, res, bagC, _ = _chain()
    call, kind = _BAG_VERBS[verb]
    with pytest.raises(DependencyMissing, match=f"the bag lacks '{kind}'"):
        call(C, res.eta, bagC)


def test_full_subcategory_refuses_an_index_that_names_no_object():
    C = _chain()[0]
    for x in (-1, C.n_objects, 10**6):
        with pytest.raises(DanglingReference, match=f"^object index {x} names no object of "):
            full_subcategory(C, [0, x])


def test_compose_functors_refuses_an_image_outside_the_second_source():
    C, res, _, _ = _chain()
    D = res.completed
    eta, G = res.eta, identity_functor(D)
    for x, y in ((-1, -1), (D.n_objects, D.n_morphisms), (10**6, 10**6)):
        bad_obj = Functor(C, D, (x,) + eta.obj_map[1:], eta.mor_map, "F")
        bad_mor = Functor(C, D, eta.obj_map, eta.mor_map[:-1] + (y,), "F")
        for F, what in ((bad_obj, "an object"), (bad_mor, "a morphism")):
            with pytest.raises(IllTypedImage, match=f"^F sends {what} outside the source of "):
                compose_functors(F, G)
    assert compose_functors(eta, G).obj_map == eta.obj_map


def _corruptions(res):
    """eta's certificate with its eso witness cut to the first entry, with
    eta's object map collapsed to 0, and with one ff entry moved outside
    its hom-set."""
    cert = res.cert
    eta = cert.functor
    C = eta.source
    collapsed = Functor(C, eta.target, (0,) * C.n_objects, eta.mor_map, eta.name)
    ff = {key: dict(table) for key, table in cert.ff_witness.items()}
    (x, y), table = next((key, t) for key, t in ff.items() if key[0] != key[1] and t)
    h = next(iter(table))
    table[h] = next(f for f in range(C.n_morphisms) if (C.mor_src[f], C.mor_dst[f]) != (x, y))
    return {
        "short eso witness": WeakEquivalenceCert(eta, cert.ff_witness, cert.eso_witness[:1]),
        "collapsed object map": WeakEquivalenceCert(collapsed, cert.ff_witness, cert.eso_witness),
        "ff entry outside its hom-set": WeakEquivalenceCert(eta, ff, cert.eso_witness),
    }


def _transfers():
    """Each public transfer with a source bag and a target bag it accepts
    along eta's own certificate."""
    _, res, bagC, bagD = _chain()
    # the finite sets of at most two elements carry a two-point classifier
    G = inflate(finset_fragment(2), [1, 2, 1])[0]
    resG = skeletize(G)
    bagG = find_bag(G, ("terminal", "classifier"))
    bagGD = find_bag(resG.completed, ("terminal", "classifier"))
    return [
        (res, lambda cert: limits.transfer_terminal(cert, bagC["terminal"])),
        (res, lambda cert: limits.transfer_binary_products(cert, bagC["products"])),
        (res, lambda cert: limits.transfer_equalizers(cert, bagC["equalizers"])),
        (res, lambda cert: limits.transfer_pullbacks(cert, bagC["pullbacks"])),
        (res, lambda cert: exponentials.transfer_exponentials(cert, bagC, bagD)),
        (res, lambda cert: nno.transfer_pnno(cert, bagC, bagD)),
        (resG, lambda cert: classifier.transfer_subobject_classifier(cert, bagG, bagGD)),
    ]


@pytest.mark.parametrize("how", ["short eso witness", "collapsed object map",
                                 "ff entry outside its hom-set"])
def test_every_transfer_refuses_a_corrupted_certificate(how):
    for res, transfer in _transfers():
        transfer(res.cert)
        with pytest.raises(CatkitError):
            transfer(_corruptions(res)[how])


def test_a_short_eso_witness_is_refused_by_the_certificate_check():
    C, res, bagC, bagD = _chain()
    short = _corruptions(res)["short eso witness"]
    for transfer in (lambda: exponentials.transfer_exponentials(short, bagC, bagD),
                     lambda: nno.transfer_pnno(short, bagC, bagD)):
        with pytest.raises(InvalidCert, match="eso witness does not cover the target objects"):
            transfer()


@pytest.mark.parametrize("doc", [[], None, "structure", 3])
def test_structure_from_json_refuses_a_document_that_is_not_an_object(doc):
    with pytest.raises(MalformedInput, match="^category document must be an object$"):
        structure_from_json(doc, chain_poset(3))


def test_structure_to_json_refuses_an_unknown_kind():
    with pytest.raises(PreconditionViolation, match="^unknown structure kind 'bogus'$"):
        structure_to_json(chain_poset(3), {"bogus": 1})


def test_structure_to_json_refuses_an_index_that_names_nothing():
    C = chain_poset(3)
    for t in (-1, 3, 99):
        with pytest.raises(InvalidCert, match=f"^'terminal': label {t} names no object of "):
            structure_to_json(C, {"terminal": ChosenTerminal(t)})
    # a field that is not an int, a bool included, is refused as one out of range
    for t in (None, "0", 1.5, True):
        with pytest.raises(InvalidCert, match=f"^'terminal': label {re.escape(repr(t))} names no "):
            structure_to_json(C, {"terminal": ChosenTerminal(t)})
    assert structure_to_json(C, {"terminal": ChosenTerminal(2)}) == {"structure": {"terminal": "c2"}}
    bag = find_bag(C, KIND_ORDER)
    key, w = next(iter(bag["products"].items()))
    for field, x, what in (("apex", -1, "object"), ("pi2", C.n_morphisms, "morphism")):
        table = {**bag["products"], key: w._replace(**{field: x})}
        with pytest.raises(InvalidCert, match=re.escape(
                f"'products' at key {key!r}: {field} {x} names no {what} of {C.name}")):
            structure_to_json(C, {**bag, "products": table})
    # a chi entry, key or value, that names no morphism
    G = inflate(finset_fragment(2), [1, 2, 1])[0]
    soc = find_bag(G, ("terminal", "classifier"))["classifier"]
    mono, chi = next(iter(soc.chi.items()))
    for table, bad in (({**soc.chi, mono: -1}, -1), ({G.n_morphisms: chi}, G.n_morphisms)):
        with pytest.raises(InvalidCert, match=r"^'classifier' at key -?\d+: chi "
                           f"{bad} names no morphism of "):
            structure_to_json(G, {"classifier": soc._replace(chi=table)})


def test_the_mediator_refuses_a_witness_outside_the_category_before_reading_it():
    """An apex past the objects, or a leg past the morphisms, would be read
    as an index, and a negative one from the end, naming another object."""
    C = chain_poset(3)
    for t in (99, -1, C.n_objects):
        with pytest.raises(InvalidCert, match=re.escape(
                f"terminal witness {ChosenTerminal(t)!r} is out of range")):
            limits.to_terminal(C, ChosenTerminal(t), 0)
    assert limits.to_terminal(C, ChosenTerminal(2), 0) == C.hom(0, 2)[0]
    w = limits.find_binary_products(C)[(1, 2)]
    g1, g2 = C.hom(0, 1)[0], C.hom(0, 2)[0]
    for bad in (w._replace(pi1=99), w._replace(pi2=-1), w._replace(apex=-1), w._replace(x1=3)):
        with pytest.raises(InvalidCert, match=re.escape(f"product witness {bad!r} is out of range")):
            limits.mediating(C, bad, g1, g2)
    assert limits.mediating(C, w, g1, g2) == C.hom(0, w.apex)[0]


@pytest.mark.parametrize("t", [None, 1.5, "0", -1, 99])
def test_a_terminal_witness_that_names_no_object_is_refused_by_its_check(t):
    """A field that is not an int is refused as one out of range, by the
    check of a supplied terminal and the table check it runs."""
    C = inflate(chain_poset(3), [1, 2, 1])[0]
    with pytest.raises(InvalidCert, match="^terminal witness is not terminal$"):
        limits.check_table(limits.TERMINAL, C, {(): ChosenTerminal(t)})
    with pytest.raises(InvalidCert, match="^terminal witness is not terminal$"):
        KINDS["terminal"].check(C, {"terminal": ChosenTerminal(t)})
    assert not limits.is_terminal(C, t)


@pytest.mark.parametrize("field, x", [("tau", 99), ("tau", -1), ("omega", 99), ("omega", -1)])
def test_preserves_subobject_classifier_refuses_a_target_out_of_range(field, x):
    G = inflate(setoid_groupoid(2, {(0, 1)}), [2, 1])[0]
    bag = find_bag(G, KIND_ORDER)
    soc = bag["classifier"]
    target = {**bag, "classifier": soc._replace(**{field: x})}
    what = {"omega": soc.omega, "tau": soc.tau, field: x}
    eta = skeletize(G).eta
    with pytest.raises(InvalidCert, match=re.escape(
            f"target classifier witness at omega {what['omega']}, tau {what['tau']} "
            "is out of range")):
        classifier.preserves_subobject_classifier(identity_functor(G), bag, target)
    assert classifier.preserves_subobject_classifier(eta, bag, find_bag(
        eta.target, KIND_ORDER)) is not None
