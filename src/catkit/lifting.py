"""Carrying chosen structure through completion and factorization.

Each kind of structure is registered with the same behavioral contract:
validate a witness, find one, transfer it along a weak equivalence, decide
preservation by a functor, and lift preservation through a factorization
triangle.  The registry drives whole-pipeline operations in dependency
order, so exponentials always follow products, and the classifier and
parameterized-N always follow the terminal.  Each kind is declared once,
with its CLI token, topos label and JSON block: the four finite-limit kinds
in one table, and the exponentials, classifier and parameterized-N, whose
verbs already take the bags, in another.  Every verb is looked up on its
module when called.  :func:`find_bag` is the one walk that searches a
category for a set of kinds.

Structure is searched for on the skeleton, which is equivalent to the source
and usually far smaller, and carried back to the source along the inclusion
of the representatives, typed by construction.  Each kind's ``preserves``
is the one place that compares an image with a chosen entry: one call on
eta per kind certifies eta and decides every carried entry on the
skeleton, since an equivalence preserves and reflects the structure.  On a
gaunt skeleton the table kinds need no call: eta after the inclusion is
the identity, and eta sends each eso iso to an automorphism, an identity
there, so each carried cone images onto the chosen entry at its image key
and eta's comparison is the identity at its apex's image, built without a
walk.  The classifier is searched for once on each side.  Everything a
completion holds is read-only: bags, tables, chi tables and certificate
dicts are mapping views that nothing else holds.  So a completion still
made of the objects it recorded holds what it validated, and factoring
through it checks nothing again; any other completion is checked in full
and reuses nothing.
Pullbacks are absent without a search where a category with a terminal
object has no products: they were not found, or it is not thin.  Lifting
preservation through a factorization reuses the carried witnesses instead
of transferring them again, and decides the factored functor's
preservation directly, of the carried bag into the target's, as
``preserves`` reads them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping

from .completion import (
    CompletionResult,
    Factorization,
    factor_through,
    skeletize,
    skeleton_inclusion,
)
from .core import (
    FinCat,
    Functor,
    Iso,
    NatIso,
    WeakEquivalenceCert,
    check_weak_equivalence_cert,
    record_found,
    same_tables,
)
from .errors import DependencyMissing, InvalidCert, OracleDisagreement, PreconditionViolation
from . import classifier, exponentials, limits, nno
from .limits import EQUALIZERS, PRODUCTS, PULLBACKS, TERMINAL, LimitShape, check_table


@dataclass(frozen=True)
class StructureBlock:
    """Where a kind's bag entry sits in a category document, and each
    field of its witness type, in order, with its JSON name and what it
    names (``core.OBJECT``, ``MORPHISM`` or ``CHI``), declared once with the
    witness in the kind's module, and read by ``core.first_bad_field`` in
    every verb that takes a witness.  A table, keyed by its first ``key``
    fields, is a list of one object per entry in key order; a single
    witness is one object, or the bare label of its one field where that
    has no name."""

    path: tuple[str, ...]
    witness: type
    fields: tuple[tuple[str | None, str], ...]
    key: int = 0


@dataclass(frozen=True, eq=False)
class StructureKind:
    """Uniform handle on one kind of categorical structure.

    All callables receive bags: mappings from kind names to witness
    payloads on a single category, so kinds can reach their dependencies.
    ``check`` decides a bag on its category by brute force; it is the one
    check of a bag supplied from outside, on either side of a completion.
    ``transfer`` is ``check`` on the source bag and the check of the
    equivalence's certificate, followed by the kind's carry into any
    target, skeletal or not, and returns the carried entry; it is typed by
    construction, or for the classifier searched for on the target, and
    ``preserves`` decides it, from a functor and the bags at its two ends;
    only eta's certificate for a table kind found on a gaunt skeleton is
    built without it, by :func:`complete_structured`.
    ``lift`` receives the bag carried to the completion, whose entries are
    the transfers of the source bag along the equivalence, and the bag of
    the outer functor's target; every kind's lift is
    ``limits.decide_lift``, the triangle's check and then the kind's
    ``preserves`` on the factored functor, of the one bag into the other.
    ``token`` names the kind on the command line, ``topos`` in topos gap
    lists (None off the topos), and ``block`` in a category document.
    """

    name: str
    deps: tuple[str, ...]
    token: str
    topos: str | None
    block: StructureBlock
    check: Callable[[FinCat, dict], None]
    find: Callable[[FinCat, dict], object | None]
    transfer: Callable[[WeakEquivalenceCert, dict, dict], object]
    preserves: Callable[[Functor, dict, dict], object | None]
    lift: Callable[[WeakEquivalenceCert, Functor, Functor, NatIso, dict, dict], object]


def _limit_kind(name: str, suffix: str, shape: LimitShape, token: str, topos: str,
                under: str) -> StructureKind:
    """A finite-limit kind whose verbs are the ``limits`` names ending in
    suffix, looked up when called, so that a wrapper installed on the module
    sees every call.  The terminal's bag entry is its one witness, not a
    table, and its block under "structure" the label of its apex."""

    def call(prefix, *args, **kwargs):
        return getattr(limits, prefix + suffix)(*args, **kwargs)

    def table(bag):
        return bag[name] if shape.n_key else {(): bag[name]}

    block = StructureBlock(("structure", under), shape.witness, shape.fields, shape.n_key)
    return StructureKind(
        name, (), token, topos, block,
        lambda C, bag: check_table(shape, C, table(bag)),
        lambda C, bag: call("find_", C),
        lambda cert, src, dst: call("transfer_", cert, src[name]),
        lambda F, src, dst: call("preserves_", F, src[name], dst[name]),
        lambda cert, F, H, alpha, carried, dst: call(
            "lift_preservation_", cert, F, H, alpha, carried[name], dst[name]
        ),
    )


def _bag_kind(name: str, deps: tuple[str, ...], module, suffix: str, *about) -> StructureKind:
    """A kind whose verbs are the names of module ending in suffix, each
    taking the bags as they are; looked up when called, as in
    :func:`_limit_kind`.  about is its token, topos label and block."""

    def verb(prefix):
        return lambda *args: getattr(module, prefix + suffix)(*args)

    return StructureKind(
        name, deps, *about, verb("check_"), verb("find_"), verb("transfer_"),
        verb("preserves_"), verb("lift_preservation_"),
    )


# (kind, verb suffix in limits, shape, CLI token, topos label, block under "structure")
_LIMIT_KINDS = (
    ("terminal", "terminal", TERMINAL, "terminal", "terminal", "terminal"),
    ("products", "binary_products", PRODUCTS, "products", "binary products", "binproducts"),
    ("equalizers", "equalizers", EQUALIZERS, "equalizers", "equalizers", "equalizers"),
    ("pullbacks", "pullbacks", PULLBACKS, "pullbacks", "pullbacks", "pullbacks"),
)

# (kind, dependencies, module of its verbs, their suffix, CLI token, topos label, block)
_BAG_KINDS = (
    ("exponentials", ("products",), exponentials, "exponentials", "exponentials", "exponentials",
     StructureBlock(("exponentials",), exponentials.ExponentialW, exponentials.FIELDS, 2)),
    ("classifier", ("terminal",), classifier, "subobject_classifier", "omega",
     "subobject classifier",
     StructureBlock(("subobject_classifier",), classifier.SubobjectClassifierW,
                    classifier.FIELDS)),
    ("pnno", ("terminal", "products"), nno, "pnno", "pnno", None,
     StructureBlock(("pnno",), nno.PNNOW, nno.FIELDS)),
)

KINDS: dict[str, StructureKind] = {
    **{row[0]: _limit_kind(*row) for row in _LIMIT_KINDS},
    **{row[0]: _bag_kind(*row) for row in _BAG_KINDS},
}

KIND_ORDER = tuple(KINDS)

# the table kinds whose certificate for eta a gaunt completion builds, each
# with its certificate class; field 2 of each of their witnesses is the apex,
# or the exponential object
_BUILT_WHEN_GAUNT = {
    "products": limits.LimitPreservationCert,
    "equalizers": limits.LimitPreservationCert,
    "pullbacks": limits.LimitPreservationCert,
    "exponentials": exponentials.ExpPreservationCert,
}

# the kinds of an elementary topos, in dependency order, with their gap labels
TOPOS_KINDS = {name: kind.topos for name, kind in KINDS.items() if kind.topos}


def _refuted(name: str, C: FinCat, bag: dict, searched) -> bool:
    """Whether name is absent from C, whose bag is bag, without a search:
    over a terminal object a pullback of (!x, !y) is a product of x and y,
    so a category with a terminal object and no products has no pullbacks.
    It has no products when they were searched for and not found, or when
    it is not thin (Freyd); its terminal is the bag's, or, where the
    terminal was not searched for, one found without adding it to bag."""
    if name != "pullbacks":
        return False
    no_products = "products" in searched and "products" not in bag or C.down_sets is None
    return no_products and ("terminal" in bag or "terminal" not in searched
                            and KINDS["terminal"].find(C, bag) is not None)


def find_bag(C: FinCat, kinds) -> dict[str, object]:
    """Search C for each of kinds in dependency order; a kind whose
    dependencies were not found is skipped, as is one the search does not
    find or that :func:`_refuted` rules out.  Returns the bag of what was
    found."""
    bag: dict[str, object] = {}
    for name in KIND_ORDER:
        if name not in kinds or any(dep not in bag for dep in KINDS[name].deps) \
                or _refuted(name, C, bag, kinds):
            continue
        w = KINDS[name].find(C, bag)
        if w is not None:
            bag[name] = w
    return bag


def with_dependencies(kinds) -> tuple[str, ...]:
    """kinds and every kind they depend on, in dependency order.  A kind's
    dependencies come before it in KIND_ORDER, so one pass from the end
    collects them all."""
    kinds = tuple(kinds)
    _check_known(kinds)
    needed = set(kinds)
    for name in reversed(KIND_ORDER):
        if name in needed:
            needed.update(KINDS[name].deps)
    return tuple(k for k in KIND_ORDER if k in needed)


def _check_known(names) -> None:
    for k in names:
        if k not in KINDS:
            raise PreconditionViolation(f"unknown structure kind '{k}'")


def _check_carried(witnesses, kinds) -> None:
    """Refuse, rather than drop unchecked, a witness for a kind not carried."""
    for k in witnesses:
        if k not in kinds:
            raise PreconditionViolation(f"supplied structure '{k}' is not carried")


def _ordered(kinds) -> tuple[str, ...]:
    requested = list(kinds)
    _check_known(requested)
    for k in requested:
        for dep in KINDS[k].deps:
            if dep not in requested:
                raise DependencyMissing(f"'{k}' needs '{dep}' in the request")
    return tuple(k for k in KIND_ORDER if k in requested)


def _view(found):
    """A found entry, read-only: a table as a view of itself, which nothing
    else holds; a tuple witness, and a classifier's chi table, already are."""
    return MappingProxyType(found) if isinstance(found, dict) else found


def _copied(w):
    """A supplied witness, already checked, copied once into a read-only
    view: a table, or a classifier witness's chi table."""
    if isinstance(w, Mapping):
        return MappingProxyType(dict(w))
    if isinstance(w, classifier.SubobjectClassifierW):
        return w._replace(chi=MappingProxyType(dict(w.chi)))
    return w


@dataclass(frozen=True, eq=False)
class ValidatedBags:
    """The result and the three read-only bags that :func:`complete_structured`
    validated, and the kinds it found rather than carried from a supplied
    witness."""

    result: CompletionResult
    source: Mapping[str, object]
    completed: Mapping[str, object]
    eta_certs: Mapping[str, object]
    found: frozenset[str]

    def holds(self, sc: StructuredCompletion) -> bool:
        """Whether sc is still made of the objects recorded here: all of
        them read-only, so it holds what was validated."""
        return (sc.result is self.result and sc.source is self.source
                and sc.completed is self.completed and sc.eta_certs is self.eta_certs)


@dataclass(frozen=True, eq=False)
class StructuredCompletion:
    """A completion together with structure carried across it: read-only
    witness bags on both sides and one preservation certificate per kind for
    eta.

    validated records what :func:`complete_structured` checked and decided;
    it is None for a completion built by hand.  ``dataclasses.replace``
    keeps it, but a replaced result or bag no longer matches it.
    """

    result: CompletionResult
    kinds: tuple[str, ...]
    source: Mapping[str, object]
    completed: Mapping[str, object]
    eta_certs: Mapping[str, object]
    validated: ValidatedBags | None = None


def complete_structured(
    C: FinCat,
    kinds=None,
    witnesses: dict[str, object] | None = None,
) -> StructuredCompletion:
    """Skeletize, find the requested structure on the skeleton, and carry it
    back to C along the inclusion of the representatives.

    With kinds=None, every findable kind is carried; kinds requested
    explicitly but absent raise, and pullbacks that :func:`_refuted` rules
    out are absent unsearched.  A supplied witness is checked on C by the
    kind's ``check``, copied once into a read-only view and carried along
    eta instead, and its carried entries are checked on the skeleton; one
    keyed by anything but a kind raises, and so does one for a kind not
    carried, unrequested or lacking a dependency.  Eta's certificate for
    each kind comes from one ``preserves`` call on eta, which also decides
    every carried entry; a refusal is an engine bug.  The one exception is
    a table kind found on a gaunt skeleton (fidelity "exact"): each carried
    entry then images onto the skeleton's chosen one, so its certificate,
    of the class ``preserves`` returns, is built with the identity at eta's
    image of each entry's apex, one ``Iso`` per object.  Each entry found
    on the skeleton is recorded against that skeleton instance
    (``core.record_found``), so that its ``transfer`` along the inclusion
    skips the source check it has just passed; a supplied witness, and
    each carried entry, is checked in full.  The bags returned are
    read-only, and ``validated`` records them.
    """
    witnesses = dict(witnesses or {})
    _check_known(witnesses)
    res = skeletize(C)
    D = res.completed
    incl = skeleton_inclusion(res)
    src: dict[str, object] = {}
    completed: dict[str, object] = {}
    eta_certs: dict[str, object] = {}
    found_kinds = []
    identities = None   # per source object x, the identity of eta(x) as an Iso
    requested = KIND_ORDER if kinds is None else _ordered(kinds)
    for name in requested:
        kind = KINDS[name]
        if any(dep not in src for dep in kind.deps):
            continue
        w = witnesses.get(name)
        if w is not None:
            src[name] = w
            completed[name] = kind.transfer(res.cert, src, completed)
            src[name] = _copied(w)
            try:
                kind.check(D, completed)
            except InvalidCert as e:
                raise OracleDisagreement(f"carried '{name}' fails on the skeleton: {e}") from None
        else:
            found = None if _refuted(name, D, completed, requested) else kind.find(D, completed)
            if found is None:
                if kinds is None:
                    continue
                raise PreconditionViolation(f"requested structure '{name}' is absent from {C.name}")
            completed[name] = _view(found)
            record_found(D, name, completed[name])
            found_kinds.append(name)
            src[name] = kind.transfer(incl, completed, src)
            built = _BUILT_WHEN_GAUNT.get(name) if res.fidelity == "exact" else None
            if built is not None:
                if identities is None:
                    one = [Iso(f, f) for f in D.identity]
                    identities = list(map(one.__getitem__, res.eta.obj_map))
                table = src[name]
                apexes = map(itemgetter(2), table.values())
                mu = MappingProxyType(dict(zip(table, map(identities.__getitem__, apexes))))
                eta_certs[name] = built(res.eta, table, completed[name], mu)
                continue
        cert = kind.preserves(res.eta, src, completed)
        if cert is None:
            raise OracleDisagreement(f"eta does not preserve the carried '{name}'")
        eta_certs[name] = cert
    _check_carried(witnesses, src)
    bags = [MappingProxyType(bag) for bag in (src, completed, eta_certs)]
    return StructuredCompletion(
        res, tuple(src), *bags, ValidatedBags(res, *bags, frozenset(found_kinds))
    )


@dataclass(frozen=True, eq=False)
class StructuredFactorization:
    """A factorization through the completion plus, per kind, preservation
    certificates for the given functor and for the lifted one; the bags are
    read-only."""

    factorization: Factorization
    target: Mapping[str, object]
    functor_certs: Mapping[str, object]
    lifted_certs: Mapping[str, object]


def factor_structured(
    sc: StructuredCompletion,
    F: Functor,
    target_witnesses: dict[str, object] | None = None,
) -> StructuredFactorization:
    """Factor a structure-preserving functor through the completion and lift
    every preservation certificate to the factored functor.

    sc's kinds must be known, come with their dependencies and have an
    entry in both bags; they are taken in dependency order.  Unless sc's
    ``validated`` holds it, eta's certificate is checked, then every kind
    by its ``check``, the completed bag on the skeleton and then the source
    bag on the source, and nothing of sc is reused.  When it holds, nothing
    is checked, and into a target with the completion's tables a
    kind the completion found, without a target witness and with its
    dependencies' target entries equal to the completed ones, takes the
    completed entry itself instead of a search; for an F with eta's maps, a
    kind whose target entries and its dependencies' equal the completed
    ones takes eta's certificate, since ``preserves`` would take eta's
    inputs.  The lifts reuse the bag carried to the completion, each
    deciding it into the target bag.  As in
    :func:`complete_structured`, a target witness keyed by anything but a
    kind raises, and so does one for a kind outside sc's kinds.
    """
    target_witnesses = dict(target_witnesses or {})
    _check_known(target_witnesses)
    if not same_tables(F.source, sc.result.source):
        raise PreconditionViolation("functor does not start at the completed source")
    v = sc.validated
    holds = v is not None and v.holds(sc)
    cert = sc.result.cert
    if not holds:
        check_weak_equivalence_cert(cert)
    eta = cert.functor
    if not (
        same_tables(eta.source, sc.result.source)
        and same_tables(eta.target, sc.result.completed)
    ):
        raise PreconditionViolation("eta's certificate does not run from source to completion")
    kinds = _ordered(sc.kinds)
    _check_carried(target_witnesses, kinds)
    for side, bag in (("source", sc.source), ("completed", sc.completed)):
        for name in kinds:
            if name not in bag:
                raise PreconditionViolation(f"the {side} bag lacks structure '{name}'")
    if not holds:
        for name in kinds:
            KINDS[name].check(sc.result.completed, sc.completed)
        for name in kinds:
            KINDS[name].check(sc.result.source, sc.source)
    E = F.target
    own = holds and same_tables(E, sc.result.completed)
    unit = own and F.obj_map == eta.obj_map and F.mor_map == eta.mor_map
    dst: dict[str, object] = {}
    agree = set()   # the kinds whose target entry equals the completed one
    for name in kinds:
        kind = KINDS[name]
        w = target_witnesses.get(name)
        reused = w is None and own and name in v.found and agree.issuperset(kind.deps)
        if reused:
            dst[name] = sc.completed[name]
        elif w is not None:
            dst[name] = w
            kind.check(E, dst)
            dst[name] = _copied(w)
        else:
            found = kind.find(E, dst)
            if found is None:
                raise PreconditionViolation(
                    f"factorization target lacks structure '{name}'"
                )
            dst[name] = _view(found)
        if reused or own and dst[name] == sc.completed[name]:
            agree.add(name)
    Fcerts: dict[str, object] = {}
    for name in kinds:
        if unit and agree.issuperset((name, *KINDS[name].deps)):
            # a table entry is the target of the certificate, as preserves returns it
            entry = dst[name]
            target = {"target": entry} if isinstance(entry, Mapping) else {}
            cert = replace(sc.eta_certs[name], functor=F, **target)
        else:
            cert = KINDS[name].preserves(F, sc.source, dst)
        if cert is None:
            raise PreconditionViolation(
                f"functor does not preserve structure '{name}'"
            )
        Fcerts[name] = cert
    fact = factor_through(sc.result, F)
    Hcerts: dict[str, object] = {}
    for name in kinds:
        Hcerts[name] = KINDS[name].lift(
            sc.result.cert, F, fact.functor, fact.alpha, sc.completed, dst
        )
    return StructuredFactorization(
        fact, MappingProxyType(dst), MappingProxyType(Fcerts), MappingProxyType(Hcerts)
    )
