"""Carrying chosen structure through completion and factorization.

Each kind of structure is registered with the same behavioral contract:
validate a witness, find one, transfer it along a weak equivalence, decide
preservation by a functor, and lift preservation through a factorization
triangle.  The registry drives whole-pipeline operations in dependency
order, so exponentials always follow products, and the classifier and
parameterized-N always follow the terminal.  The four finite-limit kinds
are registered from one table of (kind, verb suffix, shape), and the
exponentials, classifier and parameterized-N from one table of (kind,
dependencies, module, verb suffix), whose verbs already take the bags.
Every verb is looked up on its module when called.  :func:`find_bag` is the
one walk that searches a category for a set of kinds.

Structure is searched for on the skeleton, which is equivalent to the source
and usually far smaller, and carried back to the source along the inclusion
of the representatives, typed by construction.  Each kind's ``preserves``
is the one place that compares an image with a chosen entry: one call on
eta per kind certifies eta and decides every carried entry on the
skeleton, since an equivalence preserves and reflects the structure.  The
classifier is searched for once on each side.  A completion records a copy
of what it validated, so factoring through it checks again only the entries
that no longer equal that copy, each by the kind's own ``check`` on both
sides; every witness compares by value.  Factoring into a target with the
completion's tables takes the completion's found entries instead of
searching again, and, for a functor with eta's maps, eta's certificates
instead of deciding again, by one rule for every kind.  Pullbacks are
absent without a search where a category with a terminal object has no
products: they were not found, or it is not thin.  Lifting preservation
through a factorization reuses the carried witnesses instead of
transferring them again, and decides the factored functor's preservation
directly, with the certificates already lifted for the kinds it depends
on.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

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
    NatIso,
    WeakEquivalenceCert,
    check_weak_equivalence_cert,
    same_tables,
)
from .errors import DependencyMissing, InvalidCert, OracleDisagreement, PreconditionViolation
from . import classifier, exponentials, limits, nno
from .limits import EQUALIZERS, PRODUCTS, PULLBACKS, TERMINAL, LimitShape, check_table


@dataclass(frozen=True, eq=False)
class StructureKind:
    """Uniform handle on one kind of categorical structure.

    All callables receive bags: plain dicts mapping kind names to witness
    payloads on a single category, so kinds can reach their dependencies.
    ``check`` decides a bag on its category by brute force; it is the one
    check of a bag supplied from outside, on either side of a completion.
    ``transfer`` is ``check`` on the source bag followed by the kind's
    carry along a weak equivalence into any target, skeletal or not, and
    returns the carried entry; it is typed by construction, or for the
    classifier searched for on the target.  It does not certify the
    equivalence: ``preserves`` does, and decides the carried entry with it.
    ``lift`` receives the bag carried to the completion, whose entries are
    the transfers of the source bag along the equivalence, and last the
    factored functor's certificates for the kinds before it; every kind's
    lift is ``limits.decide_lift``, the triangle's check and then
    ``preserves`` on the factored functor.
    """

    name: str
    deps: tuple[str, ...]
    check: Callable[[FinCat, dict], None]
    find: Callable[[FinCat, dict], object | None]
    transfer: Callable[[WeakEquivalenceCert, dict, dict], object]
    preserves: Callable[[Functor, dict, dict, dict], object | None]
    lift: Callable[
        [WeakEquivalenceCert, Functor, Functor, NatIso, dict, dict, dict, dict, dict], object
    ]


def _limit_kind(name: str, suffix: str, shape: LimitShape) -> StructureKind:
    """A finite-limit kind whose verbs are the ``limits`` names ending in
    suffix, looked up when called, so that a wrapper installed on the module
    sees every call.  The terminal's bag entry is its one witness, not a
    table."""

    def call(prefix, *args, **kwargs):
        return getattr(limits, prefix + suffix)(*args, **kwargs)

    def table(bag):
        return bag[name] if shape.n_key else {(): bag[name]}

    return StructureKind(
        name,
        (),
        lambda C, bag: check_table(shape, C, table(bag)),
        lambda C, bag: call("find_", C),
        lambda cert, src, dst: call("transfer_", cert, src[name]),
        lambda F, src, dst, certs: call("preserves_", F, src[name], dst[name]),
        lambda cert, F, H, alpha, src, dst, Fcerts, carried, Hcerts: call(
            "lift_preservation_", cert, F, H, alpha, Fcerts[name], carried[name]
        ),
    )


def _bag_kind(name: str, deps: tuple[str, ...], module, suffix: str) -> StructureKind:
    """A kind whose verbs are the names of module ending in suffix, each
    taking the bags as they are; looked up when called, as in
    :func:`_limit_kind`."""

    def verb(prefix):
        return lambda *args: getattr(module, prefix + suffix)(*args)

    return StructureKind(
        name, deps, verb("check_"), verb("find_"), verb("transfer_"), verb("preserves_"),
        verb("lift_preservation_"),
    )


# (kind, suffix of its verbs in limits, shape), in dependency order
_LIMIT_KINDS = (
    ("terminal", "terminal", TERMINAL),
    ("products", "binary_products", PRODUCTS),
    ("equalizers", "equalizers", EQUALIZERS),
    ("pullbacks", "pullbacks", PULLBACKS),
)

# (kind, its dependencies, module of its verbs, their suffix), in dependency order
_BAG_KINDS = (
    ("exponentials", ("products",), exponentials, "exponentials"),
    ("classifier", ("terminal",), classifier, "subobject_classifier"),
    ("pnno", ("terminal", "products"), nno, "pnno"),
)

KINDS: dict[str, StructureKind] = {
    **{name: _limit_kind(name, suffix, shape) for name, suffix, shape in _LIMIT_KINDS},
    **{name: _bag_kind(name, deps, module, suffix) for name, deps, module, suffix in _BAG_KINDS},
}

KIND_ORDER = tuple(KINDS)


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
                            and limits.find_terminal(C) is not None)


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


def _copy(x, **changes):
    """x with nothing mutable shared: a table's shallow copy, a witness
    tuple itself, or a classifier witness or certificate with changes made
    and each other dict field copied, equal to x's, since what the dicts
    hold is immutable or shared."""
    if isinstance(x, dict):
        return dict(x)
    if isinstance(x, tuple):
        return x
    copies = {f.name: dict(getattr(x, f.name)) for f in fields(x)
              if f.name not in changes and isinstance(getattr(x, f.name), dict)}
    return replace(x, **copies, **changes)


@dataclass(frozen=True, eq=False)
class ValidatedBags:
    """The result a completion was built with and a copy of each carried
    kind's source and completed entries, all of them validated; the kinds
    whose completed entry was found on the skeleton rather than carried
    from a supplied witness; and eta's certificate objects, each with a
    copy."""

    result: CompletionResult
    source: dict[str, object]
    completed: dict[str, object]
    found: frozenset[str]
    eta_certs: dict[str, tuple[object, object]]

    @classmethod
    def of(cls, result: CompletionResult, src: dict, dst: dict, found, certs: dict
           ) -> ValidatedBags:
        return cls(
            result,
            {k: _copy(w) for k, w in src.items()},
            {k: _copy(w) for k, w in dst.items()},
            frozenset(found),
            {k: (c, _copy(c)) for k, c in certs.items()},
        )

    def intact(self, sc: StructuredCompletion) -> set[str]:
        """The kinds whose entries sc still holds, on the result recorded
        here, equal to the ones validated here."""
        if sc.result is not self.result:
            return set()
        return {k for k, w in self.source.items()
                if sc.source.get(k) == w and sc.completed.get(k) == self.completed[k]}

    def certifies(self, sc: StructuredCompletion, name: str) -> bool:
        """Whether sc still holds eta's certificate for name recorded here:
        the same object, its fields unchanged."""
        cert, copy = self.eta_certs[name]
        return sc.eta_certs.get(name) is cert and vars(cert) == vars(copy)


@dataclass(frozen=True, eq=False)
class StructuredCompletion:
    """A completion together with structure carried across it: witness bags
    on both sides and one preservation certificate per kind for eta.

    validated records what :func:`complete_structured` checked and decided;
    it is None for a completion built by hand, whose bags
    :func:`factor_structured` checks in full and never reuses.
    ``dataclasses.replace`` keeps it, and a replaced result, changed entry
    or replaced or changed certificate no longer matches it.
    """

    result: CompletionResult
    kinds: tuple[str, ...]
    source: dict[str, object]
    completed: dict[str, object]
    eta_certs: dict[str, object]
    validated: ValidatedBags | None = None


def complete_structured(
    C: FinCat,
    kinds=None,
    witnesses: dict[str, object] | None = None,
) -> StructuredCompletion:
    """Skeletize, find the requested structure on the skeleton, and carry it
    back to C along the inclusion of the representatives.

    With kinds=None, every findable kind is carried; kinds requested
    explicitly but absent raise.  A structure absent from the skeleton is
    absent from C, since the two are equivalent.  Provided witnesses are
    transferred along eta instead, checked on C once by the kind's
    ``check`` and then carried, so that the completed bag is always the
    transfer of the source bag; a witness keyed by anything but a kind raises, and so does one for
    a kind not carried, unrequested or lacking a dependency.

    Eta's certificate for each kind, found or supplied, comes from one
    ``preserves`` call on eta, which also decides every carried entry; a
    refusal is an engine bug.  A supplied witness's carried entries are
    also checked on the skeleton by the kind's ``check``.

    Every bag returned has been validated on both sides: a found entry by
    the transfer's check on the skeleton and eta's ``preserves`` on C (the
    classifier by its search on C), a supplied one by ``check`` on C and on
    the skeleton.  The result records this, the kinds found and eta's
    certificates as ``validated``.  Pullbacks that :func:`_refuted` rules
    out are not searched for, and are absent.
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
    requested = KIND_ORDER if kinds is None else _ordered(kinds)
    for name in requested:
        kind = KINDS[name]
        if any(dep not in src for dep in kind.deps):
            continue
        w = witnesses.get(name)
        if w is not None:
            src[name] = w
            completed[name] = kind.transfer(res.cert, src, completed)
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
            completed[name] = found
            found_kinds.append(name)
            src[name] = kind.transfer(incl, completed, src)
        cert = kind.preserves(res.eta, src, completed, eta_certs)
        if cert is None:
            raise OracleDisagreement(f"eta does not preserve the carried '{name}'")
        eta_certs[name] = cert
    _check_carried(witnesses, src)
    return StructuredCompletion(
        res, tuple(src), src, completed, eta_certs,
        ValidatedBags.of(res, src, completed, found_kinds, eta_certs),
    )


def _as_cert_of(cert, F: Functor, entry):
    """Eta's certificate cert as F's into entry, a target entry equal to
    eta's: every dict copied, so that none is shared with the completion,
    and a target table entry itself, as ``preserves`` would return it."""
    target = {"target": entry} if isinstance(entry, dict) and hasattr(cert, "target") else {}
    return _copy(cert, functor=F, **target)


@dataclass(frozen=True, eq=False)
class StructuredFactorization:
    """A factorization through the completion plus, per kind, preservation
    certificates for the given functor and for the lifted one."""

    factorization: Factorization
    target: dict[str, object]
    functor_certs: dict[str, object]
    lifted_certs: dict[str, object]


def factor_structured(
    sc: StructuredCompletion,
    F: Functor,
    target_witnesses: dict[str, object] | None = None,
) -> StructuredFactorization:
    """Factor a structure-preserving functor through the completion and lift
    every preservation certificate to the factored functor.

    Eta's certificate is checked here, and sc's kinds must be known, come
    with their dependencies and have an entry in both bags; they are taken
    in dependency order.  A kind whose entries, and those of its
    dependencies, are still the ones sc's ``validated`` records, on the
    same result, is not checked again; every other kind is checked once
    here by its ``check``: the completed bag on the skeleton, then the
    source bag on the source.  The record is read once, and each target
    entry compared once with the completed one.  Into a target with the
    completion's tables, every kind so covered takes a copy of the
    completed entry if the completion found it and the target's entries of
    its dependencies equal the completed ones, instead of a search; and,
    for an F with eta's maps, where the target's entries of the kind and
    its dependencies equal the completed ones, eta's certificate, if
    ``validated`` still certifies it, by :func:`_as_cert_of`, since
    ``preserves`` would take eta's inputs.  The lifts then reuse the bag
    carried to the completion instead of transferring again, each with the
    lifted certificates of the kinds before it.  As in
    :func:`complete_structured`, a target witness keyed by anything but a
    kind raises, and so does one for a kind outside sc's kinds.
    """
    target_witnesses = dict(target_witnesses or {})
    _check_known(target_witnesses)
    if not same_tables(F.source, sc.result.source):
        raise PreconditionViolation("functor does not start at the completed source")
    cert = sc.result.cert
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
    v = sc.validated
    intact = v.intact(sc) if v is not None else set()
    covered = {k for k in kinds if k in intact and intact.issuperset(KINDS[k].deps)}
    unchecked = [k for k in kinds if k not in covered]
    for name in unchecked:
        KINDS[name].check(sc.result.completed, sc.completed)
    for name in unchecked:
        KINDS[name].check(sc.result.source, sc.source)
    E = F.target
    own = covered if same_tables(E, sc.result.completed) else set()
    unit = F.obj_map == sc.result.eta.obj_map and F.mor_map == sc.result.eta.mor_map
    dst: dict[str, object] = {}
    agree = set()   # the kinds of own whose target entry equals the completed one
    for name in kinds:
        kind = KINDS[name]
        w = target_witnesses.get(name)
        copied = w is None and name in own and name in v.found and agree.issuperset(kind.deps)
        if copied:
            dst[name] = _copy(sc.completed[name])
        elif w is not None:
            dst[name] = w
            kind.check(E, dst)
        else:
            found = kind.find(E, dst)
            if found is None:
                raise PreconditionViolation(
                    f"factorization target lacks structure '{name}'"
                )
            dst[name] = found
        if copied or name in own and dst[name] == sc.completed[name]:
            agree.add(name)
    Fcerts: dict[str, object] = {}
    for name in kinds:
        if unit and agree.issuperset((name, *KINDS[name].deps)) and v.certifies(sc, name):
            cert = _as_cert_of(sc.eta_certs[name], F, dst[name])
        else:
            cert = KINDS[name].preserves(F, sc.source, dst, Fcerts)
        if cert is None:
            raise PreconditionViolation(
                f"functor does not preserve structure '{name}'"
            )
        Fcerts[name] = cert
    fact = factor_through(sc.result, F)
    Hcerts: dict[str, object] = {}
    for name in kinds:
        Hcerts[name] = KINDS[name].lift(
            sc.result.cert, F, fact.functor, fact.alpha, sc.source, dst, Fcerts,
            sc.completed, Hcerts,
        )
    return StructuredFactorization(fact, dst, Fcerts, Hcerts)
