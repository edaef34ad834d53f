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
of the representatives.  Carried witnesses are checked on the skeleton
through eta: each is typed on its own category, and its image (or, inside a
transfer, its pull-back along the quasi-inverse) is decided on the
skeleton, since an equivalence preserves and reflects the structure.  A
table's image entries are decided by their comparisons with the chosen
ones, once per distinct image, and so is the parameterized N's, whose
comparison is the identity when the image is the chosen one.  The
comparisons make up the quasi-inverse's preservation certificate, and
where eta equals that quasi-inverse the certificate is eta's, so eta's
preservation is not decided a second time.  The classifier is searched
for once on each side, and eta's preservation of it decided by its
comparison.  A completion records what it validated, so factoring through
it checks again only the entries that have changed since.  Lifting
preservation through a factorization reuses the carried witnesses instead
of transferring them again, and decides the factored functor's
preservation directly, with the certificates already lifted for the kinds
it depends on.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
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
    functors_equal,
    same_tables,
)
from .errors import DependencyMissing, OracleDisagreement, PreconditionViolation
from . import classifier, exponentials, limits, nno
from .limits import EQUALIZERS, PRODUCTS, PULLBACKS, TERMINAL, LimitShape, check_table


@dataclass(frozen=True, eq=False)
class StructureKind:
    """Uniform handle on one kind of categorical structure.

    All callables receive bags: plain dicts mapping kind names to witness
    payloads on a single category, so kinds can reach their dependencies.
    ``check`` decides a bag on its category by brute force.  ``check_along``
    decides a bag on the source of a checked weak equivalence through it:
    typing on the source, then the image on the target, where the checked
    target bag supplies images known to be good; the classifier is checked
    directly on the source instead.  ``transfer`` carries the source bag's
    entries along a weak equivalence into any target, skeletal or not, and
    re-validates them by pulling them back onto the source entries; the
    certificate it returns holds the quasi-inverse's certificate from that
    re-validation as ``back``, for every kind but the classifier, whose
    carry searches its target instead.  ``carry`` is ``transfer`` without
    its check of the source bag, for a bag that ``check`` already accepted.
    ``lift`` receives the bag carried to the completion, whose entries are
    the transfers of the source bag along the equivalence, and last the
    factored functor's certificates for the kinds before it.
    """

    name: str
    deps: tuple[str, ...]
    check: Callable[[FinCat, dict], None]
    check_along: Callable[[Functor, dict, dict], None]
    find: Callable[[FinCat, dict], object | None]
    transfer: Callable[[WeakEquivalenceCert, dict, dict], tuple[object, object]]
    carry: Callable[[WeakEquivalenceCert, dict, dict], tuple[object, object]]
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

    def carry(cert, src, dst):
        out, pres = limits.carry(shape, cert, table(src))
        return (out if shape.n_key else out[()]), pres

    return StructureKind(
        name,
        (),
        lambda C, bag: check_table(shape, C, table(bag)),
        lambda F, src, dst: limits.check_table_along(shape, F, table(src), table(dst)),
        lambda C, bag: call("find_", C),
        lambda cert, src, dst: call("transfer_", cert, src[name]),
        carry,
        lambda F, src, dst, certs: call("preserves_", F, src[name], dst[name]),
        lambda cert, F, H, alpha, src, dst, Fcerts, carried, Hcerts: call(
            "lift_preservation_", cert, F, H, alpha, Fcerts[name], carried[name]
        ),
    )


def _bag_kind(name: str, deps: tuple[str, ...], module, suffix: str) -> StructureKind:
    """A kind whose verbs are the names of module ending in suffix, each
    taking the bags as they are; looked up when called, as in
    :func:`_limit_kind`.  A module without ``check_<suffix>_along`` (the
    classifier's) has its carried witness checked directly on the source."""

    def verb(prefix, end=""):
        return lambda *args: getattr(module, prefix + suffix + end)(*args)

    check = verb("check_")
    if hasattr(module, f"check_{suffix}_along"):
        check_along = verb("check_", "_along")
    else:
        def check_along(F, src, dst):
            check(F.source, src)

    return StructureKind(
        name, deps, check, check_along, verb("find_"), verb("transfer_"), verb("carry_"),
        verb("preserves_"), verb("lift_preservation_"),
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


def find_bag(C: FinCat, kinds) -> dict[str, object]:
    """Search C for each of kinds in dependency order; a kind whose
    dependencies were not found is skipped, as is one the search does not
    find.  Returns the bag of what was found."""
    bag: dict[str, object] = {}
    for name in KIND_ORDER:
        if name not in kinds or any(dep not in bag for dep in KINDS[name].deps):
            continue
        w = KINDS[name].find(C, bag)
        if w is not None:
            bag[name] = w
    return bag


def _check_known(names) -> None:
    for k in names:
        if k not in KINDS:
            raise PreconditionViolation(f"unknown structure kind '{k}'")


def _ordered(kinds) -> tuple[str, ...]:
    requested = list(kinds)
    _check_known(requested)
    for k in requested:
        for dep in KINDS[k].deps:
            if dep not in requested:
                raise DependencyMissing(f"'{k}' needs '{dep}' in the request")
    return tuple(k for k in KIND_ORDER if k in requested)


def _snapshot(entry):
    """A bag entry as it stands: a table's shallow copy, exact because its
    witnesses are frozen and compare by value; the classifier itself, which
    compares by identity, with a copy of its chi table; any other witness
    as it is."""
    if isinstance(entry, dict):
        return dict(entry)
    if isinstance(entry, classifier.SubobjectClassifierW):
        return entry, dict(entry.chi)
    return entry


@dataclass(frozen=True, eq=False)
class ValidatedBags:
    """The result a completion was built with and a snapshot of each
    carried kind's source and completed entries, all of them validated."""

    result: CompletionResult
    source: dict[str, object]
    completed: dict[str, object]

    @classmethod
    def of(cls, result: CompletionResult, src: dict, dst: dict) -> ValidatedBags:
        return cls(
            result,
            {k: _snapshot(w) for k, w in src.items()},
            {k: _snapshot(w) for k, w in dst.items()},
        )

    def covers(self, sc: StructuredCompletion, name: str) -> bool:
        """Whether sc still holds, for name and each of its dependencies,
        the result and entries validated here."""
        return sc.result is self.result and all(
            k in self.source
            and _snapshot(sc.source.get(k)) == self.source[k]
            and _snapshot(sc.completed.get(k)) == self.completed[k]
            for k in (name, *KINDS[name].deps)
        )


@dataclass(frozen=True, eq=False)
class StructuredCompletion:
    """A completion together with structure carried across it: witness bags
    on both sides and one preservation certificate per kind for eta.

    validated records what :func:`complete_structured` checked, both bags
    on both sides; it is None for a completion built by hand, whose bags
    :func:`factor_structured` checks in full.  ``dataclasses.replace``
    keeps it, and a replaced result or changed entry no longer matches it.
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
    checked on C once, by the kind's ``check``, and carried along eta
    instead, so that the completed bag is always the transfer of the source
    bag; a witness keyed by anything but a kind raises.

    Where eta equals the inclusion's quasi-inverse, eta's certificate is the
    one the carry's re-validation along that quasi-inverse returned;
    otherwise, and for the classifier, it is decided by the kind's
    ``preserves``.

    Every bag returned has been validated on both sides: a found entry by
    the transfer's check on the skeleton and the carry's re-validation on
    C (the classifier by its search on C), a supplied one by ``check`` on C
    and the carry along eta.  The result records this as ``validated``.
    """
    witnesses = dict(witnesses or {})
    _check_known(witnesses)
    res = skeletize(C)
    D = res.completed
    incl = skeleton_inclusion(res)
    eta_is_back = functors_equal(res.eta, incl.quasi_inverse)
    src: dict[str, object] = {}
    completed: dict[str, object] = {}
    eta_certs: dict[str, object] = {}
    for name in KIND_ORDER if kinds is None else _ordered(kinds):
        kind = KINDS[name]
        if any(dep not in src for dep in kind.deps):
            continue
        w = witnesses.get(name)
        if w is not None:
            src[name] = w
            kind.check(C, src)
            completed[name], eta_certs[name] = kind.carry(res.cert, src, completed)
            continue
        found = kind.find(D, completed)
        if found is None:
            if kinds is None:
                continue
            raise PreconditionViolation(
                f"requested structure '{name}' is absent from {C.name}"
            )
        completed[name] = found
        src[name], pres = kind.transfer(incl, completed, src)
        back = getattr(pres, "back", None) if eta_is_back else None   # the classifier has none
        if back is not None:
            eta_certs[name] = replace(back, functor=res.eta)
            continue
        cert = kind.preserves(res.eta, src, completed, eta_certs)
        if cert is None:
            raise OracleDisagreement(f"eta does not preserve the carried '{name}'")
        eta_certs[name] = cert
    return StructuredCompletion(
        res, tuple(src), src, completed, eta_certs, ValidatedBags.of(res, src, completed)
    )


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

    Eta's certificate is checked here.  A kind whose entries, and those
    of its dependencies, are still the ones sc's ``validated`` records, on
    the same result, is not checked again; every other kind is checked
    once here: the completed bag on the skeleton, then the source bag
    through eta, with the completed entries as images known to be good.
    The lifts then reuse the bag carried to the completion instead of
    transferring again, each with the lifted certificates of the kinds
    before it.  As in :func:`complete_structured`, a target witness keyed
    by anything but a kind raises.
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
    unchecked = [k for k in sc.kinds if sc.validated is None or not sc.validated.covers(sc, k)]
    for name in unchecked:
        KINDS[name].check(sc.result.completed, sc.completed)
    for name in unchecked:
        KINDS[name].check_along(eta, sc.source, sc.completed)
    E = F.target
    dst: dict[str, object] = {}
    for name in sc.kinds:
        kind = KINDS[name]
        w = target_witnesses.get(name)
        if w is not None:
            dst[name] = w
            kind.check(E, dst)
        else:
            found = kind.find(E, dst)
            if found is None:
                raise PreconditionViolation(
                    f"factorization target lacks structure '{name}'"
                )
            dst[name] = found
    Fcerts: dict[str, object] = {}
    for name in sc.kinds:
        cert = KINDS[name].preserves(F, sc.source, dst, Fcerts)
        if cert is None:
            raise PreconditionViolation(
                f"functor does not preserve structure '{name}'"
            )
        Fcerts[name] = cert
    fact = factor_through(sc.result, F)
    Hcerts: dict[str, object] = {}
    for name in sc.kinds:
        Hcerts[name] = KINDS[name].lift(
            sc.result.cert, F, fact.functor, fact.alpha, sc.source, dst, Fcerts,
            sc.completed, Hcerts,
        )
    return StructuredFactorization(fact, dst, Fcerts, Hcerts)
