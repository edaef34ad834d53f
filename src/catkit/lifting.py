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
of the representatives; every carried source witness is re-validated there
once.  Lifting preservation through a factorization reuses the carried
witnesses instead of transferring them again.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .completion import (
    CompletionResult,
    Factorization,
    factor_through,
    skeletize,
    skeleton_inclusion,
)
from .core import FinCat, Functor, NatIso, WeakEquivalenceCert, same_tables
from .errors import DependencyMissing, OracleDisagreement, PreconditionViolation
from . import classifier, exponentials, limits, nno
from .limits import EQUALIZERS, PRODUCTS, PULLBACKS, TERMINAL, LimitShape, check_table


@dataclass(frozen=True, eq=False)
class StructureKind:
    """Uniform handle on one kind of categorical structure.

    All callables receive bags: plain dicts mapping kind names to witness
    payloads on a single category, so kinds can reach their dependencies.
    ``transfer`` carries the source bag's entries along a weak equivalence
    into any target, skeletal or not, and re-validates them there.  ``lift``
    receives last the bag carried to the completion, whose entries are the
    transfers of the source bag along the equivalence.
    """

    name: str
    deps: tuple[str, ...]
    check: Callable[[FinCat, dict], None]
    find: Callable[[FinCat, dict], object | None]
    transfer: Callable[[WeakEquivalenceCert, dict, dict], tuple[object, object]]
    preserves: Callable[[Functor, dict, dict, dict], object | None]
    lift: Callable[
        [WeakEquivalenceCert, Functor, Functor, NatIso, dict, dict, dict, dict], object
    ]


def _limit_kind(name: str, suffix: str, shape: LimitShape) -> StructureKind:
    """A finite-limit kind whose verbs are the ``limits`` names ending in
    suffix, looked up when called, so that a wrapper installed on the module
    sees every call.  The terminal's bag entry is its one witness, not a
    table."""

    def call(prefix, *args, **kwargs):
        return getattr(limits, prefix + suffix)(*args, **kwargs)

    return StructureKind(
        name,
        (),
        lambda C, bag: check_table(shape, C, bag[name] if shape.n_key else {(): bag[name]}),
        lambda C, bag: call("find_", C),
        lambda cert, src, dst: call("transfer_", cert, src[name]),
        lambda F, src, dst, certs: call("preserves_", F, src[name], dst[name]),
        lambda cert, F, H, alpha, src, dst, Fcerts, carried: call(
            "lift_preservation_", cert, F, H, alpha, Fcerts[name], carried[name]
        ),
    )


def _bag_kind(name: str, deps: tuple[str, ...], module, suffix: str) -> StructureKind:
    """A kind whose five verbs are the names of module ending in suffix,
    each taking the bags as they are; looked up when called, as in
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


def _ordered(kinds) -> tuple[str, ...]:
    requested = list(kinds)
    for k in requested:
        if k not in KINDS:
            raise PreconditionViolation(f"unknown structure kind '{k}'")
        for dep in KINDS[k].deps:
            if dep not in requested:
                raise DependencyMissing(f"'{k}' needs '{dep}' in the request")
    return tuple(k for k in KIND_ORDER if k in requested)


@dataclass(frozen=True, eq=False)
class StructuredCompletion:
    """A completion together with structure carried across it: witness bags
    on both sides and one preservation certificate per kind for eta."""

    result: CompletionResult
    kinds: tuple[str, ...]
    source: dict[str, object]
    completed: dict[str, object]
    eta_certs: dict[str, object]


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
    validated on C and pushed along eta instead, so that the completed bag
    is always the transfer of the source bag.
    """
    witnesses = dict(witnesses or {})
    res = skeletize(C)
    D = res.completed
    incl = skeleton_inclusion(res)
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
            completed[name], eta_certs[name] = kind.transfer(res.cert, src, completed)
            continue
        found = kind.find(D, completed)
        if found is None:
            if kinds is None:
                continue
            raise PreconditionViolation(
                f"requested structure '{name}' is absent from {C.name}"
            )
        completed[name] = found
        src[name], _ = kind.transfer(incl, completed, src)
        cert = kind.preserves(res.eta, src, completed, eta_certs)
        if cert is None:
            raise OracleDisagreement(f"eta does not preserve the carried '{name}'")
        eta_certs[name] = cert
    return StructuredCompletion(res, tuple(src), src, completed, eta_certs)


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

    Both witness bags of sc are checked once here; the lifts then reuse the
    bag carried to the completion instead of transferring again.
    """
    if not same_tables(F.source, sc.result.source):
        raise PreconditionViolation("functor does not start at the completed source")
    for name in sc.kinds:
        KINDS[name].check(sc.result.source, sc.source)
        KINDS[name].check(sc.result.completed, sc.completed)
    E = F.target
    target_witnesses = dict(target_witnesses or {})
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
            sc.completed,
        )
    return StructuredFactorization(fact, dst, Fcerts, Hcerts)
