"""Carrying chosen structure through completion and factorization.

Each kind of structure is registered with the same behavioral contract:
validate a witness, find one, transfer it along a weak equivalence, decide
preservation by a functor, and lift preservation through a factorization
triangle.  The registry drives whole-pipeline operations in dependency
order, so exponentials always follow products, and the classifier and
parameterized-N always follow the terminal.

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
from .errors import DependencyMissing, InvalidCert, OracleDisagreement, PreconditionViolation
from .classifier import (
    check_subobject_classifier,
    find_subobject_classifier,
    lift_preservation_subobject_classifier,
    preserves_subobject_classifier,
    transfer_subobject_classifier,
)
from .exponentials import (
    find_exponentials,
    is_exponential,
    lift_preservation_exponentials,
    preserves_exponentials,
    transfer_exponentials,
)
from .limits import (
    EQUALIZERS,
    PRODUCTS,
    PULLBACKS,
    check_table,
    find_binary_products,
    find_equalizers,
    find_pullbacks,
    find_terminal,
    is_terminal,
    lift_preservation_binary_products,
    lift_preservation_equalizers,
    lift_preservation_pullbacks,
    lift_preservation_terminal,
    preserves_binary_products,
    preserves_equalizers,
    preserves_pullbacks,
    preserves_terminal,
    transfer_binary_products,
    transfer_equalizers,
    transfer_pullbacks,
    transfer_terminal,
)
from .nno import find_pnno, is_pnno, lift_preservation_pnno, preserves_pnno, transfer_pnno


@dataclass(frozen=True, eq=False)
class StructureKind:
    """Uniform handle on one kind of categorical structure.

    All callables receive bags: plain dicts mapping kind names to witness
    payloads on a single category, so kinds can reach their dependencies.
    ``transfer`` serves the pipeline, whose choices are fixed on the
    skeleton, so it never warns about a non-skeletal target.  ``lift``
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


def _check_terminal(C, bag):
    if not is_terminal(C, bag["terminal"].t):
        raise InvalidCert("terminal witness is not terminal")


def _check_exponentials(C, bag):
    table = bag["exponentials"]
    prods = bag["products"]
    for x in range(C.n_objects):
        for y in range(C.n_objects):
            w = table.get((x, y))
            if w is None or (w.x, w.y) != (x, y) or not is_exponential(C, prods, w):
                raise InvalidCert(f"exponential table is wrong at ({x},{y})")


def _check_classifier(C, bag):
    check_subobject_classifier(C, bag["terminal"], bag["classifier"])


def _check_pnno(C, bag):
    w = bag["pnno"]
    if is_pnno(C, bag["terminal"], bag["products"], w.N, w.z, w.s) is None:
        raise InvalidCert("parameterized-N witness fails its defining property")


KINDS: dict[str, StructureKind] = {
    "terminal": StructureKind(
        "terminal",
        (),
        _check_terminal,
        lambda C, bag: find_terminal(C),
        lambda cert, src, dst: transfer_terminal(cert, src["terminal"], skeletal_hint=False),
        lambda F, src, dst, certs: preserves_terminal(F, src["terminal"], dst["terminal"]),
        lambda cert, F, H, alpha, src, dst, Fcerts, carried: lift_preservation_terminal(
            cert, F, H, alpha, Fcerts["terminal"], carried["terminal"]
        ),
    ),
    "products": StructureKind(
        "products",
        (),
        lambda C, bag: check_table(PRODUCTS, C, bag["products"]),
        lambda C, bag: find_binary_products(C),
        lambda cert, src, dst: transfer_binary_products(cert, src["products"], skeletal_hint=False),
        lambda F, src, dst, certs: preserves_binary_products(F, src["products"], dst["products"]),
        lambda cert, F, H, alpha, src, dst, Fcerts, carried: lift_preservation_binary_products(
            cert, F, H, alpha, Fcerts["products"], carried["products"]
        ),
    ),
    "equalizers": StructureKind(
        "equalizers",
        (),
        lambda C, bag: check_table(EQUALIZERS, C, bag["equalizers"]),
        lambda C, bag: find_equalizers(C),
        lambda cert, src, dst: transfer_equalizers(cert, src["equalizers"], skeletal_hint=False),
        lambda F, src, dst, certs: preserves_equalizers(F, src["equalizers"], dst["equalizers"]),
        lambda cert, F, H, alpha, src, dst, Fcerts, carried: lift_preservation_equalizers(
            cert, F, H, alpha, Fcerts["equalizers"], carried["equalizers"]
        ),
    ),
    "pullbacks": StructureKind(
        "pullbacks",
        (),
        lambda C, bag: check_table(PULLBACKS, C, bag["pullbacks"]),
        lambda C, bag: find_pullbacks(C),
        lambda cert, src, dst: transfer_pullbacks(cert, src["pullbacks"], skeletal_hint=False),
        lambda F, src, dst, certs: preserves_pullbacks(F, src["pullbacks"], dst["pullbacks"]),
        lambda cert, F, H, alpha, src, dst, Fcerts, carried: lift_preservation_pullbacks(
            cert, F, H, alpha, Fcerts["pullbacks"], carried["pullbacks"]
        ),
    ),
    "exponentials": StructureKind(
        "exponentials",
        ("products",),
        _check_exponentials,
        lambda C, bag: find_exponentials(C, bag["products"]),
        lambda cert, src, dst: transfer_exponentials(
            cert, src["products"], src["exponentials"], dst["products"]
        ),
        lambda F, src, dst, certs: preserves_exponentials(
            F, src["products"], src["exponentials"], dst["products"],
            dst["exponentials"], certs["products"],
        ),
        lambda cert, F, H, alpha, src, dst, Fcerts, carried: lift_preservation_exponentials(
            cert, F, H, alpha, Fcerts["products"], Fcerts["exponentials"],
            carried["products"], carried["exponentials"],
        ),
    ),
    "classifier": StructureKind(
        "classifier",
        ("terminal",),
        _check_classifier,
        lambda C, bag: find_subobject_classifier(C, bag["terminal"]),
        lambda cert, src, dst: transfer_subobject_classifier(
            cert, src["terminal"], dst["terminal"], src["classifier"]
        ),
        lambda F, src, dst, certs: preserves_subobject_classifier(
            F, src["terminal"], src["classifier"], dst["terminal"], dst["classifier"]
        ),
        lambda cert, F, H, alpha, src, dst, Fcerts, carried: lift_preservation_subobject_classifier(
            cert, F, H, alpha, src["terminal"], src["classifier"],
            dst["terminal"], dst["classifier"], Fcerts["classifier"],
            carried["terminal"], carried["classifier"],
        ),
    ),
    "pnno": StructureKind(
        "pnno",
        ("terminal", "products"),
        _check_pnno,
        lambda C, bag: find_pnno(C, bag["terminal"], bag["products"]),
        lambda cert, src, dst: transfer_pnno(
            cert, src["terminal"], src["products"], dst["terminal"],
            dst["products"], src["pnno"],
        ),
        lambda F, src, dst, certs: preserves_pnno(
            F, src["terminal"], src["products"], src["pnno"],
            dst["terminal"], dst["products"], dst["pnno"],
        ),
        lambda cert, F, H, alpha, src, dst, Fcerts, carried: lift_preservation_pnno(
            cert, F, H, alpha, src["terminal"], src["products"], src["pnno"],
            dst["terminal"], dst["products"], dst["pnno"], Fcerts["pnno"],
            carried["terminal"], carried["products"], carried["pnno"],
        ),
    ),
}

KIND_ORDER = ("terminal", "products", "equalizers", "pullbacks",
              "exponentials", "classifier", "pnno")


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
    functor_certs: dict[str, object] | None = None,
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
    functor_certs = dict(functor_certs or {})
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
        cert = functor_certs.get(name)
        if cert is None:
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
