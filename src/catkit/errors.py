"""Error hierarchy for the engine.

Every error that can be traced to a location in an input document carries a
``pointer`` (JSON-pointer-ish path string) so CLI reports can cite the
offending entry.
"""
from __future__ import annotations


class CatkitError(Exception):
    """Base class for all engine errors."""

    def __init__(self, message: str, pointer: str | None = None):
        self.pointer = pointer
        if pointer:
            message = f"{message} (at {pointer})"
        super().__init__(message)


# --- category table validation ------------------------------------------

class CategoryValidationError(CatkitError):
    pass


class MissingIdentity(CategoryValidationError):
    pass


class MissingComposite(CategoryValidationError):
    pass


class IllTypedComposite(CategoryValidationError):
    pass


class UnitLawViolation(CategoryValidationError):
    pass


class AssociativityViolation(CategoryValidationError):
    pass


class DanglingReference(CategoryValidationError):
    pass


# --- functor / transformation validation ---------------------------------

class FunctorValidationError(CatkitError):
    pass


class IllTypedImage(FunctorValidationError):
    pass


class IdentityNotPreserved(FunctorValidationError):
    pass


class CompositionNotPreserved(FunctorValidationError):
    pass


class NatIsoError(CatkitError):
    pass


class ComponentNotIso(NatIsoError):
    pass


class NaturalitySquareFails(NatIsoError):
    pass


# --- structure operations -------------------------------------------------

class SourceMismatch(CatkitError):
    pass


class InvalidCert(CatkitError):
    pass


class InvalidFactorization(CatkitError):
    pass


class NotACone(CatkitError):
    pass


class ZeroCopies(CatkitError):
    pass


class DependencyMissing(CatkitError):
    pass


class PreconditionViolation(CatkitError):
    pass


class MalformedInput(CatkitError):
    pass


class SizeBoundExceeded(CatkitError):
    pass


class MonadLawViolation(CatkitError):
    pass


class NoClassifier(CatkitError):
    """A subobject has no classifying morphism for the candidate truth arrow."""


class AmbiguousClassifier(CatkitError):
    """A subobject has more than one classifying morphism, so the candidate
    omega fails uniqueness."""


class AxiomViolation(CatkitError):
    pass


# --- internal consistency -------------------------------------------------

class OracleDisagreement(CatkitError):
    """A result the engine guarantees came out otherwise: a carried entry
    that eta's preservation check refuses, a lift the direct decision
    refuses.  Always a bug in the engine, never in user input; surfaces as
    exit code 4 in the CLI."""


class ReflectionFails(OracleDisagreement):
    pass


# --- resource limits -------------------------------------------------------

class SearchBudgetExceeded(CatkitError):
    """Raised when a brute-force sweep exceeds the configured candidate cap."""
