"""Exception hierarchy shared by all modules."""
from __future__ import annotations


class PetriGlueError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PetriGlueError):
    """A value violates a structural invariant."""


class UnknownPlaceError(ValidationError):
    """A multiset or map refers to a place that was never declared."""


class UnknownGeneratorError(ValidationError):
    """A term or map refers to a generator that was never declared."""


class TypeMismatchError(PetriGlueError):
    """Composition boundaries disagree, or compared terms are not parallel."""


class BadPermutationError(PetriGlueError):
    """A permutation is not a bijection on the indices of its word."""


class SourceMismatchError(PetriGlueError):
    """Two functors or folds that must share a boundary do not."""


class PreconditionFailedError(PetriGlueError):
    """An operation was called on arguments outside its stated domain."""


class SemanticsMismatchError(PetriGlueError):
    """Two nets that must share a semantics backend do not."""


class SemanticsObstructionError(PetriGlueError):
    """A witness pairs components that carry different semantics."""


class WellDefinednessError(PetriGlueError):
    """A quotient construction produced inconsistent class data.

    Unreachable when the caller's preconditions hold; raising it signals
    an internal bug, not bad input.
    """


class VerdictFailedError(PetriGlueError):
    """A construction requires a verdict that did not pass."""

    def __init__(self, message: str, verdict: object = None) -> None:
        super().__init__(message)
        self.verdict = verdict


class EmptyDecompositionError(PetriGlueError):
    """A synchronization expression uses no morphism generators."""


class BudgetExceededError(PetriGlueError):
    """A bounded search passed its node limit, or an event its flow limit."""


class BoundaryOrientationError(PetriGlueError):
    """A boundary place has producers and consumers on the wrong sides."""


class SamePlaceError(PetriGlueError):
    """A two-place merge was asked to merge a place with itself."""


class ParseError(PetriGlueError):
    """A document or term expression is syntactically malformed."""
