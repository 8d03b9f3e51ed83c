"""Exception hierarchy shared across the package."""


class ChcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ChcError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class SortMismatch(ChcError):
    pass


class ArityClash(ChcError):
    pass


class OverlapError(ChcError):
    """A predicate is reachable from both partition roots; `goal_id`, when
    set, is the goal that the overlap left untransformed."""

    def __init__(self, pred, goal_id=None):
        self.pred = pred
        self.goal_id = goal_id
        super().__init__(f"predicate {pred!r} is shared between both partitions")


# --- transformation rule violations -------------------------------------

class RuleError(ChcError):
    pass


class FreshnessViolation(RuleError):
    pass


class ConstraintClassViolation(RuleError):
    pass


class NonP0Predicate(RuleError):
    pass


class HeadVarViolation(RuleError):
    pass


class NoSuchClause(RuleError):
    pass


class BadPosition(RuleError):
    pass


class NotADefinition(RuleError):
    pass


class MatchFailure(RuleError):
    pass


class EntailmentFailure(RuleError):
    def __init__(self, message, atom=None, verdict=None):
        self.atom = atom
        self.verdict = verdict
        super().__init__(message)


class VarConditionViolation(RuleError):
    pass


class ShapeMismatch(RuleError):
    pass


class EquivalenceNotProved(RuleError):
    def __init__(self, message, verdict=None):
        self.verdict = verdict
        super().__init__(message)


# --- strategy errors ------------------------------------------------------

class InputShapeError(ChcError):
    pass


class CapExceeded(ChcError):
    pass


class NoMixedPair(ChcError):
    pass


# --- oracle / model checking ---------------------------------------------

class ArrayUnsupported(ChcError):
    pass


class ModelError(ChcError):
    pass


class TransportError(ChcError):
    pass
