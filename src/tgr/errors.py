"""Exception types shared across the package."""

from __future__ import annotations


class TgrError(Exception):
    """Base class for all errors raised by this package."""


class FormulaParseError(TgrError):
    """Syntax error in a formula, with source location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class MixedDialectError(TgrError):
    """A formula mixes future and past temporal operators."""

    def __init__(self, future_op: str, past_op: str):
        super().__init__(
            f"formula mixes future operator {future_op!r} "
            f"with past operator {past_op!r}"
        )
        self.future_op = future_op
        self.past_op = past_op


class AutomatonCapError(TgrError):
    """Automaton construction exceeded a resource cap."""


class PddlParseError(TgrError):
    """Syntax error in a PDDL file, with source location."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        loc = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


class UnsupportedFeatureError(TgrError):
    """A PDDL construct outside the supported subset, named explicitly."""


class GroundingCapError(TgrError):
    """Grounding exceeded the fluent or action cap."""


class CompileError(TgrError):
    """Goal formula cannot be compiled against the given domain/problem."""


class UnsolvableError(TgrError):
    """No strong-cyclic policy exists for the planning task."""


class PlannerCapError(TgrError):
    """Planner search exceeded its state cap."""


class ExternalPlannerError(TgrError):
    """An external planner process failed or produced unusable output."""


class PolicyParseError(TgrError):
    """Policy text does not follow the `state TAB action` line format."""


class InapplicableActionError(TgrError):
    """Action applied in a state where its precondition does not hold."""


class ExecutionCapError(TgrError):
    """Execution enumeration exceeded its cap."""


class BundleError(TgrError):
    """An input file cannot be read, or a recognition bundle or bench
    config is missing fields or references bad data."""


class DeadlineExceeded(TgrError):
    """Cooperative timeout expired."""
