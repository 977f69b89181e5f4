"""Exception types shared across the package."""

from __future__ import annotations


class InstanceError(ValueError):
    """A graph, hypergraph, weight vector or plan fails validation."""


class ParseError(InstanceError):
    """An instance file is malformed.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetError(RuntimeError):
    """A configured work budget would be exceeded.

    ``detail`` maps budget names to the offending observed values so callers
    can report exactly which limit was hit.
    """

    def __init__(self, message: str, **detail: int):
        self.detail = dict(detail)
        if detail:
            extra = ", ".join(f"{k}={v}" for k, v in sorted(detail.items()))
            message = f"{message} ({extra})"
        super().__init__(message)


class InternalError(RuntimeError):
    """A self-check on the package's own answer failed: a plan did not
    replay, a certificate did not re-verify, or two steps of one solve
    disagreed.  It means a defect in the package, not in the input."""
