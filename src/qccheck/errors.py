"""Exception types shared across the toolkit."""

from __future__ import annotations

from typing import Optional


class InternalInvariantError(RuntimeError):
    """A cross-checked invariant of the toolkit itself was violated.

    Raised when two routes that must agree disagree (LP duality, witness
    re-verification, oracle versus solver verdicts).  This always signals a
    bug in the toolkit, never bad user input; the CLI maps it to exit code 2
    with a machine-readable diagnostic.  `stage` names the pipeline stage
    that raised it, when the CLI knows (see `cli.main`).
    """

    stage: Optional[str] = None

    def __init__(self, invariant: str, details: str = "") -> None:
        self.invariant = invariant
        self.details = details
        message = f"internal invariant violated: {invariant}"
        if details:
            message += f" ({details})"
        super().__init__(message)
