"""Exception hierarchy shared across the library."""

from __future__ import annotations


class ContestError(Exception):
    """Base class for all library errors."""


class GameValidationError(ContestError, ValueError):
    """A game, profile, or game file violates a structural invariant."""


class PreconditionError(ContestError, ValueError):
    """An operation was invoked on a game outside its guaranteed domain."""


class CapExceededError(ContestError, RuntimeError):
    """An exhaustive operation would exceed its configured state-space cap."""


class ContigufyError(ContestError, RuntimeError):
    """A contiguous profile that should be an equilibrium is not one."""
