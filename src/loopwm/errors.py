"""Shared exception hierarchy.

Every module raises subclasses of LoopwmError so callers (CLI, loop engine)
can distinguish usage errors from runtime failures without string matching.
"""


class LoopwmError(Exception):
    """Base class for all package-specific errors."""


class CheckpointError(LoopwmError):
    """Raised for malformed, truncated, or incompatible checkpoint files."""


class DomainError(LoopwmError):
    """Raised for malformed domain files or references to unknown symbols."""


class PreconditionError(LoopwmError):
    """Raised when an operator is applied in a state that violates its preconditions."""


class NoPlanError(LoopwmError):
    """Raised when a goal holds in no state within the plan length cap."""


class DivergenceError(LoopwmError):
    """Raised when an iterative numeric procedure produces non-finite state."""


class NumericError(LoopwmError, ValueError):
    """Raised when an array that must be finite holds NaN or infinity.

    Also a ValueError, which is what callers caught before it existed.
    """


class SuiteError(LoopwmError):
    """Raised when a benchmark suite cannot be generated or reconciled."""


class ParseError(LoopwmError, ValueError):
    """Raised when a YAML tree does not fit the record it should build.

    `path` holds the keys from the root of the tree to the value at fault.
    Also a ValueError, which is what the config's callers catch.
    """

    def __init__(self, path: tuple, message: str) -> None:
        super().__init__(message)
        self.path = path
