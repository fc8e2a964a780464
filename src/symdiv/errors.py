"""Exception hierarchy with stable machine-readable error codes.

Every error raised by this package carries a ``code`` string that callers
(and the CLI) can match on without parsing messages. Codes in use:

    NONPOSITIVE_WEIGHT, NOT_NORMALIZED, NON_FINITE, DIMENSION_TOO_SMALL,
    DIMENSION_MISMATCH, PARAMETER_OUT_OF_RANGE, EMPTY_GRID,
    UNSUPPORTED_ORDER, NONPOSITIVE_ARGUMENT, DEGENERATE_BOUNDS,
    MISSING_DERIVATIVE, NONCONVEX_REFERENCE, GENERATOR_DOMAIN,
    BAD_INPUT_FILE, BAD_CONFIG, NON_FINITE_RESULT
"""

from __future__ import annotations

import threading

# held around symdiv's warnings.catch_warnings blocks, which swap the process-wide filter
# list, so that none interleave across threads; reentrant: the CLI's block holds the rest
_FILTERS = threading.RLock()


class SymdivError(Exception):
    """Base error for this package."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class InputError(SymdivError, ValueError):
    """Caller-supplied data or configuration violates a contract."""


class DomainError(SymdivError, ValueError):
    """A mathematical precondition does not hold (domain, degeneracy)."""
