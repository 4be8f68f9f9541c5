"""Exception types shared across the package.

Two failure modes are kept apart on purpose.  A ``DomainError`` means the
caller asked a malformed or out-of-contract question (bad vertex id, empty
starting set, wrong regularity) and retrying with the same input is
pointless.  A ``ResourceLimitError`` means the question was fine but the
search was abandoned, or the digraph refused, at a fixed bound; the
answer is unknown, not negative.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """Raised when a search or a digraph to be built exceeds a fixed limit."""
