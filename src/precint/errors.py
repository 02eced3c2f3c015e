"""Exception types shared across the package."""

from __future__ import annotations


class PrecintError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PrecintError):
    """Raised when an expression cannot be parsed.

    Carries the offending position so the CLI can point at it.
    """

    def __init__(self, message: str, text: str, position: int):
        self.text = text
        self.position = position
        super().__init__(f"{message} (at position {position}: {text!r})")


class MissingRightBoundError(PrecintError):
    """An orbit has a solution of nonzero valuation growth but no right bound.

    Without a right bound the set of points needing treatment is infinite,
    so the computation cannot proceed.
    """

    def __init__(self, orbit_key: str, growths: tuple):
        self.orbit_key = orbit_key
        self.growths = growths
        super().__init__(
            f"orbit {orbit_key!r} has valuation growths {list(growths)}; "
            f"a right bound is required (pass --right-bound={orbit_key}=R)"
        )


class SingularTransitionError(PrecintError):
    """Two bases compared for module equality do not span the same space."""
