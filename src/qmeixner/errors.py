"""Exception types shared across the package: one per kind of numeric
refusal.  A bad argument (an empty grid, matrices off a premise, a beta
below 1) is a plain ValueError."""

from __future__ import annotations


class NonConvergent(Exception):
    """A series or infinite product failed to converge within the term budget."""


class PoleHit(Exception):
    """An argument landed on (or within tolerance of) a pole of the function,
    or a denominator factor of a series vanished."""


class OutOfTruncation(Exception):
    """A state, sector or matrix element lies outside the truncated Fock
    space or outside its sector block."""


class ResidualFailure(Exception):
    """An operator identity exceeded its declared residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
