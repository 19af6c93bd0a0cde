"""Exception types shared across the package."""

from __future__ import annotations


class NonConvergent(Exception):
    """A series or infinite product failed to converge within the term budget."""


class PoleHit(Exception):
    """An argument landed on (or within tolerance of) a pole of the function."""


class DenominatorPole(Exception):
    """A denominator Pochhammer factor vanished before the series terminated."""


class UnsupportedShape(Exception):
    """Matrix arguments of qexp_split do not satisfy its premise XY = qYX."""


class OutOfTruncation(Exception):
    """A ladder action targets a state outside the truncated Fock space."""


class OutOfBlock(Exception):
    """A matrix element was requested outside its sector block."""


class EmptySector(Exception):
    """No basis states exist for the requested sector label."""


class EmptyGrid(Exception):
    """A verification grid contains no admissible points."""


class ResidualFailure(Exception):
    """An operator identity exceeded its declared residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
