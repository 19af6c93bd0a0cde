"""Truncated q-oscillator pairs and their discrete-series combination.

Two commuting deformed oscillators act on a product Fock space
|n_A, n_B> with 0 <= n_A <= n_a_max, 0 <= n_B <= n_b_max:

    A-|n> = sqrt((1-q^n)/(1-q)) |n-1>,      A+|n> = sqrt((1-q^(n+1))/(1-q)) |n+1>
    B-|n> = sqrt((q^-n-1)/(1-q)) |n-1>,     B+|n> = sqrt((q^-(n+1)-1)/(1-q)) |n+1>

so that A-A+ - qA+A- = 1, [A-, A+] = q^A0 and qB-B+ - B+B- = 1,
[B-, B+] = q^(-B0-1).  Raising operators annihilate the top level of the
truncated space, which corrupts commutation relations only in the last
rows/columns; algebra checks therefore restrict to an interior block.
FockTruncation is that space and the one description of it: its caps, the
row-major enumeration of its states, and its interior, all but the top
quarter of the levels of each mode.  Every OperatorMatrix is indexed by the
states of a FockTruncation, which it carries as its basis.

The combination

    J0 = (A0 + B0 + 1)/2,    J+- = q^((B0-A0+2)/2) A+- B+-

satisfies [J+, J-] = -(q^J0 - q^-J0)/(q^(1/2) - q^(-1/2)) and preserves
each sector spanned by |n>_beta = |n, n+beta-1>.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ._lazy import NumpyOnFirstUse
from .errors import OutOfTruncation
from .meixner import admissible_beta
from .qseries import QContext

np = NumpyOnFirstUse(globals())

__all__ = [
    "FockTruncation",
    "OperatorMatrix",
    "Oscillators",
    "JOperators",
    "build_oscillators",
    "build_J",
    "ladder_coefficients",
    "su11_generators",
    "offset_block",
    "sector_offset",
    "from_offset_blocks",
    "sector",
    "interior_indices",
]


@dataclass(frozen=True)
class FockTruncation:
    """The truncated product space: the states |n_A, n_B> with 0 <= n_A <=
    n_a_max and 0 <= n_B <= n_b_max (both caps inclusive), enumerated
    row-major, index = n_A*(n_b_max+1) + n_B."""

    n_a_max: int
    n_b_max: int

    def __post_init__(self):
        # operator.index admits ints and numpy integers, not floats or strings
        try:
            admissible = min(map(operator.index, (self.n_a_max, self.n_b_max))) >= 1
        except TypeError:
            admissible = False
        if not admissible:
            raise ValueError(
                "truncation caps must be integers >= 1, "
                f"got {self.n_a_max!r} and {self.n_b_max!r}"
            )

    @property
    def dim(self) -> int:
        return (self.n_a_max + 1) * (self.n_b_max + 1)

    @cached_property
    def na(self) -> np.ndarray:
        """n_A of every state, by index."""
        return np.arange(self.dim) // (self.n_b_max + 1)

    @cached_property
    def nb(self) -> np.ndarray:
        """n_B of every state, by index."""
        return np.arange(self.dim) % (self.n_b_max + 1)

    @property
    def interior(self) -> tuple[int, int]:
        """Top interior level of each mode: all but the top quarter."""
        return tuple(cap - math.ceil(cap / 4) for cap in (self.n_a_max, self.n_b_max))

    def index(self, n_a: int, n_b: int) -> int:
        if not (0 <= n_a <= self.n_a_max and 0 <= n_b <= self.n_b_max):
            raise OutOfTruncation(f"state ({n_a}, {n_b}) outside truncation")
        return n_a * (self.n_b_max + 1) + n_b

    def state(self, i: int) -> tuple[int, int]:
        return divmod(i, self.n_b_max + 1)


@dataclass
class OperatorMatrix:
    """Dense real matrix over the states of a truncation, in its order."""

    entries: np.ndarray
    basis: FockTruncation


class Oscillators(NamedTuple):
    a0: OperatorMatrix
    a_plus: OperatorMatrix
    a_minus: OperatorMatrix
    b0: OperatorMatrix
    b_plus: OperatorMatrix
    b_minus: OperatorMatrix


class JOperators(NamedTuple):
    j0: OperatorMatrix
    j_plus: OperatorMatrix
    j_minus: OperatorMatrix


def _ladders(
    t: FockTruncation, a_coeff: np.ndarray, b_coeff: np.ndarray
) -> Oscillators:
    """Number and ladder operators of both modes on the product space (as
    kron products), given the per-mode lowering coefficients <n-1|L|n>
    indexed by n - 1; each raising matrix is its lowering transpose."""
    a_lower = np.diag(a_coeff, k=1)
    b_lower = np.diag(b_coeff, k=1)
    eye_a = np.eye(t.n_a_max + 1)
    eye_b = np.eye(t.n_b_max + 1)

    def om(m: np.ndarray) -> OperatorMatrix:
        return OperatorMatrix(m, t)

    # the raising factors are contiguous copies: np.kron of the transposed
    # view raised the peak RSS of `qmeixner limit --kind operator` by 3 MB
    return Oscillators(
        a0=om(np.kron(np.diag(np.arange(t.n_a_max + 1, dtype=float)), eye_b)),
        a_plus=om(np.kron(a_lower.T.copy(), eye_b)),
        a_minus=om(np.kron(a_lower, eye_b)),
        b0=om(np.kron(eye_a, np.diag(np.arange(t.n_b_max + 1, dtype=float)))),
        b_plus=om(np.kron(eye_a, b_lower.T.copy())),
        b_minus=om(np.kron(eye_a, b_lower)),
    )


def ladder_coefficients(t: FockTruncation, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode lowering coefficients <n-1|A-|n> and <n-1|B-|n>, equal to
    the raising ones <n|A+|n-1> and <n|B+|n-1>, indexed by n - 1.
    OverflowError naming the first level whose B coefficient (its q^-n)
    exceeds the double range."""
    na_up = np.arange(1, t.n_a_max + 1, dtype=float)
    nb_up = np.arange(1, t.n_b_max + 1, dtype=float)
    # an overflow is refused below, at the level it reached
    with np.errstate(over="ignore"):
        b_up = np.sqrt((q ** (-nb_up) - 1.0) / (1.0 - q))
    finite = np.isfinite(b_up)
    if not finite.all():
        n = int(np.argmin(finite)) + 1
        raise OverflowError(
            f"q^-n of the B ladder at q = {q}, n = {n} exceeds the double range"
        )
    return np.sqrt((1.0 - q**na_up) / (1.0 - q)), b_up


def build_oscillators(t: FockTruncation, ctx: QContext) -> Oscillators:
    """Matrices of A0, A+-, B0, B+- on the product space (numbers as kron)."""
    return _ladders(t, *ladder_coefficients(t, ctx.q))


def su11_generators(osc: Oscillators, pref=1.0) -> JOperators:
    """J0 = (A0 + B0 + 1)/2 and the pair ladders J+- = pref * A+-B+-.

    pref is a diagonal over the states of the truncation (or a scalar),
    evaluated on the output state; it commutes with A+-B+- because both
    shift n_A and n_B together."""
    t = osc.a0.basis
    pref = np.reshape(pref, (-1, 1))
    return JOperators(
        OperatorMatrix((osc.a0.entries + osc.b0.entries + np.eye(t.dim)) / 2.0, t),
        OperatorMatrix(pref * _shift_product(osc.a_plus.entries, osc.b_plus.entries), t),
        OperatorMatrix(pref * _shift_product(osc.a_minus.entries, osc.b_minus.entries), t),
    )


def _shift_product(shift: np.ndarray, m: np.ndarray) -> np.ndarray:
    """shift @ m for a shift with at most one nonzero per row (a ladder of
    one mode): each entry is the one product shift[i, k] m[k, j], the value
    a dense product returns, with no dense product formed."""
    col = np.argmax(shift != 0, axis=1)
    return shift[np.arange(len(shift)), col][:, None] * m[col]


def build_J(t: FockTruncation, ctx: QContext) -> JOperators:
    """J0 and J+- assembled from freshly built oscillators on t."""
    offset = (t.nb - t.na).astype(float)
    return su11_generators(build_oscillators(t, ctx), ctx.q ** ((offset + 2.0) / 2.0))


def offset_block(t: FockTruncation, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The states |m, m+d> of offset d = n_B - n_A inside t, by m: their
    levels m = n_A and their product-space indices (both empty when t holds
    none).  Every pair ladder keeps the offset fixed."""
    na = np.arange(max(0, -d), min(t.n_a_max, t.n_b_max - d) + 1)
    return na, na * (t.n_b_max + 1) + na + d


def sector_offset(t: FockTruncation, beta: int) -> int:
    """Offset d = beta - 1 of the sector |n>_beta = |n, n+beta-1>; beta is
    refused by admissible_beta's rule, and OutOfTruncation is raised when t
    holds none of the sector's states."""
    if admissible_beta(beta) - 1 > t.n_b_max:
        raise OutOfTruncation(f"beta={beta} has no states under truncation {t}")
    return beta - 1


def from_offset_blocks(t: FockTruncation, blocks: dict[int, np.ndarray]) -> OperatorMatrix:
    """Dense product-space matrix holding blocks[d] on the states of offset
    d (ordered as offset_block orders them) and zeros between offsets."""
    dense = np.zeros((t.dim, t.dim))
    for d, block in blocks.items():
        _, idx = offset_block(t, d)
        dense[np.ix_(idx, idx)] = block
    return OperatorMatrix(dense, t)


def sector(t: FockTruncation, beta: int) -> np.ndarray:
    """Product-space indices of the sector |n>_beta = |n, n+beta-1>, by n."""
    return offset_block(t, sector_offset(t, beta))[1]


def interior_indices(t: FockTruncation, na_keep: int, nb_keep: int) -> np.ndarray:
    """Boolean mask selecting states with n_A <= na_keep and n_B <= nb_keep."""
    return (t.na <= na_keep) & (t.nb <= nb_keep)
