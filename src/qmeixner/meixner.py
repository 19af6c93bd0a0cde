"""q-Meixner polynomials, weights, norms, and overlap coefficients.

The polynomial of degree n on the q-exponential lattice q^-x is

    M_n(q^-x; b, c; q) = 2_phi_1(q^-n, q^-x; bq | q; -q^(n+1)/c),

a terminating sum with min(n, x) + 1 terms.  The positive-integer
parameterisation b = q^(beta-1), c = theta^2 connects the polynomials to
the overlap coefficients

    xi_{n,x}(theta; beta) = (-1)^x theta^(n+x)
        * ([n+beta-1, n]_q [x+beta-1, x]_q)^(1/2)
        * sqrt( q^(C(x,2)-C(n,2)) / ((-theta^2; q)_{x+beta}
                                      (-theta^2 q^-n; q)_n) )
        * M_n(q^-x; q^(beta-1), theta^2; q)

which form a real orthogonal matrix: sum_x xi_{n,x} xi_{n',x} = delta.
Equivalently, with the weight

    omega_x = theta^(2x) [x+beta-1, x]_q q^(C(x,2)) / (-theta^2; q)_{x+beta}

the polynomials satisfy sum_x omega_x M_n M_n' = delta * norm_factor(n).

Classical (q -> 1) companions live at the bottom of the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import NonConvergent
from .qseries import (
    CompensatedSum,
    QContext,
    QPower,
    basic_hypergeometric,
    q_binomial,
    q_pochhammer,
)

__all__ = [
    "MeixnerParams",
    "MatrixElementParams",
    "qmeixner",
    "weight",
    "norm_factor",
    "xi",
    "duality_transform",
    "xi_dual",
    "classical_meixner",
    "classical_xi_limit",
    "orthogonality_sum",
    "dual_orthogonality_sum",
]


@dataclass(frozen=True)
class MeixnerParams:
    """Parameters (b, c) of M_n(q^-x; b, c; q).

    Exactly one of `b` (float, 0 < b < 1) and `beta` (integer >= 1, meaning
    b = q^(beta-1) held exactly) is set.  `c_shift` is an integer k so that
    the effective c is c * q^k; duality transforms accumulate the shift as
    an integer, which makes the double transform restore the parameters
    exactly instead of up to rounding.
    """

    c: float
    ctx: QContext
    b: float | None = None
    beta: int | None = None
    c_shift: int = 0

    def __post_init__(self):
        if (self.b is None) == (self.beta is None):
            raise ValueError("exactly one of b and beta must be given")
        if self.b is not None and not (0.0 < self.b < 1.0):
            raise ValueError(f"b must lie in (0, 1), got {self.b}")
        if self.beta is not None and (not isinstance(self.beta, int) or self.beta < 1):
            raise ValueError(f"beta must be a positive integer, got {self.beta}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be finite and positive, got {self.c}")

    @classmethod
    def from_b(cls, b: float, c: float, ctx: QContext) -> "MeixnerParams":
        return cls(c=c, ctx=ctx, b=b)

    @classmethod
    def from_beta(
        cls, beta: int, c: float, ctx: QContext, c_shift: int = 0
    ) -> "MeixnerParams":
        return cls(c=c, ctx=ctx, beta=beta, c_shift=c_shift)

    @property
    def c_effective(self) -> float:
        if self.c_shift == 0:
            return self.c
        return self.c * self.ctx.q ** self.c_shift

    def _bq_param(self):
        # denominator parameter bq of the defining 2_phi_1
        if self.beta is not None:
            return QPower(self.beta)
        return self.b * self.ctx.q


@dataclass(frozen=True)
class MatrixElementParams:
    """Parameters (theta, beta) of the overlap coefficients xi_{n,x}."""

    theta: float
    beta: int
    ctx: QContext

    def __post_init__(self):
        if self.theta == 0.0 or not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite and nonzero, got {self.theta}")
        if not isinstance(self.beta, int) or self.beta < 1:
            raise ValueError(f"beta must be a positive integer, got {self.beta}")

    def meixner_params(self) -> MeixnerParams:
        return MeixnerParams.from_beta(self.beta, self.theta**2, self.ctx)


def qmeixner(n: int, x: int, p: MeixnerParams) -> float:
    """M_n(q^-x; b, c; q), exact terminating evaluation.

    Both q^-n and q^-x enter the 2_phi_1 as QPower markers, so the sum stops
    after min(n, x) + 1 terms with the final factor computed exactly.
    """
    if n < 0 or x < 0:
        raise ValueError("degree n and lattice point x must be >= 0")
    q = p.ctx.q
    z = -(q ** (n + 1)) / p.c_effective
    sv = basic_hypergeometric(
        [QPower(-n), QPower(-x)], [p._bq_param()], z, p.ctx
    )
    return sv.value


def weight(x: int, mp: MatrixElementParams) -> float:
    """Orthogonality weight omega_x = xi_{0,x}^2 (positive)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    q = mp.ctx.q
    t2 = mp.theta**2
    num = t2**x * q_binomial(x + mp.beta - 1, x, mp.ctx) * q ** (x * (x - 1) // 2)
    return num / q_pochhammer(-t2, x + mp.beta, mp.ctx)


def norm_factor(n: int, mp: MatrixElementParams) -> float:
    """Squared norm of degree n in the weighted sum over the lattice:

    q^(C(n,2)) theta^(-2n) (q;q)_n (q;q)_{beta-1} (-theta^2 q^-n; q)_n
        / (q;q)_{n+beta-1}.

    Equals 1 at n = 0 for every beta (the weights sum to one).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    ctx = mp.ctx
    q = ctx.q
    t2 = mp.theta**2
    num = (
        q ** (n * (n - 1) // 2)
        * t2 ** (-n)
        * q_pochhammer(q, n, ctx)
        * q_pochhammer(-t2 * q ** (-n), n, ctx)
    )
    den = q_pochhammer(q, n + mp.beta - 1, ctx) / q_pochhammer(q, mp.beta - 1, ctx)
    return num / den


def xi(n: int, x: int, mp: MatrixElementParams) -> float:
    """Overlap coefficient xi_{n,x}(theta; beta), real, bounded by 1.

    The naive grouping q^(-C(n,2)) / (-theta^2 q^-n; q)_n overflows for
    large n even though the ratio is tame; factoring theta^2 q^-m out of
    each Pochhammer factor gives the stable equivalent

        q^(-C(n,2)) / (-t2 q^-n; q)_n = q^n t2^-n / prod_{m=1}^{n} (1 + q^m/t2)

    whose theta^-n cancels against the theta^(n+x) prefactor.
    """
    if n < 0 or x < 0:
        raise ValueError("n and x must be >= 0")
    ctx = mp.ctx
    q = ctx.q
    theta = mp.theta
    t2 = theta**2
    prod = 1.0
    for m in range(1, n + 1):
        prod *= 1.0 + q**m / t2
    radicand = q ** (x * (x - 1) // 2 + n) / (
        q_pochhammer(-t2, x + mp.beta, ctx) * prod
    )
    sign = -1.0 if (theta < 0.0 and (n + x) % 2) else 1.0
    value = (
        (-1.0) ** x
        * sign
        * abs(theta) ** x
        * math.sqrt(q_binomial(n + mp.beta - 1, n, ctx))
        * math.sqrt(q_binomial(x + mp.beta - 1, x, ctx))
        * math.sqrt(radicand)
        * qmeixner(n, x, mp.meixner_params())
    )
    return value


def duality_transform(
    n: int, x: int, mp: MeixnerParams
) -> tuple[int, int, MeixnerParams]:
    """Swap degree and lattice point: M_n(q^-x; b, c) = M_x(q^-n; b, c q^(x-n)).

    The c shift is tracked as an integer exponent, so applying the transform
    twice returns parameters equal to the originals exactly.
    """
    return x, n, replace(mp, c_shift=mp.c_shift + (x - n))


def xi_dual(
    n: int, x: int, mp: MatrixElementParams
) -> tuple[float, int, int, MatrixElementParams]:
    """Self-duality of the overlaps:

    xi_{n,x}(theta) = q^((n-x)/2) * xi_{x,n}(-theta q^((x-n)/2)).

    Returns (prefactor, x, n, transformed params).
    """
    q = mp.ctx.q
    prefactor = q ** ((n - x) / 2.0)
    theta_dual = -mp.theta * q ** ((x - n) / 2.0)
    return prefactor, x, n, MatrixElementParams(theta_dual, mp.beta, mp.ctx)


def classical_meixner(n: int, x: float, beta: float, c: float) -> float:
    """Classical Meixner polynomial

    M_n(x; beta, c) = sum_g (-n)_g (-x)_g / ((beta)_g g!) (1 - 1/c)^g,

    the q -> 1 companion of M_n(q^-x; q^(beta-1), c/(1-c); q).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if not (0.0 < c < 1.0):
        raise ValueError(f"classical c must lie in (0, 1), got {c}")
    w = 1.0 - 1.0 / c
    total = 1.0
    term = 1.0
    for g in range(n):
        term *= (-n + g) * (-x + g) / ((beta + g) * (g + 1)) * w
        if term == 0.0:
            break
        total += term
    return total


def classical_xi_limit(n: int, x: int, beta: int, tau: float) -> float:
    """q -> 1 limit of xi_{n,x} at theta = sinh(tau):

    (-1)^x C(n+beta-1, n)^(1/2) C(x+beta-1, x)^(1/2)
        * tanh(tau)^(x+n) * cosh(tau)^-beta * M_n(x; beta, tanh(tau)^2).
    """
    if n < 0 or x < 0:
        raise ValueError("n and x must be >= 0")
    if beta < 1:
        raise ValueError("beta must be a positive integer")
    th = math.tanh(tau)
    if tau == 0.0:
        # the rotation degenerates to the identity
        return 1.0 if n == x else 0.0
    return (
        (-1.0) ** x
        * math.sqrt(math.comb(n + beta - 1, n) * math.comb(x + beta - 1, x))
        * th ** (x + n)
        * math.cosh(tau) ** (-beta)
        * classical_meixner(n, x, beta, th * th)
    )


def orthogonality_sum(
    n: int, n2: int, mp: MatrixElementParams
) -> tuple[float, int]:
    """Adaptively truncated sum over the lattice:

    sum_x omega_x M_n(q^-x) M_n2(q^-x).

    Terms decay super-geometrically; summation stops once three consecutive
    terms fall below tail_cutoff times the running maximum term.
    Returns (sum, terms_used).
    """
    ctx = mp.ctx
    pm = mp.meixner_params()
    acc = CompensatedSum()
    running_max = 0.0
    small_streak = 0
    x = 0
    while True:
        t = weight(x, mp) * qmeixner(n, x, pm) * qmeixner(n2, x, pm)
        acc.add(t)
        mag = abs(t)
        if mag > running_max:
            running_max = mag
        if mag < ctx.tail_cutoff * running_max:
            small_streak += 1
            if small_streak >= 3:
                return acc.total, x + 1
        else:
            small_streak = 0
        x += 1
        if x >= ctx.max_terms:
            raise NonConvergent("orthogonality sum exceeded the term budget")


def dual_orthogonality_sum(
    x: int, x2: int, mp: MatrixElementParams
) -> tuple[float, int]:
    """Adaptively truncated dual sum over the degree:

    sum_n M_n(q^-x) M_n(q^-x2) theta^(2n) q^(-C(n,2))
          [n+beta-1, n]_q / (-theta^2 q^-n; q)_n,

    nominally delta_{x,x2} / omega_x.  The sum converges (terms shrink like
    q^n), but to a value that genuinely differs from delta/omega: the
    lattice functions n -> xi_{n,x} are orthogonal in x yet not complete,
    so the dual sum carries a finite completeness defect (about 4.4e-4
    relative at x = 0 for q = 0.5, theta = 0.3, beta = 1, growing with x
    and shrinking as q -> 1).  The degree-dependent factor is carried by a
    stable term-ratio recurrence.  Returns (sum, terms_used).
    """
    ctx = mp.ctx
    q = ctx.q
    t2 = mp.theta**2
    pm = mp.meixner_params()
    acc = CompensatedSum()
    factor = 1.0  # theta^(2n) q^(-C(n,2)) [n+beta-1,n]_q / (-t2 q^-n; q)_n at n=0
    running_max = 0.0
    small_streak = 0
    n = 0
    while True:
        t = factor * qmeixner(n, x, pm) * qmeixner(n, x2, pm)
        acc.add(t)
        mag = abs(t)
        if mag > running_max:
            running_max = mag
        if mag < ctx.tail_cutoff * running_max:
            small_streak += 1
            if small_streak >= 3:
                return acc.total, n + 1
        else:
            small_streak = 0
        factor *= (
            t2
            * q ** (-n)
            * (1.0 - q ** (n + mp.beta))
            / ((1.0 - q ** (n + 1)) * (1.0 + t2 * q ** (-n - 1)))
        )
        n += 1
        if n >= ctx.max_terms:
            raise NonConvergent("dual orthogonality sum exceeded the term budget")
