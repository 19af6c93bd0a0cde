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

Precision rule, for qmeixner, xi, weight and norm_factor: a value is
computed in doubles and returned only where the doubles it rests on are
finite and normal and a sum has lost at most 16 bits to cancellation (sum
of |terms| at most qseries.MAX_CANCELLATION = 2^16 times |sum|).
Otherwise it is computed in 50-digit decimals on the exact values of the
double arguments, and a value above the double range is refused with
OverflowError; one below it rounds toward 0.0 like any double.

Classical (q -> 1) companions live at the bottom of the module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from functools import cached_property
from typing import Callable

from .qseries import (
    _DECIMAL,
    MAX_CANCELLATION,
    QContext,
    q_binomial,
    q_pochhammer,
    ratio_sequence,
)

# the positive normal doubles
_TINY, _HUGE = sys.float_info.min, sys.float_info.max

__all__ = [
    "theta_squared",
    "admissible_c",
    "admissible_beta",
    "classical_c",
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
    "dual_degree_factor",
]

def theta_squared(theta: float) -> float:
    """c = theta^2; ValueError for a theta that is 0, not finite or too small
    to square, OverflowError for one whose square overflows."""
    if theta == 0.0 or not math.isfinite(theta):
        raise ValueError(f"theta must be finite and nonzero, got {theta}")
    c = theta * theta
    if c == 0.0:
        raise ValueError(f"theta {theta} is too small: theta^2 underflows to 0")
    if math.isinf(c):
        raise OverflowError(f"c = theta^2 at theta = {theta}")
    return c


def admissible_c(c: float) -> float:
    """c itself; ValueError unless it is finite and positive."""
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be finite and positive, got {c}")
    return c


def admissible_beta(beta: int) -> int:
    """beta itself; ValueError unless it is a positive integer."""
    if not isinstance(beta, int) or beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta}")
    return beta


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
        if self.beta is not None:
            admissible_beta(self.beta)
        admissible_c(self.c)

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


@dataclass(frozen=True)
class MatrixElementParams:
    """Parameters (theta, beta) of the overlap coefficients xi_{n,x}."""

    theta: float
    beta: int
    ctx: QContext

    def __post_init__(self):
        theta_squared(self.theta)
        admissible_beta(self.beta)

    def meixner_params(self) -> MeixnerParams:
        return MeixnerParams.from_beta(self.beta, self.theta * self.theta, self.ctx)

    @cached_property
    def _pochhammer_decimal(self) -> Callable[[int], Decimal]:
        """k -> (-theta^2; q)_k in decimals on the exact q and theta, held
        with the parameters, so a sum over the lattice builds each prefix
        once; read under _DECIMAL."""
        q, t2 = Decimal(self.ctx.q), Decimal(self.theta) ** 2
        return ratio_sequence(lambda p, k: Decimal(p) * (1 + t2 * q**k))


def qmeixner(n: int, x: int, p: MeixnerParams) -> float:
    """M_n(q^-x; b, c; q), exact terminating evaluation.

    The numerator parameters q^-n and q^-x are exact integer powers of q,
    so the sum stops after min(n, x) + 1 terms (_terminating_2phi1).
    OverflowError where M_n itself exceeds the double range.
    """
    if n < 0 or x < 0:
        raise ValueError("degree n and lattice point x must be >= 0")
    q = p.ctx.q
    try:
        c = p.c_effective
    except OverflowError:  # q^c_shift
        c = math.inf
    if _TINY <= c <= _HUGE:
        try:
            value, magnitude = _terminating_2phi1(
                q, n, x, p.beta, p.b, -(q ** (n + 1)) / c
            )
        except OverflowError:  # q^(k-n) or q^(k-x)
            value = math.inf
        if math.isfinite(value) and magnitude <= MAX_CANCELLATION * abs(value):
            return value
    # c q^c_shift or a factor or term left the double range, or near a zero
    # of M_n the terms cancel and a double sum keeps only ~16 digits of the
    # largest: past 5 lost, decimal
    value = float(_qmeixner_decimal(n, x, p, Decimal(p.c)))
    if math.isinf(value):
        raise OverflowError(f"M_{n}(q^-{x}) exceeds the double range")
    return value


def _terminating_2phi1(
    q: float, n: int, x: int, beta: int | None, b: float | None, z: float
) -> tuple[float, float]:
    """2_phi_1(q^-n, q^-x; bq; q, z) with bq = q^beta (integer beta) or b q,
    in doubles with Neumaier compensation.  Returns (sum, sum of |terms|).

    The numerator parameters are exact powers of q, so the sum has
    min(n, x) + 1 terms; it stops early at a term of 0.0, after which every
    term is 0.0.
    """
    bq = None if b is None else b * q
    total, comp, magnitude, term = 1.0, 0.0, 1.0, 1.0
    for k in range(min(n, x)):
        num = (1.0 - q ** (k - n)) * (1.0 - q ** (k - x))
        den_b = 1.0 - q ** (beta + k) if bq is None else 1.0 - bq * q**k
        term = term * (num / ((1.0 - q ** (k + 1)) * den_b)) * z
        if term == 0.0:
            break
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        magnitude += abs(term)
    return total + comp, magnitude


def _qmeixner_decimal(n: int, x: int, p: MeixnerParams, c: Decimal) -> Decimal:
    """qmeixner's 2_phi_1 in 50-digit decimals, on the exact values of q, bq
    and c q^c_shift (c is p.c, or xi's exact theta^2): room for the
    cancellation of a double sum, and an exponent range no term leaves."""
    with localcontext(_DECIMAL):
        q = Decimal(p.ctx.q)
        bq = q**p.beta if p.beta is not None else Decimal(p.b) * q
        z = -(q ** (n + 1)) / (c * q**p.c_shift)
        qn, qx, qk = q**-n, q**-x, q  # q^(k-n), q^(k-x), q^(k+1); bq q^k
        total = term = Decimal(1)
        for _ in range(min(n, x)):
            term *= (1 - qn) * (1 - qx) * z / ((1 - qk) * (1 - bq))
            total += term
            qn, qx, qk, bq = qn * q, qx * q, qk * q, bq * q
        return total


def weight(x: int, mp: MatrixElementParams) -> float:
    """Orthogonality weight omega_x = xi_{0,x}^2, positive and at most 1.

    In doubles where theta^(2x), q^(C(x,2)) and omega_x are normal: the
    factors [x+beta-1, x]_q and (-theta^2; q)_{x+beta} are at least 1, so a
    partial product that leaves the range takes omega_x out of it too.
    Otherwise in decimal (_weight_decimal).
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    q = mp.ctx.q
    t2 = mp.theta * mp.theta
    try:
        t2x = t2**x
    except OverflowError:
        t2x = math.inf
    qc = q ** (x * (x - 1) // 2)
    if _normal(t2x, qc):
        w = (
            t2x
            * q_binomial(x + mp.beta - 1, x, mp.ctx)
            * qc
            / q_pochhammer(-t2, x + mp.beta, mp.ctx)
        )
        if _normal(w):
            return w
    with localcontext(_DECIMAL):
        return float(_weight_decimal(x, mp))


def norm_factor(n: int, mp: MatrixElementParams) -> float:
    """Squared norm h_n of degree n in the weighted sum over the lattice:

    q^(C(n,2)) theta^(-2n) (q;q)_n (q;q)_{beta-1} (-theta^2 q^-n; q)_n
        / (q;q)_{n+beta-1}.

    Equals 1 at n = 0 for every beta (the weights sum to one).  In doubles
    where _norm_double finds every double it rests on normal, otherwise in
    decimal (_norm_decimal); OverflowError where h_n exceeds the double
    range.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    h = _norm_double(n, mp)
    if h is None:
        with localcontext(_DECIMAL):
            h = float(_norm_decimal(n, mp))
        if math.isinf(h):
            raise OverflowError(f"h_{n} = norm_factor({n}) exceeds the double range")
    return h


def _norm_double(n: int, mp: MatrixElementParams) -> float | None:
    """h_n in doubles; None where q^(C(n,2)), (q;q)_n, (q;q)_{n+beta-1}, a
    partial product or h_n is not a normal double.  Those factors are at
    most 1, and the products they enter grow again by theta^(-2n) and
    (-theta^2 q^-n; q)_n, so a value that left the range would not show."""
    ctx = mp.ctx
    q = ctx.q
    t2 = mp.theta * mp.theta
    qc, qq, top = (
        q ** (n * (n - 1) // 2),
        q_pochhammer(q, n, ctx),
        q_pochhammer(q, n + mp.beta - 1, ctx),
    )
    try:
        head = qc * t2 ** (-n)
        poch = q_pochhammer(-t2 * q ** (-n), n, ctx)
    except OverflowError:  # theta^(-2n) or q^-n
        return None
    mid = head * qq
    if not _normal(qc, qq, top, head, mid):
        return None
    h = mid * poch / (top / q_pochhammer(q, mp.beta - 1, ctx))
    return h if _normal(h) else None


def _normal(*values: float) -> bool:
    """Whether every value is a positive, finite, normal double."""
    return all(_TINY <= v <= _HUGE for v in values)


def _binom_decimal(m: int, beta: int, q: Decimal) -> Decimal:
    """[m + beta - 1, m]_q = [m + beta - 1, beta - 1]_q in the caller's
    decimal context."""
    return math.prod((1 - q ** (m + i)) / (1 - q**i) for i in range(1, beta))


def _weight_decimal(x: int, mp: MatrixElementParams) -> Decimal:
    """omega_x in the caller's decimal context on the exact q and theta."""
    q, t2 = Decimal(mp.ctx.q), Decimal(mp.theta) ** 2
    poch = mp._pochhammer_decimal(x + mp.beta)
    return t2**x * _binom_decimal(x, mp.beta, q) * q ** (x * (x - 1) // 2) / poch


def _norm_decimal(n: int, mp: MatrixElementParams) -> Decimal:
    """h_n in the caller's decimal context on the exact q and theta."""
    q, t2 = Decimal(mp.ctx.q), Decimal(mp.theta) ** 2
    poch = math.prod(1 + t2 * q ** (k - n) for k in range(n))
    return q ** (n * (n - 1) // 2) * poch / (t2**n * _binom_decimal(n, mp.beta, q))


def xi(n: int, x: int, mp: MatrixElementParams) -> float:
    """Overlap coefficient xi_{n,x}(theta; beta), real, bounded by 1.

    The naive grouping q^(-C(n,2)) / (-theta^2 q^-n; q)_n overflows for
    large n even though the ratio is tame; factoring theta^2 q^-m out of
    each Pochhammer factor gives the stable equivalent

        q^(-C(n,2)) / (-t2 q^-n; q)_n = q^n t2^-n / prod_{m=1}^{n} (1 + q^m/t2)

    whose theta^-n cancels against the theta^(n+x) prefactor.

    Where the radicand q^(C(x,2)+n) / (...) is not a normal double (at
    q = 0.5, theta = 0.3 from about x = 45 on) or M_n is not finite, the
    cell is evaluated whole in decimal (_xi_decimal).
    """
    if n < 0 or x < 0:
        raise ValueError("n and x must be >= 0")
    ctx = mp.ctx
    q = ctx.q
    theta = mp.theta
    t2 = theta * theta
    prod = 1.0
    for m in range(1, n + 1):
        prod *= 1.0 + q**m / t2
    radicand = q ** (x * (x - 1) // 2 + n) / (
        q_pochhammer(-t2, x + mp.beta, ctx) * prod
    )
    try:
        m_n = qmeixner(n, x, mp.meixner_params())
    except OverflowError:  # and yet |xi| <= 1
        m_n = math.inf
    if not (radicand >= sys.float_info.min and math.isfinite(m_n)):
        return _xi_decimal(n, x, mp)
    sign = (-1.0) ** x * (-1.0 if (theta < 0.0 and (n + x) % 2) else 1.0)
    return (
        sign
        * abs(theta) ** x
        * math.sqrt(q_binomial(n + mp.beta - 1, n, ctx))
        * math.sqrt(q_binomial(x + mp.beta - 1, x, ctx))
        * math.sqrt(radicand)
        * m_n
    )


def _xi_decimal(n: int, x: int, mp: MatrixElementParams) -> float:
    """xi_{n,x} in 50-digit decimals on the exact q and theta, as
    sign * sqrt(omega_x / h_n) * M_n with M_n from _qmeixner_decimal: no
    factor over- or underflows."""
    with localcontext(_DECIMAL):
        theta = Decimal(mp.theta)
        ratio = _weight_decimal(x, mp) / _norm_decimal(n, mp)
        m_n = _qmeixner_decimal(n, x, mp.meixner_params(), theta * theta)
        sign = (-1) ** x * (-1 if theta < 0 and (n + x) % 2 else 1)
        return float(sign * ratio.sqrt() * m_n)


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

    Returns (prefactor, x, n, transformed params); OverflowError where the
    dual theta's square leaves the double range, since the caller's theta is
    admissible and only its transform is not.
    """
    q = mp.ctx.q
    prefactor = q ** ((n - x) / 2.0)
    theta_dual = -mp.theta * q ** ((x - n) / 2.0)
    if not 0.0 < theta_dual * theta_dual < math.inf:
        raise OverflowError(
            f"dual theta {theta_dual!r} = -theta q^((x-n)/2): "
            "its square leaves the double range"
        )
    return prefactor, x, n, MatrixElementParams(theta_dual, mp.beta, mp.ctx)


def classical_meixner(n: int, x: float, beta: float, c: float) -> float:
    """Classical Meixner polynomial

    M_n(x; beta, c) = sum_g (-n)_g (-x)_g / ((beta)_g g!) (1 - 1/c)^g,

    the q -> 1 companion of M_n(q^-x; q^(beta-1), c/(1-c); q).
    OverflowError where the sum exceeds the double range, as for qmeixner.
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
    if not math.isfinite(total):
        raise OverflowError(f"classical M_{n}({x}) exceeds the double range")
    return total


def classical_c(tau: float) -> float:
    """c = tanh^2(tau) of the q -> 1 limit at theta = sinh(tau); ValueError for
    a tau not finite or with c rounding to 1 (or to 0 at tau != 0), OverflowError
    for one whose cosh overflows."""
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    try:
        math.cosh(tau)  # the limit's cosh(tau)^-beta
    except OverflowError:
        raise OverflowError(f"cosh(tau) at tau = {tau}") from None
    th = math.tanh(tau)
    c = th * th
    if (c == 0.0 and tau != 0.0) or c == 1.0:
        size, rounding = ("large", "rounds to 1") if c else ("small", "underflows to 0")
        raise ValueError(f"tau {tau} is too {size}: tanh(tau)^2 {rounding}")
    return c


def classical_xi_limit(n: int, x: int, beta: int, tau: float) -> float:
    """q -> 1 limit of xi_{n,x} at theta = sinh(tau), with c = classical_c(tau):

    (-1)^x C(n+beta-1, n)^(1/2) C(x+beta-1, x)^(1/2)
        * tanh(tau)^(x+n) * cosh(tau)^-beta * M_n(x; beta, c).
    """
    if n < 0 or x < 0:
        raise ValueError("n and x must be >= 0")
    admissible_beta(beta)
    c = classical_c(tau)
    if tau == 0.0:
        # the rotation degenerates to the identity
        return 1.0 if n == x else 0.0
    return (
        (-1.0) ** x
        * math.sqrt(math.comb(n + beta - 1, n) * math.comb(x + beta - 1, x))
        * math.tanh(tau) ** (x + n)
        * math.cosh(tau) ** (-beta)
        * classical_meixner(n, x, beta, c)
    )


def dual_degree_factor(t2: float, beta: int, q: float) -> Callable[[int], float]:
    """n -> theta^(2n) q^(-C(n,2)) [n+beta-1, n]_q / (-theta^2 q^-n; q)_n,
    the degree weight of the dual orthogonality sum, by its stable term
    ratio (t2 = theta^2)."""
    return ratio_sequence(
        lambda f, k: f
        * t2
        * q ** (-k)
        * (1.0 - q ** (k + beta))
        / ((1.0 - q ** (k + 1)) * (1.0 + t2 * q ** (-k - 1)))
    )

