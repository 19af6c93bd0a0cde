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

Precision rule, for qmeixner, xi, weight and norm_factor: each value has
one body, a formula written once for either scalar type, float or Decimal,
and one dispatcher, _precision_rule, runs it.  The value computed in
doubles is returned only where the doubles it rests on are finite and
normal and a sum has lost at most 16 bits to cancellation (sum of |terms|
at most qseries.MAX_CANCELLATION = 2^16 times |sum|).  Otherwise the same
body runs in 50-digit decimals on the exact values of the double
arguments, and a value above the double range is refused with
OverflowError; one below it rounds toward 0.0 like any double.

Classical (q -> 1) companions live at the bottom of the module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from functools import cached_property
from typing import Callable

from .qseries import (
    MAX_CANCELLATION,
    QContext,
    _binomial,
    _pochhammer,
    _retake,
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
    def _prefixes(self) -> dict:
        """Scalar type -> k -> (-theta^2; q)_k in that type, held with the
        parameters, so a sum over the lattice builds each prefix once."""
        return {}


def _precision_rule(
    body: Callable[..., tuple], args: tuple, holds: Callable, what: Callable[[], str]
) -> float:
    """The precision rule of the module docstring, applied in this one place.

    body(*args) is one formula for float and Decimal (qseries._retake)
    that returns its value, then the doubles holds(*result) judges.  Where
    holds refuses a double result, or a double overflowed or divided by an
    underflowed 0, the body runs again on the exact decimals of args, and a
    value beyond the double range is refused with OverflowError naming
    what().  Inside a decimal run (a Decimal args[0]) the body just runs.
    """
    if isinstance(args[0], Decimal):
        return body(*args)[0]
    try:
        result = body(*args)
        if holds(*result):
            return result[0]
    except (OverflowError, ZeroDivisionError):  # a double left the range
        pass
    value = _retake(body, *args)
    if math.isinf(value):
        raise OverflowError(f"{what()} exceeds the double range")
    return value


def _normal(*values: float) -> bool:
    """Whether every value is a positive, finite, normal double."""
    return all(_TINY <= v <= _HUGE for v in values)


def qmeixner(n: int, x: int, p: MeixnerParams) -> float:
    """M_n(q^-x; b, c; q), exact terminating evaluation.

    The numerator parameters q^-n and q^-x are exact integer powers of q,
    so the sum stops after min(n, x) + 1 terms (_terminating_2phi1).
    OverflowError where M_n itself exceeds the double range.
    """
    if n < 0 or x < 0:
        raise ValueError("degree n and lattice point x must be >= 0")
    return _qmeixner(p.ctx.q, p.c, p.b, n, x, p.beta, p.c_shift)


def _qmeixner(q, c, b, n: int, x: int, beta: int | None, c_shift: int):
    """M_n(q^-x; b, c q^c_shift; q) by the precision rule, with b = q^(beta-1)
    where b is None; in the scalar type of q."""
    return _precision_rule(
        _terminating_2phi1, (q, c, b, n, x, beta, c_shift), _summed,
        lambda: f"M_{n}(q^-{x})",
    )


def _terminating_2phi1(q, c, b, n: int, x: int, beta: int | None, c_shift: int):
    """2_phi_1(q^-n, q^-x; bq; q, z) at z = -q^(n+1) / (c q^c_shift), with
    bq = q^beta (integer beta) or b q, with Neumaier compensation, in the
    scalar type of q (float or Decimal).  Returns (sum, sum of |terms|,
    c q^c_shift).

    The numerator parameters are exact powers of q, so the sum has
    min(n, x) + 1 terms; it stops early at a term of 0, after which every
    term is 0.
    """
    one = q**0
    c = c * q**c_shift
    z = -(q ** (n + 1)) / c
    bq = None if b is None else b * q
    total, comp, magnitude, term = one, one - one, one, one
    for k in range(min(n, x)):
        num = (one - q ** (k - n)) * (one - q ** (k - x))
        den_b = one - q ** (beta + k) if bq is None else one - bq * q**k
        term = term * (num / ((one - q ** (k + 1)) * den_b)) * z
        if not term:
            break
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        magnitude += abs(term)
    return total + comp, magnitude, c


def _summed(value: float, magnitude: float, c: float) -> bool:
    """Whether a double M_n holds: c q^c_shift is a normal double, and the
    sum is finite and lost at most 16 bits to cancellation.  Near a zero of
    M_n the terms cancel, and a double sum keeps only ~16 digits of the
    largest."""
    return (
        _TINY <= c <= _HUGE
        and math.isfinite(value)
        and magnitude <= MAX_CANCELLATION * abs(value)
    )


def weight(x: int, mp: MatrixElementParams) -> float:
    """Orthogonality weight omega_x = xi_{0,x}^2, positive and at most 1.

    Its doubles hold where theta^(2x), q^(C(x,2)) and omega_x are normal:
    the factors [x+beta-1, x]_q and (-theta^2; q)_{x+beta} are at least 1, so
    a partial product that leaves the range takes omega_x out of it too.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    return _precision_rule(
        _weight, (mp.ctx.q, mp.theta, x, mp.beta, mp._prefixes), _normal,
        lambda: f"omega_{x}",
    )


def _prefix(prefixes: dict, q, t2) -> Callable[[int], object]:
    """k -> (-t2; q)_k in the scalar type of q, from prefixes, the
    MatrixElementParams' dict, where it is built on the first request."""
    prefix = prefixes.get(type(q))
    if prefix is None:
        prefix = prefixes[type(q)] = _pochhammer(-t2, q)
    return prefix


def _weight(q, theta, x: int, beta: int, prefixes: dict):
    """(omega_x, theta^(2x), q^(C(x,2))) in the scalar type of q."""
    t2 = theta * theta
    t2x = t2**x
    qc = q ** (x * (x - 1) // 2)
    poch = _prefix(prefixes, q, t2)(x + beta)
    w = t2x * _binomial(x + beta - 1, x, q) * qc / poch
    return w, t2x, qc


def norm_factor(n: int, mp: MatrixElementParams) -> float:
    """Squared norm h_n of degree n in the weighted sum over the lattice:

    q^(C(n,2)) theta^(-2n) (q;q)_n (q;q)_{beta-1} (-theta^2 q^-n; q)_n
        / (q;q)_{n+beta-1}.

    Equals 1 at n = 0 for every beta (the weights sum to one).  Its doubles
    hold where h_n and every double it rests on (_norm) are normal;
    OverflowError where h_n exceeds the double range.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _precision_rule(
        _norm, (mp.ctx.q, mp.theta, n, mp.beta), _normal,
        lambda: f"h_{n} = norm_factor({n})",
    )


def _norm(q, theta, n: int, beta: int):
    """(h_n, q^(C(n,2)), (q;q)_n, (q;q)_{n+beta-1}, and the partial products
    q^(C(n,2)) theta^(-2n) and that times (q;q)_n) in the scalar type of q.
    The factors are at most 1, and the products they enter grow again by
    theta^(-2n) and (-theta^2 q^-n; q)_n, so a double that left the range
    would not show in h_n."""
    t2 = theta * theta
    qc = q ** (n * (n - 1) // 2)
    q_q = _pochhammer(q, q)
    qq, top = q_q(n), q_q(n + beta - 1)
    head = qc * t2 ** (-n)
    poch = _pochhammer(-t2 * q ** (-n), q)(n)
    mid = head * qq
    h = mid * poch / (top / q_q(beta - 1))
    return h, qc, qq, top, head, mid


def xi(n: int, x: int, mp: MatrixElementParams) -> float:
    """Overlap coefficient xi_{n,x}(theta; beta), real, bounded by 1.

    The naive grouping q^(-C(n,2)) / (-theta^2 q^-n; q)_n overflows for
    large n even though the ratio is tame; factoring theta^2 q^-m out of
    each Pochhammer factor gives the stable equivalent

        q^(-C(n,2)) / (-t2 q^-n; q)_n = q^n t2^-n / prod_{m=1}^{n} (1 + q^m/t2)

    whose theta^-n cancels against the theta^(n+x) prefactor.

    Its doubles hold where the radicand q^(C(x,2)+n) / (...), at most 1, is
    a normal double (it is not at q = 0.5, theta = 0.3 from about x = 45 on)
    and M_n is finite.
    """
    if n < 0 or x < 0:
        raise ValueError("n and x must be >= 0")
    return _precision_rule(
        _xi, (mp.ctx.q, mp.theta, n, x, mp.beta, mp._prefixes),
        lambda value, radicand, m_n: radicand >= _TINY and math.isfinite(m_n),
        lambda: f"xi_{n},{x}",
    )


def _xi(q, theta, n: int, x: int, beta: int, prefixes: dict):
    """(xi_{n,x}, its radicand, M_n) in the scalar type of q; M_n takes the
    precision rule of its own on doubles, at c = theta^2, and is not summed
    (NaN, with the value) where the double radicand is not normal."""
    one = q**0
    t2 = theta * theta
    prod = one
    for m in range(1, n + 1):
        prod *= one + q**m / t2
    poch = _prefix(prefixes, q, t2)(x + beta)
    radicand = q ** (x * (x - 1) // 2 + n) / (poch * prod)
    if not isinstance(q, Decimal) and not radicand >= _TINY:
        # the radicand alone refuses the doubles, so M_n is left to the
        # decimal re-take rather than summed here first
        return math.nan, radicand, math.nan
    m_n = _qmeixner(q, t2, None, n, x, beta, 0)
    sign = (-1) ** x * (-1 if (theta < 0 and (n + x) % 2) else 1)
    value = (
        sign
        * abs(theta) ** x
        * _sqrt(_binomial(n + beta - 1, n, q))
        * _sqrt(_binomial(x + beta - 1, x, q))
        * _sqrt(radicand)
        * m_n
    )
    return value, radicand, m_n


def _sqrt(v):
    """The square root in the scalar type of v: math.sqrt would round a
    Decimal to a double without a word."""
    return v.sqrt() if isinstance(v, Decimal) else math.sqrt(v)


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
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and positive, got {beta}")
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

