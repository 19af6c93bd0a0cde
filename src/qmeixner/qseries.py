"""Scalar q-series primitives.

Conventions (0 < q < 1 throughout):

    (a; q)_n   = prod_{k=0}^{n-1} (1 - a q^k),          (a; q)_0 = 1
    (a; q)_oo  = prod_{k>=0}    (1 - a q^k)
    [n, k]_q   = (q;q)_n / ((q;q)_k (q;q)_{n-k})
    e_q(z)     = 1 / (z; q)_oo        (little q-exponential)
    E_q(z)     = (-z; q)_oo           (big q-exponential, entire)

and the basic hypergeometric series

    r_phi_s(a_1..a_r; b_1..b_s; q, z)
        = sum_n  (a_1;q)_n ... (a_r;q)_n / ((q;q)_n (b_1;q)_n ... (b_s;q)_n)
                 * [(-1)^n q^(n(n-1)/2)]^(1+s-r) * z^n.

Exact termination is only recognised when a numerator parameter is passed
as a `QPower`, i.e. as an integer exponent of the base.  Float parameters
are never pattern-matched against powers of q, so a float that merely
happens to be close to q^-N follows the ordinary convergence policy.

Truncation policy, one fixed choice for every infinite product and sum of
the package (the matrix series of pseudorotation included):

    TAIL_CUTOFF  ends an infinite product once its next factor differs
                 from 1 by less than this
    TAIL_STREAK  ends an infinite sum after this many (3) consecutive
                 terms, each at most TAIL_CUTOFF times the largest term so
                 far; a matrix term is measured by its Frobenius norm
    POLE_TOL     refuses, with PoleHit, a product about to be inverted
                 whose factor lies this close to zero
    MAX_TERMS    refuses, with NonConvergent, a product or sum still
                 running after this many factors or terms

A sum is refused, with NonConvergent, at its first term that is not finite
(for a matrix term, whose norm is not).

A product (q_pochhammer, q_pochhammer_inf) that is neither a normal double
nor exactly 0 is taken again in 50-digit decimals on its exact arguments
(_retake), and refused with OverflowError beyond the double range.

MAX_CANCELLATION (2^16) is the precision rule of the meixner module
docstring, which states it once: a non-terminating basic_hypergeometric
whose sum of |terms| exceeds this times |sum| has lost more than 16 bits
to cancellation and is refused with NonConvergent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from typing import Callable, Sequence, Union

from .errors import NonConvergent, PoleHit

__all__ = [
    "QContext",
    "SeriesValue",
    "QPower",
    "CompensatedSum",
    "q_pochhammer",
    "q_pochhammer_inf",
    "q_binomial",
    "little_qexp",
    "big_qexp",
    "basic_hypergeometric",
    "ratio_sequence",
    "adaptive_sum",
    "TAIL_CUTOFF",
    "TAIL_STREAK",
    "POLE_TOL",
    "MAX_TERMS",
    "MAX_CANCELLATION",
]

TAIL_CUTOFF = 1e-18
TAIL_STREAK = 3
POLE_TOL = 1e-12
MAX_TERMS = 10_000
MAX_CANCELLATION = 2.0**16

# the package's one decimal context: 50 digits and an exponent range that no
# value of the package leaves, for the fallbacks of the precision rule
_DECIMAL = Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _retake(body: Callable[..., tuple], *args) -> float:
    """body(*args)[0] in _DECIMAL on the exact Decimal of each float argument,
    rounded to a double (inf above the double range).  A body is one formula
    for float and Decimal: it uses only + - * / **, abs, comparisons,
    integer signs and its scalar's one, q**0, so a stray double among the
    decimals raises TypeError."""
    with localcontext(_DECIMAL):
        exact = [Decimal(a) if isinstance(a, float) else a for a in args]
        return float(body(*exact)[0])


@dataclass(frozen=True)
class QContext:
    """Evaluation context: the base q, strictly inside (0, 1).

    The interval test is written so that NaN fails it.
    """

    q: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie strictly inside (0, 1), got {self.q}")


@dataclass(frozen=True)
class SeriesValue:
    """A numerically evaluated sum or product with truncation bookkeeping."""

    value: float
    terms_used: int
    tail_estimate: float
    magnitude: float = 0.0  # a series' sum of |terms|, its rounding-error scale


@dataclass(frozen=True)
class QPower:
    """Marker for a parameter that equals q**exponent exactly.

    Passing QPower(-n) as a numerator parameter makes the series terminate
    after n + 1 terms with the final factor evaluated exactly to zero.
    """

    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int):
            raise TypeError("QPower exponent must be an integer")


Param = Union[float, QPower]


class CompensatedSum:
    """Neumaier compensated accumulator: the running error of the plain
    floating-point sum is carried in a second word and folded back in
    `total`, so the result is accurate to ~1 ulp of the true sum."""

    __slots__ = ("_sum", "_comp")

    def __init__(self):
        self._sum = 0.0
        self._comp = 0.0

    def add(self, value: float) -> None:
        t = self._sum + value
        if abs(self._sum) >= abs(value):
            self._comp += (self._sum - t) + value
        else:
            self._comp += (value - t) + self._sum
        self._sum = t

    @property
    def total(self) -> float:
        return self._sum + self._comp


def _factor(p: Param, q: float, k: int) -> float:
    """One Pochhammer factor 1 - p q^k, exact for QPower parameters."""
    if isinstance(p, QPower):
        return 1.0 - q ** (p.exponent + k)
    return 1.0 - p * q ** k


def q_pochhammer(a: float, n: int, ctx: QContext) -> float:
    """Finite product (a; q)_n, re-taken or refused by the module's rule for
    products; ValueError for an a that is not finite."""
    if not math.isfinite(a):
        raise ValueError(f"(a; q)_n requires a finite a, got {a}")
    if n < 0:
        raise ValueError("q_pochhammer order n must be >= 0")
    q = ctx.q
    prod = _pochhammer(a, q)(n)
    if prod != 0.0 and not sys.float_info.min <= abs(prod) <= sys.float_info.max:
        prod = _retake(lambda a, q: (_pochhammer(a, q)(n),), a, q)
        if math.isinf(prod):
            raise OverflowError(f"(a; q)_n at a = {a}, n = {n}, q = {q} exceeds the double range")
    return prod


def _pochhammer(a, q) -> Callable[[int], object]:
    """n -> (a; q)_n in the scalar type of q (float or Decimal): the running
    product of the factors 1 - a q^k, a ratio_sequence from one = q**0."""
    one = q**0
    return ratio_sequence(lambda prod, k: prod * (one - a * q**k), one)


def q_pochhammer_inf(a: float, ctx: QContext, reciprocal: bool = False) -> SeriesValue:
    """Infinite product (a; q)_oo, truncated when |a q^k| < TAIL_CUTOFF.

    The tail estimate bounds the error from dropped factors:
    |log prod_{k>=K} (1 - a q^k)| <= |a q^K| / (1 - q) to first order.

    A product that is not a normal double is re-taken or refused by the
    module's rule for products.  With reciprocal=True the caller intends
    to divide by the result: a factor vanishing within POLE_TOL raises
    PoleHit, and a product beyond the range is returned as inf, whose
    reciprocal rounds to 0 like any double below the range.  An a that is
    not finite is refused with ValueError.
    """
    if not math.isfinite(a):
        raise ValueError(f"(a; q)_oo requires a finite a, got {a}")
    q = ctx.q
    prod, term, k = _pochhammer_inf(a, q, reciprocal)
    if prod != 0.0 and not sys.float_info.min <= abs(prod) <= sys.float_info.max:
        prod = _retake(_pochhammer_inf, a, q, reciprocal)
        if math.isinf(prod) and not reciprocal:
            raise OverflowError(f"(a; q)_oo at a = {a}, q = {q} exceeds the double range")
    tail = abs(prod) * abs(term) / (1.0 - q)
    return SeriesValue(prod, k, tail)


def _pochhammer_inf(a, q, reciprocal: bool) -> tuple:
    """The factor loop of q_pochhammer_inf in the scalar type of q (float or
    Decimal): (product, first dropped a q^k, factors taken)."""
    one = q**0
    prod, term, k = one, a, 0
    while abs(term) >= TAIL_CUTOFF:
        f = one - term
        if reciprocal and abs(f) < POLE_TOL:
            raise PoleHit(f"(a; q)_oo factor vanished at k={k} for a={a}")
        prod *= f
        term *= q
        k += 1
        if k >= MAX_TERMS:
            raise NonConvergent(
                f"(a; q)_oo did not reach tail cutoff within {MAX_TERMS} factors"
            )
    return prod, term, k


def q_binomial(n: int, k: int, ctx: QContext) -> float:
    """Gaussian binomial [n, k]_q by the stable product form.

    Computed as prod_{i=1}^{k} (1 - q^{n-k+i}) / (1 - q^i) with k replaced
    by min(k, n - k) first, so [n, k]_q == [n, n-k]_q follows the same
    product path and the symmetry holds exactly.  Every factor exceeds 1,
    so an inf product is a true overflow, refused with OverflowError.
    ValueError for n < 0; a k outside [0, n] gives 0.
    """
    if n < 0:
        raise ValueError("q_binomial n must be >= 0")
    if k < 0 or k > n:
        return 0.0
    prod = _binomial(n, k, ctx.q)
    if math.isinf(prod):
        raise OverflowError(f"[n, k]_q at n = {n}, k = {k}, q = {ctx.q} exceeds the double range")
    return prod


def _binomial(n: int, k: int, q):
    """[n, k]_q for 0 <= k <= n, in the scalar type of q (float or Decimal)."""
    one = q**0
    k = min(k, n - k)
    prod = one
    for i in range(1, k + 1):
        prod *= (one - q ** (n - k + i)) / (one - q**i)
    return prod


def little_qexp(z: float, ctx: QContext) -> SeriesValue:
    """e_q(z) = 1 / (z; q)_oo, evaluated from the product form.

    Defined for any z off the pole set {q^-m : m >= 0}; arguments of any
    magnitude with z < 1 are safe.  For |z| < 1 the product equals the
    series sum_n z^n / (q; q)_n.
    """
    pinf = q_pochhammer_inf(z, ctx, reciprocal=True)
    value = 1.0 / pinf.value
    # d(1/p) = dp / p^2; a product beyond the range (value 0) leaves no tail
    tail = pinf.tail_estimate * value * value if value else 0.0
    return SeriesValue(value, pinf.terms_used, tail)


def big_qexp(z: float, ctx: QContext) -> SeriesValue:
    """E_q(z) = (-z; q)_oo, entire in z; satisfies e_q(z) E_q(-z) = 1."""
    return q_pochhammer_inf(-z, ctx)


def basic_hypergeometric(
    numerators: Sequence[Param],
    denominators: Sequence[Param],
    z: float,
    ctx: QContext,
) -> SeriesValue:
    """Evaluate r_phi_s(numerators; denominators; q, z).

    Termination: the smallest N with QPower(-N) among the numerators caps
    the sum at N + 1 exactly computed terms (tail_estimate 0).  Without such
    a marker the series must converge: any z when r <= s, |z| < 1 when
    r == s + 1, otherwise NonConvergent, and it ends by the tail rule, its
    tail_estimate the geometric bound of the last term ratio; NonConvergent
    too where it lost more than 16 bits to cancellation.  A denominator
    factor of exactly 0 raises PoleHit.  Terms are accumulated in
    increasing order with compensated summation.
    """
    q = ctx.q
    r = len(numerators)
    s = len(denominators)
    p = 1 + s - r
    ends = [-a.exponent for a in numerators if isinstance(a, QPower) and a.exponent <= 0]
    terminate_at = min(ends, default=None)

    if terminate_at is None:
        if r > s + 1:
            raise NonConvergent(
                f"{r}_phi_{s} with no terminating numerator parameter diverges"
            )
        if r == s + 1 and abs(z) >= 1.0:
            raise NonConvergent(
                f"{r}_phi_{s} requires |z| < 1 without termination, got {z}"
            )

    sign_p = -1.0 if p % 2 else 1.0

    def step(term: float, n: int) -> float:
        num = 1.0
        for a in numerators:
            num *= _factor(a, q, n)
        den = 1.0 - q ** (n + 1)
        for b in denominators:
            f = _factor(b, q, n)
            if f == 0.0:
                raise PoleHit(f"denominator parameter hit a pole at term {n + 1}")
            den *= f
        extra = sign_p * q ** (n * p) if p != 0 else 1.0
        return term * (num / den) * z * extra

    term = ratio_sequence(step)
    label = f"{r}_phi_{s} series"
    if terminate_at is None:
        total, used = adaptive_sum(term, label)
        prev, last = abs(term(used - 2)), abs(term(used - 1))
        ratio = last / prev if prev else 0.0
        if ratio >= 1.0:
            raise NonConvergent(f"series terms stopped decreasing (ratio {ratio:.3g})")
        tail = last * ratio / (1.0 - ratio)
    else:
        acc = CompensatedSum()
        used = 0
        while used <= terminate_at:
            t = term(used)
            if t == 0.0:  # a numerator factor vanished: the sum ends early
                break
            if used == MAX_TERMS:
                raise NonConvergent(f"{label} exceeded the term budget")
            if not math.isfinite(t):
                raise NonConvergent(f"{label} term {used} is not finite")
            acc.add(t)
            used += 1
        total, tail = acc.total, 0.0
    magnitude = sum(abs(term(k)) for k in range(used))
    if terminate_at is None and magnitude > MAX_CANCELLATION * abs(total):
        raise NonConvergent(f"{label} lost more than 16 bits to cancellation")
    return SeriesValue(total, used, tail, magnitude)


def ratio_sequence(
    step: Callable[[float, int], float], start: float = 1.0
) -> Callable[[int], float]:
    """Memoised sequence s(0) = start, s(k + 1) = step(s(k), k), each term
    computed once, on first request.

    Carries a series coefficient by its term ratio instead of by the
    products it stands for, which stay tame while their factors do not.  A
    running product in Decimal starts from its scalar's one (_pochhammer).
    """
    values = [start]

    def at(n: int) -> float:
        while n >= len(values):
            values.append(step(values[-1], len(values) - 1))
        return values[n]

    return at


def adaptive_sum(term_of: Callable[[int], float], label: str) -> tuple[float, int]:
    """Sum term_of(k) for k = 0, 1, ... with compensated summation until the
    tail rule ends it.  Returns (sum, terms_used); NonConvergent at the
    first term that is not finite, and past MAX_TERMS.

    The tail streak starts at the first nonzero term: leading terms of 0.0
    (terms that underflow ahead of the sum's bulk), measured against a
    largest term of 0, would count as a tail and end the sum before it began.
    """
    acc = CompensatedSum()
    largest = 0.0
    streak = 0
    for k in range(MAX_TERMS):
        t = term_of(k)
        if not math.isfinite(t):
            raise NonConvergent(f"{label} term {k} is not finite")
        acc.add(t)
        size = abs(t)
        if size > largest:
            largest = size
        # no tail before the first nonzero term
        streak = streak + 1 if size <= TAIL_CUTOFF * largest and largest else 0
        if streak >= TAIL_STREAK:
            return acc.total, k + 1
    raise NonConvergent(f"{label} exceeded the term budget")
