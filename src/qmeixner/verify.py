"""Relation registry and residual engine.

Every polynomial-level identity of the family (structure relations, their
duals, orthogonality in degree and variable, duality, generating functions,
q -> 1 limits) is addressable by a RelationId and checkable over a parameter
grid.  check() evaluates both sides verbatim through the meixner/qseries
operations, never through rearranged formulas, and reports per-point
absolute and relative residuals.

Residual normalization is |LHS - RHS| / max(|LHS|, |RHS|, 1), which stays
defined when an identity passes through zero (e.g. coefficients vanishing at
n = 0).  The two orthogonality relations instead normalize by the natural
norm scale, sqrt(norm_factor(n) norm_factor(n')) respectively
1/sqrt(omega_x omega_x'): their off-diagonal sums cancel catastrophically,
so the meaningful error is relative to the diagonal scale, not to the
cancelled remainder.

The two LIMIT relations are judged differently: the identity is a limit
statement, so each grid point is checked for strictly decreasing error
against the classical value over q = 1 - 10^-k, k = 2, 3, 4 (rows whose
error is already below 1e-13 everywhere count as converged).

Grid points violating a relation's domain (the complementary relations need
beta >= 2, the variable generating function converges only for z < q^n) are
reported as skipped, not failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from .errors import EmptyGrid, NonConvergent
from .meixner import (
    MatrixElementParams,
    MeixnerParams,
    classical_meixner,
    classical_xi_limit,
    duality_transform,
    norm_factor,
    qmeixner,
    weight,
    xi,
    xi_dual,
)
from .qseries import (
    CompensatedSum,
    QContext,
    QPower,
    basic_hypergeometric,
    big_qexp,
    little_qexp,
    q_pochhammer,
)

__all__ = [
    "RelationId",
    "GridPoint",
    "RelationReport",
    "IDENTITY_RELATIONS",
    "LIMIT_RELATIONS",
    "default_grid",
    "check",
    "check_all",
]


class RelationId(str, Enum):
    BACKWARD = "backward"
    FORWARD = "forward"
    DIFFERENCE = "difference"
    COMP_BACKWARD = "comp_backward"
    COMP_FORWARD = "comp_forward"
    RECURRENCE = "recurrence"
    ORTHO_DEGREE = "ortho_degree"
    ORTHO_VARIABLE = "ortho_variable"
    DUALITY = "duality"
    DUALITY_XI = "duality_xi"
    DUAL_BACKWARD = "dual_backward"
    DUAL_FORWARD = "dual_forward"
    DUAL_DIFFERENCE = "dual_difference"
    DUAL_COMP_BACKWARD = "dual_comp_backward"
    DUAL_COMP_FORWARD = "dual_comp_forward"
    DUAL_RECURRENCE = "dual_recurrence"
    GENFUN_DEGREE = "genfun_degree"
    GENFUN_VARIABLE = "genfun_variable"
    LIMIT_POLY = "limit_poly"
    LIMIT_XI = "limit_xi"

    def __str__(self) -> str:  # argparse-friendly
        return self.value


class GridPoint(NamedTuple):
    """One parameter tuple.  For pointwise relations all of (q, beta, theta,
    n, x) are set; generating functions carry z in aux; the limit relations
    carry tau (LIMIT_XI) or classical c (LIMIT_POLY) in aux with q/theta
    unused (the q sequence is fixed to 1 - 10^-k, k = 2, 3, 4)."""

    q: float | None
    beta: int
    theta: float | None
    n: int
    x: int
    aux: float | None = None


@dataclass
class RelationReport:
    """Residuals of one relation over one grid.

    residuals[i] = (absolute, relative) for grid[i].  For the LIMIT
    relations 'relative' holds the tightest-grid (k = 4) error and passing
    is decided by monotone decrease, not by tol.
    """

    relation: RelationId
    tol: float
    grid: list[GridPoint] = field(default_factory=list)
    residuals: list[tuple[float, float]] = field(default_factory=list)
    skipped: list[GridPoint] = field(default_factory=list)
    failures: list[GridPoint] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        if not self.residuals:
            return 0.0
        return max(rel for _, rel in self.residuals)

    @property
    def passed(self) -> bool:
        return bool(self.grid) and not self.failures


# ---------------------------------------------------------------------------
# shared evaluation cache

class _Cache:
    """Memoizes polynomial values, weights, and norms across grid points.

    The structure relations revisit the same (n, x) under shifted parameters
    and the orthogonality sums revisit the same lattice values for every
    degree pair, so caching turns the default grid from minutes into
    seconds.  c_shift is the integer k of an exact c = theta^2 q^k.
    """

    __slots__ = ("_ctx", "_m", "_w", "_nf")

    def __init__(self) -> None:
        self._ctx: dict[float, QContext] = {}
        self._m: dict[tuple, float] = {}
        self._w: dict[tuple, float] = {}
        self._nf: dict[tuple, float] = {}

    def context(self, q: float) -> QContext:
        if q not in self._ctx:
            self._ctx[q] = QContext(q=q)
        return self._ctx[q]

    def meixner(
        self, q: float, theta: float, beta: int, shift: int, n: int, x: int
    ) -> float:
        key = (q, theta, beta, shift, n, x)
        if key not in self._m:
            p = MeixnerParams.from_beta(
                beta, theta * theta, self.context(q), c_shift=shift
            )
            self._m[key] = qmeixner(n, x, p)
        return self._m[key]

    def weight(self, q: float, theta: float, beta: int, x: int) -> float:
        key = (q, theta, beta, x)
        if key not in self._w:
            mp = MatrixElementParams(theta, beta, self.context(q))
            self._w[key] = weight(x, mp)
        return self._w[key]

    def norm(self, q: float, theta: float, beta: int, n: int) -> float:
        key = (q, theta, beta, n)
        if key not in self._nf:
            mp = MatrixElementParams(theta, beta, self.context(q))
            self._nf[key] = norm_factor(n, mp)
        return self._nf[key]


# ---------------------------------------------------------------------------
# pointwise structure relations
#
# Terms whose coefficient contains a vanishing factor (1 - q^0) are skipped
# outright so M is never requested at n = -1 or x = -1.

def _eval_backward(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    lhs = t2 * (1.0 - q**b) * m(n + 1, x, b, 0)
    rhs = t2 * (1.0 - q ** (x + b)) * m(n, x, b + 1, -1)
    if x > 0:
        rhs += (
            q
            * (1.0 - q ** (-x))
            * (1.0 + t2 * q ** (x + b - 1))
            * m(n, x - 1, b + 1, -1)
        )
    return lhs, rhs, None


def _eval_forward(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    lhs = 0.0
    if n > 0:
        lhs = (1.0 - q**n) / (t2 * q**x * (1.0 - q**b)) * m(n - 1, x, b + 1, -1)
    rhs = m(n, x, b, 0) - m(n, x + 1, b, 0)
    return lhs, rhs, None


def _eval_difference(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    up = (1.0 - q**x) * (1.0 + t2 * q ** (x + b - 1))
    down = t2 * q**x * (1.0 - q ** (x + b))
    lhs = (1.0 - q**n) * m(n, x, b, 0)
    rhs = -down * m(n, x + 1, b, 0) + (up + down) * m(n, x, b, 0)
    if x > 0:
        rhs -= up * m(n, x - 1, b, 0)
    return lhs, rhs, None


def _eval_comp_backward(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    lhs = 0.0
    if x > 0:
        lhs = (
            (q ** (n + 1) / t2)
            * (1.0 - q ** (-x))
            / (1.0 - q ** (b - 1))
            * m(n, x - 1, b, 0)
        )
    rhs = m(n + 1, x, b - 1, 0) - m(n, x, b - 1, 0)
    return lhs, rhs, None


def _eval_comp_forward(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    lhs = t2 * q**n * (1.0 - q**b) * m(n, x + 1, b, 0)
    rhs = t2 * (1.0 - q ** (n + b)) * m(n, x, b + 1, 0)
    if n > 0:
        rhs -= (q**n + t2) * (1.0 - q**n) * m(n - 1, x, b + 1, 0)
    return lhs, rhs, None


def _eval_recurrence(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    lo = q * (1.0 - q**n) * (q**n + t2)
    hi = t2 * (1.0 - q ** (n + b))
    lhs = q ** (2 * n + 1) * (1.0 - q ** (-x)) * m(n, x, b, 0)
    rhs = -(lo + hi) * m(n, x, b, 0) + hi * m(n + 1, x, b, 0)
    if n > 0:
        rhs += lo * m(n - 1, x, b, 0)
    return lhs, rhs, None


# dual structure relations: the degree/variable exchange drags theta^2
# through integer powers of q, carried exactly as c_shift

def _eval_dual_backward(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    lhs = t2 * q ** (x + 1) * (1.0 - q**b) * m(n, x + 1, b, 0)
    rhs = t2 * q ** (x + 1) * (1.0 - q ** (n + b)) * m(n, x, b + 1, 0)
    if n > 0:
        rhs -= (
            q * (1.0 - q**n) * (1.0 + t2 * q ** (x + b)) * m(n - 1, x, b + 1, -1)
        )
    return lhs, rhs, None


def _eval_dual_forward(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    lhs = 0.0
    if x > 0:
        lhs = (1.0 - q ** (-x)) / (t2 * (1.0 - q**b)) * m(n, x - 1, b + 1, 0)
    rhs = m(n + 1, x, b, 1) - m(n, x, b, 0)
    return lhs, rhs, None


def _eval_dual_difference(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    up = (1.0 - q**n) * (1.0 + t2 * q ** (x + b - 1))
    down = t2 * q**x * (1.0 - q ** (n + b))
    lhs = (1.0 - q**x) * m(n, x, b, 0)
    rhs = (up + down) * m(n, x, b, 0) - down * m(n + 1, x, b, 1)
    if n > 0:
        rhs -= up * m(n - 1, x, b, -1)
    return lhs, rhs, None


def _eval_dual_comp_backward(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    lhs = 0.0
    if n > 0:
        lhs = (
            (q / t2)
            * (1.0 - q**n)
            / (1.0 - q ** (b - 1))
            * m(n - 1, x, b, -1)
        )
    rhs = m(n, x, b - 1, 0) - m(n, x + 1, b - 1, -1)
    return lhs, rhs, None


def _eval_dual_comp_forward(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    lhs = t2 * q**x * (1.0 - q**b) * m(n + 1, x, b, 1)
    rhs = t2 * (1.0 - q ** (x + b)) * m(n, x, b + 1, 0)
    if x > 0:
        rhs -= (q**n + t2) * (1.0 - q**x) * m(n, x - 1, b + 1, 1)
    return lhs, rhs, None


def _eval_dual_recurrence(pt: GridPoint, c: _Cache):
    q, b, n, x = pt.q, pt.beta, pt.n, pt.x
    t2 = pt.theta**2

    def m(nn, xx, bb, ss):
        return c.meixner(q, pt.theta, bb, ss, nn, xx)

    lo = q * (1.0 - q**x) * (q**n + t2)
    hi = t2 * (1.0 - q ** (x + b))
    lhs = q ** (x + 1) * (1.0 - q**n) * m(n, x, b, 0)
    rhs = (lo + hi) * m(n, x, b, 0) - hi * m(n, x + 1, b, -1)
    if x > 0:
        rhs -= lo * m(n, x - 1, b, 1)
    return lhs, rhs, None


# ---------------------------------------------------------------------------
# duality, orthogonality, generating functions

def _eval_duality(pt: GridPoint, c: _Cache):
    ctx = c.context(pt.q)
    p = MeixnerParams.from_beta(pt.beta, pt.theta**2, ctx)
    lhs = qmeixner(pt.n, pt.x, p)
    xd, nd, pd = duality_transform(pt.n, pt.x, p)
    rhs = qmeixner(xd, nd, pd)
    return lhs, rhs, None


def _eval_duality_xi(pt: GridPoint, c: _Cache):
    mp = MatrixElementParams(pt.theta, pt.beta, c.context(pt.q))
    lhs = xi(pt.n, pt.x, mp)
    pref, xd, nd, mpd = xi_dual(pt.n, pt.x, mp)
    rhs = pref * xi(xd, nd, mpd)
    return lhs, rhs, None


def _adaptive_sum(term_of, ctx: QContext, label: str):
    """Sum term_of(k) for k = 0, 1, ... until three consecutive terms drop
    below tail_cutoff times the running maximum term."""
    acc = CompensatedSum()
    running_max = 0.0
    streak = 0
    k = 0
    while True:
        t = term_of(k)
        acc.add(t)
        mag = abs(t)
        if mag > running_max:
            running_max = mag
        if mag < ctx.tail_cutoff * running_max:
            streak += 1
            if streak >= 3:
                return acc.total
        else:
            streak = 0
        k += 1
        if k >= ctx.max_terms:
            raise NonConvergent(f"{label} exceeded the term budget")


def _eval_ortho_degree(pt: GridPoint, c: _Cache):
    q, b, th = pt.q, pt.beta, pt.theta
    n, n2 = pt.n, pt.x
    ctx = c.context(q)

    def term(x):
        return (
            c.weight(q, th, b, x)
            * c.meixner(q, th, b, 0, n, x)
            * c.meixner(q, th, b, 0, n2, x)
        )

    lhs = _adaptive_sum(term, ctx, "orthogonality sum")
    nfn = c.norm(q, th, b, n)
    nfn2 = c.norm(q, th, b, n2)
    rhs = nfn if n == n2 else 0.0
    return lhs, rhs, math.sqrt(nfn * nfn2)


def _eval_ortho_variable(pt: GridPoint, c: _Cache):
    q, b, th = pt.q, pt.beta, pt.theta
    x, x2 = pt.n, pt.x
    ctx = c.context(q)
    t2 = th * th
    factors = [1.0]

    def term(n):
        while n >= len(factors):
            k = len(factors) - 1
            factors.append(
                factors[-1]
                * t2
                * q ** (-k)
                * (1.0 - q ** (k + b))
                / ((1.0 - q ** (k + 1)) * (1.0 + t2 * q ** (-k - 1)))
            )
        return (
            factors[n]
            * c.meixner(q, th, b, 0, n, x)
            * c.meixner(q, th, b, 0, n, x2)
        )

    lhs = _adaptive_sum(term, ctx, "dual orthogonality sum")
    wx = c.weight(q, th, b, x)
    wx2 = c.weight(q, th, b, x2)
    rhs = 1.0 / wx if x == x2 else 0.0
    return lhs, rhs, 1.0 / math.sqrt(wx * wx2)


def _eval_genfun_degree(pt: GridPoint, c: _Cache):
    q, b, th, x, z = pt.q, pt.beta, pt.theta, pt.x, pt.aux
    ctx = c.context(q)
    t2 = th * th
    lhs = (
        little_qexp(z, ctx).value
        * big_qexp(-z * q**b, ctx).value
        * basic_hypergeometric(
            [QPower(-x)], [z * q**b], -z * q / t2, ctx
        ).value
    )
    coefs = [1.0]

    def term(n):
        while n >= len(coefs):
            k = len(coefs) - 1
            coefs.append(coefs[-1] * z * (1.0 - q ** (b + k)) / (1.0 - q ** (k + 1)))
        return coefs[n] * c.meixner(q, th, b, 0, n, x)

    rhs = _adaptive_sum(term, ctx, "degree generating function")
    return lhs, rhs, None


def _genfun_variable_domain(pt: GridPoint) -> bool:
    # the sum over x has term ratio ~ z q^-n; require headroom, and keep
    # the 2phi1 denominator parameter q/z clear of its poles z = q^(j+1)
    q, n, z = pt.q, pt.n, pt.aux
    if z > 0.9 * q**n:
        return False
    return all(abs(1.0 - q ** (j + 1) / z) > 1e-6 for j in range(n))


def _eval_genfun_variable(pt: GridPoint, c: _Cache):
    q, b, th, n, z = pt.q, pt.beta, pt.theta, pt.n, pt.aux
    ctx = c.context(q)
    t2 = th * th
    lhs = basic_hypergeometric(
        [QPower(-n), 0.0], [q / z], -(q ** (n + 1)) / t2, ctx
    ).value / q_pochhammer(z, b, ctx)
    coefs = [1.0]

    def term(x):
        while x >= len(coefs):
            k = len(coefs) - 1
            coefs.append(coefs[-1] * z * (1.0 - q ** (b + k)) / (1.0 - q ** (k + 1)))
        return coefs[x] * c.meixner(q, th, b, 0, n, x)

    rhs = _adaptive_sum(term, ctx, "variable generating function")
    return lhs, rhs, None


# ---------------------------------------------------------------------------
# q -> 1 limits, judged by monotone error decrease over q = 1 - 10^-k

_LIMIT_KS = (2, 3, 4)


def _limit_poly_errors(pt: GridPoint, c: _Cache) -> tuple[list[float], float]:
    cc = pt.aux
    classical = classical_meixner(pt.n, pt.x, pt.beta, cc)
    errs = []
    for k in _LIMIT_KS:
        ctx = c.context(1.0 - 10.0**-k)
        p = MeixnerParams.from_beta(pt.beta, cc / (1.0 - cc), ctx)
        errs.append(abs(qmeixner(pt.n, pt.x, p) - classical))
    return errs, classical


def _limit_xi_errors(pt: GridPoint, c: _Cache) -> tuple[list[float], float]:
    tau = pt.aux
    classical = classical_xi_limit(pt.n, pt.x, pt.beta, tau)
    theta = math.sinh(tau)
    errs = []
    for k in _LIMIT_KS:
        ctx = c.context(1.0 - 10.0**-k)
        mp = MatrixElementParams(theta, pt.beta, ctx)
        errs.append(abs(xi(pt.n, pt.x, mp) - classical))
    return errs, classical


# ---------------------------------------------------------------------------
# grids and registry

_QS = (0.4, 0.7, 0.95)
_BETAS = (1, 2, 4)
_THETAS = (0.3, 0.7)
_DEGREES = tuple(range(9))
_ZS = (0.2, 0.6)
_TAUS = (0.3, 0.6)
_CLASSICAL_CS = (0.3, 0.6)
_LIMIT_DEGREES = tuple(range(5))


def _grid_pointwise(qs, betas, thetas) -> list[GridPoint]:
    return [
        GridPoint(q, b, th, n, x)
        for q in qs
        for b in betas
        for th in thetas
        for n in _DEGREES
        for x in _DEGREES
    ]


def _grid_pairs(qs, betas, thetas) -> list[GridPoint]:
    # symmetric sums: only pairs with x >= n (n carries the first index)
    return [
        GridPoint(q, b, th, n, x)
        for q in qs
        for b in betas
        for th in thetas
        for n in _DEGREES
        for x in _DEGREES
        if x >= n
    ]


def _grid_genfun_degree(qs, betas, thetas) -> list[GridPoint]:
    return [
        GridPoint(q, b, th, 0, x, z)
        for q in qs
        for b in betas
        for th in thetas
        for x in _DEGREES
        for z in _ZS
    ]


def _grid_genfun_variable(qs, betas, thetas) -> list[GridPoint]:
    return [
        GridPoint(q, b, th, n, 0, z)
        for q in qs
        for b in betas
        for th in thetas
        for n in _DEGREES
        for z in _ZS
    ]


def _grid_limit(aux_values) -> Callable[..., list[GridPoint]]:
    def build(qs, betas, thetas) -> list[GridPoint]:
        # the q sequence of a limit check is fixed; only beta is overridable
        return [
            GridPoint(None, b, None, n, x, a)
            for b in betas
            for a in aux_values
            for n in _LIMIT_DEGREES
            for x in _LIMIT_DEGREES
        ]

    return build


def _beta_at_least_2(pt: GridPoint) -> bool:
    return pt.beta >= 2


@dataclass(frozen=True)
class _Relation:
    grid: Callable[..., list[GridPoint]]  # (qs, betas, thetas) -> points
    evaluate: Callable
    domain: Callable[[GridPoint], bool] | None = None
    judge: str = "tol"  # or "monotone"


_REGISTRY: dict[RelationId, _Relation] = {
    RelationId.BACKWARD: _Relation(_grid_pointwise, _eval_backward),
    RelationId.FORWARD: _Relation(_grid_pointwise, _eval_forward),
    RelationId.DIFFERENCE: _Relation(_grid_pointwise, _eval_difference),
    RelationId.COMP_BACKWARD: _Relation(
        _grid_pointwise, _eval_comp_backward, domain=_beta_at_least_2
    ),
    RelationId.COMP_FORWARD: _Relation(_grid_pointwise, _eval_comp_forward),
    RelationId.RECURRENCE: _Relation(_grid_pointwise, _eval_recurrence),
    RelationId.ORTHO_DEGREE: _Relation(_grid_pairs, _eval_ortho_degree),
    RelationId.ORTHO_VARIABLE: _Relation(_grid_pairs, _eval_ortho_variable),
    RelationId.DUALITY: _Relation(_grid_pointwise, _eval_duality),
    RelationId.DUALITY_XI: _Relation(_grid_pointwise, _eval_duality_xi),
    RelationId.DUAL_BACKWARD: _Relation(_grid_pointwise, _eval_dual_backward),
    RelationId.DUAL_FORWARD: _Relation(_grid_pointwise, _eval_dual_forward),
    RelationId.DUAL_DIFFERENCE: _Relation(_grid_pointwise, _eval_dual_difference),
    RelationId.DUAL_COMP_BACKWARD: _Relation(
        _grid_pointwise, _eval_dual_comp_backward, domain=_beta_at_least_2
    ),
    RelationId.DUAL_COMP_FORWARD: _Relation(
        _grid_pointwise, _eval_dual_comp_forward
    ),
    RelationId.DUAL_RECURRENCE: _Relation(_grid_pointwise, _eval_dual_recurrence),
    RelationId.GENFUN_DEGREE: _Relation(_grid_genfun_degree, _eval_genfun_degree),
    RelationId.GENFUN_VARIABLE: _Relation(
        _grid_genfun_variable, _eval_genfun_variable, domain=_genfun_variable_domain
    ),
    RelationId.LIMIT_POLY: _Relation(
        _grid_limit(_CLASSICAL_CS), _limit_poly_errors, judge="monotone"
    ),
    RelationId.LIMIT_XI: _Relation(
        _grid_limit(_TAUS), _limit_xi_errors, judge="monotone"
    ),
}

IDENTITY_RELATIONS: tuple[RelationId, ...] = tuple(
    r for r in RelationId if _REGISTRY[r].judge == "tol"
)
LIMIT_RELATIONS: tuple[RelationId, ...] = (
    RelationId.LIMIT_POLY,
    RelationId.LIMIT_XI,
)

# limit rows whose true error vanishes show only rounding noise, and the
# noise grows like 1/(1-q) toward q = 1; the floor sits above that
_CONVERGED = 1e-11


def default_grid(
    relation: RelationId | str,
    qs: Iterable[float] | None = None,
    betas: Iterable[int] | None = None,
    thetas: Iterable[float] | None = None,
) -> list[GridPoint]:
    """The registry's grid for one relation, in deterministic order.

    Any of the q/beta/theta axes can be overridden; the n, x (and z/tau/c)
    axes are fixed by the registry.
    """
    return _REGISTRY[RelationId(relation)].grid(
        tuple(qs) if qs is not None else _QS,
        tuple(betas) if betas is not None else _BETAS,
        tuple(thetas) if thetas is not None else _THETAS,
    )


def check(
    relation: RelationId | str,
    grid: Iterable[GridPoint] | None = None,
    tol: float = 1e-9,
) -> RelationReport:
    """Evaluate one relation over a grid (default: the registry grid).

    Points outside the relation's domain are recorded in report.skipped.
    Raises EmptyGrid when nothing remains to evaluate.
    """
    rid = RelationId(relation)
    spec = _REGISTRY[rid]
    points = list(grid) if grid is not None else default_grid(rid)
    cache = _Cache()
    report = RelationReport(relation=rid, tol=tol)
    for pt in points:
        if spec.domain is not None and not spec.domain(pt):
            report.skipped.append(pt)
            continue
        if spec.judge == "monotone":
            errs, classical = spec.evaluate(pt, cache)
            ok = all(e < _CONVERGED for e in errs) or all(
                errs[i + 1] < errs[i] for i in range(len(errs) - 1)
            )
            report.grid.append(pt)
            report.residuals.append((errs[-1], errs[-1] / max(abs(classical), 1.0)))
            if not ok:
                report.failures.append(pt)
        else:
            lhs, rhs, scale = spec.evaluate(pt, cache)
            absolute = abs(lhs - rhs)
            if scale is None:
                scale = max(abs(lhs), abs(rhs), 1.0)
            relative = absolute / scale
            report.grid.append(pt)
            report.residuals.append((absolute, relative))
            if not (relative <= tol):
                report.failures.append(pt)
    if not report.grid:
        raise EmptyGrid(f"no evaluable grid points for {rid.value}")
    return report


def check_all(
    relations: Iterable[RelationId | str] | None = None,
    tol: float = 1e-9,
) -> list[RelationReport]:
    """check() every relation (or the given subset) over default grids,
    in registry order."""
    if relations is None:
        selected = list(RelationId)
    else:
        selected = [RelationId(r) for r in relations]
        if not selected:
            raise EmptyGrid("no relations selected")
    return [check(r, tol=tol) for r in selected]
