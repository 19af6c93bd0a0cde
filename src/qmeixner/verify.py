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
against the classical value over q = 1 - 10^-k, k in LIMIT_KS = (2, 3, 4)
(rows whose error is already below 1e-11 everywhere count as converged).
limit_passes is that judge and limit_poly_errors and limit_xi_errors give
the errors it judges; the CLI's limit command shares all four.

Grid points violating a relation's domain (the complementary relations need
beta >= 2, the variable generating function converges only for z < q^n) are
reported as skipped, not failed.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from .errors import NonConvergent, PoleHit
from .meixner import (
    MatrixElementParams,
    MeixnerParams,
    admissible_beta,
    classical_c,
    classical_meixner,
    classical_xi_limit,
    duality_transform,
    dual_degree_factor,
    norm_factor,
    qmeixner,
    theta_squared,
    weight,
    xi,
    xi_dual,
)
from .qseries import (
    QContext,
    QPower,
    adaptive_sum,
    basic_hypergeometric,
    big_qexp,
    little_qexp,
    q_pochhammer,
    ratio_sequence,
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
    "limit_passes",
    "limit_q",
    "limit_poly_errors",
    "limit_xi_errors",
    "limit_xi_theta",
    "LIMIT_KS",
    "orthogonality_sum",
    "dual_orthogonality_sum",
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
    unused (the q sequence is fixed to 1 - 10^-k, k in LIMIT_KS)."""

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
        """The largest relative residual, NaN if any is NaN (max alone keeps
        a NaN only when it comes first), 0.0 over no residuals."""
        rels = [rel for _, rel in self.residuals]
        if any(math.isnan(rel) for rel in rels):
            return math.nan
        return max(rels, default=0.0)

    @property
    def passed(self) -> bool:
        return bool(self.grid) and not self.failures


# ---------------------------------------------------------------------------
# shared evaluation cache

class _Row:
    """M_n(q^-x; p) of one lattice point x for n = 0, 1, ...: the values
    computed so far, NaN for a degree not computed yet, and the parameters
    p of the row's block."""

    __slots__ = ("values", "x", "p")

    def __init__(self, x: int, p: MeixnerParams) -> None:
        self.values = array("d")
        self.x = x
        self.p = p

    def at(self, n: int) -> float:
        values = self.values
        if 0 <= n < len(values):  # a negative n goes to qmeixner's refusal
            value = values[n]
            if value == value:
                return value
        else:
            values.extend([math.nan] * (n + 1 - len(values)))
        value = values[n] = qmeixner(n, self.x, self.p)
        return value


class _Memo(dict):
    """A memo table: a dict that fills a missing key with make(*key) once,
    so a hit is a plain dict lookup."""

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: tuple):
        value = self[key] = self.make(*key)
        return value


class _Cache:
    """Memo tables of block parameters, rows of M_n values, weights and
    norms, q-exponentials and dual-degree factors for one check() or one
    check_all() call.  A call site indexes a table by the arguments of what
    it holds, c.rows[q, t2, beta, shift, x](n) or c.by_theta[weight, q,
    theta, beta, k]; fn in a key (weight or norm_factor, little_qexp or
    big_qexp) is the function the table calls.

    The relations revisit the same (n, x) under shifted parameters, the
    orthogonality sums revisit the same lattice values for every degree
    pair, and the relations of one check_all() share most of their values.
    c is theta * theta, and shift is the integer k of an exact c q^k.  rows
    holds the reader of one _Row per (q, c, beta, shift, x), so a sum over
    n at fixed x takes its reader once and calls it per term.  A table's
    make reads other tables, never the cache, so a dropped cache is freed
    by reference counting alone.
    """

    __slots__ = ("params", "rows", "element_params", "by_theta", "qexp", "dual_factor")

    def __init__(self) -> None:
        self.params = params = _Memo(
            lambda q, c, beta, shift: MeixnerParams.from_beta(
                beta, c, QContext(q), c_shift=shift
            )
        )
        self.rows = _Memo(
            lambda q, c, beta, shift, x: _Row(x, params[q, c, beta, shift]).at
        )
        self.element_params = element_params = _Memo(
            lambda q, theta, beta: MatrixElementParams(theta, beta, QContext(q))
        )
        self.by_theta = _Memo(
            lambda fn, q, theta, beta, k: fn(k, element_params[q, theta, beta])
        )
        self.qexp = _Memo(lambda fn, q, z: fn(z, QContext(q)).value)
        self.dual_factor = _Memo(dual_degree_factor)


# ---------------------------------------------------------------------------
# pointwise structure relations
#
# Each structure relation is one row of the term table below: an LHS and an
# RHS list of terms (coefficient, dn, dx, dbeta, c_shift), a term standing
# for coefficient(q, t2, b, n, x) * M_{n+dn}(q^-(x+dx); beta+dbeta,
# theta^2 q^c_shift).  The dual relations drag theta^2 through integer
# powers of q, carried exactly as c_shift.  A term whose shifted n or x is
# negative carries a vanishing factor (1 - q^0) and is skipped, so M is
# never requested at n = -1 or x = -1.

Term = tuple[Callable[[float, float, int, int, int], float], int, int, int, int]


# coefficients that enter one relation twice, alone and in a sum
def _up(q, t2, b, n, x):  # difference equation
    return (1.0 - q**x) * (1.0 + t2 * q ** (x + b - 1))


def _down(q, t2, b, n, x):
    return t2 * q**x * (1.0 - q ** (x + b))


def _lo(q, t2, b, n, x):  # recurrence
    return q * (1.0 - q**n) * (q**n + t2)


def _hi(q, t2, b, n, x):
    return t2 * (1.0 - q ** (n + b))


def _dual_up(q, t2, b, n, x):
    return (1.0 - q**n) * (1.0 + t2 * q ** (x + b - 1))


def _dual_down(q, t2, b, n, x):
    return t2 * q**x * (1.0 - q ** (n + b))


def _dual_lo(q, t2, b, n, x):
    return q * (1.0 - q**x) * (q**n + t2)


def _dual_hi(q, t2, b, n, x):
    return t2 * (1.0 - q ** (x + b))


# relation: ([LHS terms], [RHS terms]), term = (coefficient, dn, dx, dbeta, c_shift)
_STRUCTURE: dict[RelationId, tuple[list[Term], list[Term]]] = {
    RelationId.BACKWARD: (
        [(lambda q, t2, b, n, x: t2 * (1.0 - q**b), 1, 0, 0, 0)],
        [(lambda q, t2, b, n, x: t2 * (1.0 - q ** (x + b)), 0, 0, 1, -1),
         (lambda q, t2, b, n, x: q * (1.0 - q ** (-x)) * (1.0 + t2 * q ** (x + b - 1)),
          0, -1, 1, -1)]),
    RelationId.FORWARD: (
        [(lambda q, t2, b, n, x: (1.0 - q**n) / (t2 * q**x * (1.0 - q**b)), -1, 0, 1, -1)],
        [(lambda *a: 1.0, 0, 0, 0, 0), (lambda *a: -1.0, 0, 1, 0, 0)]),
    RelationId.DIFFERENCE: (
        [(lambda q, t2, b, n, x: 1.0 - q**n, 0, 0, 0, 0)],
        [(lambda *a: -_down(*a), 0, 1, 0, 0),
         (lambda *a: _up(*a) + _down(*a), 0, 0, 0, 0),
         (lambda *a: -_up(*a), 0, -1, 0, 0)]),
    RelationId.COMP_BACKWARD: (
        [(lambda q, t2, b, n, x: (q ** (n + 1) / t2)
          * (1.0 - q ** (-x)) / (1.0 - q ** (b - 1)), 0, -1, 0, 0)],
        [(lambda *a: 1.0, 1, 0, -1, 0), (lambda *a: -1.0, 0, 0, -1, 0)]),
    RelationId.COMP_FORWARD: (
        [(lambda q, t2, b, n, x: t2 * q**n * (1.0 - q**b), 0, 1, 0, 0)],
        [(lambda q, t2, b, n, x: t2 * (1.0 - q ** (n + b)), 0, 0, 1, 0),
         (lambda q, t2, b, n, x: -((q**n + t2) * (1.0 - q**n)), -1, 0, 1, 0)]),
    RelationId.RECURRENCE: (
        [(lambda q, t2, b, n, x: q ** (2 * n + 1) * (1.0 - q ** (-x)), 0, 0, 0, 0)],
        [(lambda *a: -(_lo(*a) + _hi(*a)), 0, 0, 0, 0),
         (_hi, 1, 0, 0, 0),
         (_lo, -1, 0, 0, 0)]),
    RelationId.DUAL_BACKWARD: (
        [(lambda q, t2, b, n, x: t2 * q ** (x + 1) * (1.0 - q**b), 0, 1, 0, 0)],
        [(lambda q, t2, b, n, x: t2 * q ** (x + 1) * (1.0 - q ** (n + b)), 0, 0, 1, 0),
         (lambda q, t2, b, n, x: -(q * (1.0 - q**n) * (1.0 + t2 * q ** (x + b))),
          -1, 0, 1, -1)]),
    RelationId.DUAL_FORWARD: (
        [(lambda q, t2, b, n, x: (1.0 - q ** (-x)) / (t2 * (1.0 - q**b)), 0, -1, 1, 0)],
        [(lambda *a: 1.0, 1, 0, 0, 1), (lambda *a: -1.0, 0, 0, 0, 0)]),
    RelationId.DUAL_DIFFERENCE: (
        [(lambda q, t2, b, n, x: 1.0 - q**x, 0, 0, 0, 0)],
        [(lambda *a: _dual_up(*a) + _dual_down(*a), 0, 0, 0, 0),
         (lambda *a: -_dual_down(*a), 1, 0, 0, 1),
         (lambda *a: -_dual_up(*a), -1, 0, 0, -1)]),
    RelationId.DUAL_COMP_BACKWARD: (
        [(lambda q, t2, b, n, x: (q / t2) * (1.0 - q**n) / (1.0 - q ** (b - 1)),
          -1, 0, 0, -1)],
        [(lambda *a: 1.0, 0, 0, -1, 0), (lambda *a: -1.0, 0, 1, -1, -1)]),
    RelationId.DUAL_COMP_FORWARD: (
        [(lambda q, t2, b, n, x: t2 * q**x * (1.0 - q**b), 1, 0, 0, 1)],
        [(lambda q, t2, b, n, x: t2 * (1.0 - q ** (x + b)), 0, 0, 1, 0),
         (lambda q, t2, b, n, x: -((q**n + t2) * (1.0 - q**x)), 0, -1, 1, 1)]),
    RelationId.DUAL_RECURRENCE: (
        [(lambda q, t2, b, n, x: q ** (x + 1) * (1.0 - q**n), 0, 0, 0, 0)],
        [(lambda *a: _dual_lo(*a) + _dual_hi(*a), 0, 0, 0, 0),
         (lambda *a: -_dual_hi(*a), 0, 1, 0, -1),
         (lambda *a: -_dual_lo(*a), 0, -1, 0, 1)]),
}


def _structure_evaluator(lhs: list[Term], rhs: list[Term]) -> Callable:
    """The evaluate() of a structure relation given by its term table."""

    def side(terms: list[Term], pt: GridPoint, c: _Cache, t2: float) -> float:
        total = 0.0
        for coefficient, dn, dx, db, shift in terms:
            n, x = pt.n + dn, pt.x + dx
            if n < 0 or x < 0:
                continue
            row = c.rows[pt.q, t2, pt.beta + db, shift, x]
            total += coefficient(pt.q, t2, pt.beta, pt.n, pt.x) * row(n)
        return total

    def evaluate(pt: GridPoint, c: _Cache):
        t2 = pt.theta * pt.theta
        return side(lhs, pt, c, t2), side(rhs, pt, c, t2), None

    return evaluate


# ---------------------------------------------------------------------------
# duality, orthogonality, generating functions

def _eval_duality(pt: GridPoint, c: _Cache):
    p = c.params[pt.q, pt.theta * pt.theta, pt.beta, 0]
    xd, nd, pd = duality_transform(pt.n, pt.x, p)
    lhs = c.rows[pt.q, p.c, p.beta, p.c_shift, pt.x](pt.n)
    rhs = c.rows[pt.q, pd.c, pd.beta, pd.c_shift, nd](xd)
    return lhs, rhs, None


def _eval_duality_xi(pt: GridPoint, c: _Cache):
    mp = c.element_params[pt.q, pt.theta, pt.beta]
    lhs = xi(pt.n, pt.x, mp)
    pref, xd, nd, mpd = xi_dual(pt.n, pt.x, mp)
    rhs = pref * xi(xd, nd, mpd)
    return lhs, rhs, None


def _orthogonality_sum(pt: GridPoint, c: _Cache) -> tuple[float, int]:
    q, b, th = pt.q, pt.beta, pt.theta
    n, n2 = pt.n, pt.x
    t2 = th * th

    def term(x):
        row = c.rows[q, t2, b, 0, x]
        return c.by_theta[weight, q, th, b, x] * row(n) * row(n2)

    return adaptive_sum(term, "orthogonality sum")


def _dual_orthogonality_sum(pt: GridPoint, c: _Cache) -> tuple[float, int]:
    q, b = pt.q, pt.beta
    t2 = pt.theta * pt.theta
    factor = c.dual_factor[t2, b, q]
    row, row2 = c.rows[q, t2, b, 0, pt.n], c.rows[q, t2, b, 0, pt.x]
    return adaptive_sum(lambda n: factor(n) * row(n) * row2(n), "dual orthogonality sum")


def orthogonality_sum(n: int, n2: int, mp: MatrixElementParams) -> tuple[float, int]:
    """Adaptively truncated sum over the lattice, the ortho_degree sum:

    sum_x omega_x M_n(q^-x) M_n2(q^-x).

    Terms decay super-geometrically; the sum ends by the qseries tail rule.
    Returns (sum, terms_used).
    """
    return _orthogonality_sum(GridPoint(mp.ctx.q, mp.beta, mp.theta, n, n2), _Cache())


def dual_orthogonality_sum(x: int, x2: int, mp: MatrixElementParams) -> tuple[float, int]:
    """Adaptively truncated dual sum over the degree, the ortho_variable sum:

    sum_n M_n(q^-x) M_n(q^-x2) theta^(2n) q^(-C(n,2))
          [n+beta-1, n]_q / (-theta^2 q^-n; q)_n,

    nominally delta_{x,x2} / omega_x.  The sum converges (terms shrink like
    q^n), but to a value that genuinely differs from delta/omega: the
    lattice functions n -> xi_{n,x} are orthogonal in x yet not complete,
    so the dual sum carries a finite completeness defect (about 4.4e-4
    relative at x = 0 for q = 0.5, theta = 0.3, beta = 1, growing with x
    and shrinking as q -> 1).  The degree-dependent factor is carried by a
    stable term-ratio recurrence (dual_degree_factor).  Returns
    (sum, terms_used).
    """
    return _dual_orthogonality_sum(GridPoint(mp.ctx.q, mp.beta, mp.theta, x, x2), _Cache())


def _scale_root(pt: GridPoint, name: str, a: float, b: float) -> float:
    """sqrt(a b) of an orthogonality scale: the root of the double product
    where that is a normal double, else sqrt(a) sqrt(b).  OverflowError
    where the root or its reciprocal exceeds the double range."""
    product = a * b
    if sys.float_info.min <= product <= sys.float_info.max:
        root = math.sqrt(product)
    else:
        root = math.sqrt(a) * math.sqrt(b)
    if not 1.0 / sys.float_info.max <= root <= sys.float_info.max:
        raise OverflowError(
            f"{name} = {root!r} {_where(pt)}: "
            "the scale or its reciprocal exceeds the double range"
        )
    return root


def _where(pt: GridPoint) -> str:
    """The point in an error message."""
    return f"at q = {pt.q}, theta = {pt.theta}, beta = {pt.beta}, ({pt.n}, {pt.x})"


def _eval_ortho_degree(pt: GridPoint, c: _Cache):
    lhs, _ = _orthogonality_sum(pt, c)
    nfn = c.by_theta[norm_factor, pt.q, pt.theta, pt.beta, pt.n]
    nfn2 = c.by_theta[norm_factor, pt.q, pt.theta, pt.beta, pt.x]
    rhs = nfn if pt.n == pt.x else 0.0
    return lhs, rhs, _scale_root(pt, "sqrt(h_n h_n2)", nfn, nfn2)


def _eval_ortho_variable(pt: GridPoint, c: _Cache):
    lhs, _ = _dual_orthogonality_sum(pt, c)
    wx = c.by_theta[weight, pt.q, pt.theta, pt.beta, pt.n]
    wx2 = c.by_theta[weight, pt.q, pt.theta, pt.beta, pt.x]
    # at x = x2 the root is omega_x, so 1/omega_x is checked with it
    root = _scale_root(pt, "sqrt(omega_x omega_x2)", wx, wx2)
    rhs = 1.0 / wx if pt.n == pt.x else 0.0
    return lhs, rhs, 1.0 / root


def _genfun_coefficient(q: float, b: int, z: float) -> Callable[[int], float]:
    """k -> z^k (q^b; q)_k / (q; q)_k, the weight of both generating
    functions, by its term ratio."""
    return ratio_sequence(
        lambda cf, k: cf * z * (1.0 - q ** (b + k)) / (1.0 - q ** (k + 1))
    )


def _eval_genfun_degree(pt: GridPoint, c: _Cache):
    q, b, th, x, z = pt.q, pt.beta, pt.theta, pt.x, pt.aux
    t2 = th * th
    # the right side first: where both sides leave the double range, the
    # refusal is its OverflowError, not the 1phi1's NonConvergent (_check
    # names the point of either)
    coef = _genfun_coefficient(q, b, z)
    row = c.rows[q, t2, b, 0, x]
    rhs, _ = adaptive_sum(lambda n: coef(n) * row(n), "degree generating function")
    lhs = (
        c.qexp[little_qexp, q, z]
        * c.qexp[big_qexp, q, -z * q**b]
        * basic_hypergeometric(
            [QPower(-x)], [z * q**b], -z * q / t2, QContext(q)
        ).value
    )
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
    ctx = QContext(q)
    t2 = th * th
    # the right side first, as in _eval_genfun_degree
    coef = _genfun_coefficient(q, b, z)
    rhs, _ = adaptive_sum(
        lambda x: coef(x) * c.rows[q, t2, b, 0, x](n), "variable generating function"
    )
    lhs = basic_hypergeometric(
        [QPower(-n), 0.0], [q / z], -(q ** (n + 1)) / t2, ctx
    ).value / q_pochhammer(z, b, ctx)
    return lhs, rhs, None


# ---------------------------------------------------------------------------
# q -> 1 limits, judged by limit_passes over q = 1 - 10^-k

LIMIT_KS = (2, 3, 4)

# limit rows whose true error vanishes show only rounding noise, and the
# noise grows like 1/(1-q) toward q = 1; the floor sits above that
_CONVERGED = 1e-11


def limit_passes(errors: list[float]) -> bool:
    """The judge of a q -> 1 limit: every error below the rounding-noise
    floor, or at least two errors, strictly decreasing along the sequence.
    A single error shows no decrease, and a NaN error passes neither test."""
    return all(e < _CONVERGED for e in errors) or (
        len(errors) >= 2
        and all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    )


def limit_q(k: int) -> float:
    """q = 1 - 10^-k of a limit sequence; ValueError for a k whose q rounds to 1."""
    q = 1.0 - 10.0**-k
    if q == 1.0:
        raise ValueError(f"k {k} is too large: q = 1 - 10^-k rounds to 1")
    return q


def _eval_limit_poly(pt: GridPoint, c: _Cache, ks: Iterable[int] = LIMIT_KS):
    classical = classical_meixner(pt.n, pt.x, admissible_beta(pt.beta), pt.aux)
    cq = pt.aux / (1.0 - pt.aux)
    values = (c.rows[limit_q(k), cq, pt.beta, 0, pt.x](pt.n) for k in ks)
    return [abs(v - classical) for v in values], classical


def limit_poly_errors(
    n: int, x: int, beta: int, c: float, ks: Iterable[int]
) -> tuple[list[float], float]:
    """|M_n(q^-x; q^(beta-1), c/(1-c); q) - M_n(x; beta, c)| at q = 1 - 10^-k
    for each k in ks, and the classical value M_n(x; beta, c)."""
    return _eval_limit_poly(GridPoint(None, beta, None, n, x, c), _Cache(), ks)


def limit_xi_theta(tau: float) -> float:
    """theta = sinh(tau) of the xi limit: classical_c's rule, and tau != 0."""
    classical_c(tau)
    if tau == 0.0:
        raise ValueError(f"tau {tau} gives theta = sinh(tau) = 0, which is no theta")
    return math.sinh(tau)


def _eval_limit_xi(pt: GridPoint, c: _Cache, ks: Iterable[int] = LIMIT_KS):
    theta = limit_xi_theta(pt.aux)
    classical = classical_xi_limit(pt.n, pt.x, pt.beta, pt.aux)
    mps = (c.element_params[limit_q(k), theta, pt.beta] for k in ks)
    return [abs(xi(pt.n, pt.x, mp) - classical) for mp in mps], classical


def limit_xi_errors(
    n: int, x: int, beta: int, tau: float, ks: Iterable[int]
) -> tuple[list[float], float]:
    """|xi_{n,x}(sinh tau; beta) - its q -> 1 limit| at q = 1 - 10^-k for each
    k in ks, and the limit value."""
    return _eval_limit_xi(GridPoint(None, beta, None, n, x, tau), _Cache(), ks)


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


def _grid(cells: list[tuple[int, int, float | None]]) -> Callable[..., list[GridPoint]]:
    """Grid builder: every (n, x, aux) cell at every (q, beta, theta)."""

    def build(qs, betas, thetas) -> list[GridPoint]:
        return [
            GridPoint(q, b, th, n, x, aux)
            for q in qs
            for b in betas
            for th in thetas
            for n, x, aux in cells
        ]

    return build


_grid_pointwise = _grid([(n, x, None) for n in _DEGREES for x in _DEGREES])
# symmetric sums: only pairs with x >= n (n carries the first index)
_grid_pairs = _grid([(n, x, None) for n in _DEGREES for x in _DEGREES if x >= n])
_grid_genfun_degree = _grid([(0, x, z) for x in _DEGREES for z in _ZS])
_grid_genfun_variable = _grid([(n, 0, z) for n in _DEGREES for z in _ZS])


def _grid_limit(aux_values) -> Callable[..., list[GridPoint]]:
    # the q sequence of a limit check is fixed; only beta is overridable
    build = _grid(
        [(n, x, a) for a in aux_values for n in _LIMIT_DEGREES for x in _LIMIT_DEGREES]
    )
    return lambda qs, betas, thetas: build((None,), betas, (None,))


@dataclass(frozen=True)
class _Relation:
    grid: Callable[..., list[GridPoint]]  # (qs, betas, thetas) -> points
    evaluate: Callable  # (pt, cache) -> (lhs, rhs, scale), or a limit's (errors, classical)
    domain: Callable[[GridPoint], bool] | None = None
    judge: str = "tol"  # or "monotone"


_REGISTRY: dict[RelationId, _Relation] = {
    **{
        rid: _Relation(
            _grid_pointwise,
            _structure_evaluator(lhs, rhs),
            # the complementary relations lower beta by one
            domain=(lambda pt: pt.beta >= 2) if any(t[3] < 0 for t in lhs + rhs) else None,
        )
        for rid, (lhs, rhs) in _STRUCTURE.items()
    },
    RelationId.ORTHO_DEGREE: _Relation(_grid_pairs, _eval_ortho_degree),
    RelationId.ORTHO_VARIABLE: _Relation(_grid_pairs, _eval_ortho_variable),
    RelationId.DUALITY: _Relation(_grid_pointwise, _eval_duality),
    RelationId.DUALITY_XI: _Relation(_grid_pointwise, _eval_duality_xi),
    RelationId.GENFUN_DEGREE: _Relation(_grid_genfun_degree, _eval_genfun_degree),
    RelationId.GENFUN_VARIABLE: _Relation(
        _grid_genfun_variable, _eval_genfun_variable, domain=_genfun_variable_domain
    ),
    RelationId.LIMIT_POLY: _Relation(
        _grid_limit(_CLASSICAL_CS), _eval_limit_poly, judge="monotone"
    ),
    RelationId.LIMIT_XI: _Relation(_grid_limit(_TAUS), _eval_limit_xi, judge="monotone"),
}

IDENTITY_RELATIONS: tuple[RelationId, ...] = tuple(
    r for r in RelationId if _REGISTRY[r].judge == "tol"
)
LIMIT_RELATIONS: tuple[RelationId, ...] = tuple(
    r for r in RelationId if _REGISTRY[r].judge == "monotone"
)


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
    Raises ValueError when nothing remains to evaluate.
    """
    rid = RelationId(relation)
    points = list(grid) if grid is not None else default_grid(rid)
    return _check(rid, points, tol, _Cache())


def _check(
    rid: RelationId, points: list[GridPoint], tol: float, cache: _Cache
) -> RelationReport:
    """check() of one relation over the given points, through the given cache."""
    # a theta or beta is refused, by its rule, before any evaluation
    for theta in dict.fromkeys(pt.theta for pt in points if pt.theta is not None):
        theta_squared(theta)
    for beta in dict.fromkeys(pt.beta for pt in points):
        admissible_beta(beta)
    spec = _REGISTRY[rid]
    report = RelationReport(relation=rid, tol=tol)
    for pt in points:
        if spec.domain is not None and not spec.domain(pt):
            report.skipped.append(pt)
            continue
        try:
            result = spec.evaluate(pt, cache)
        except (OverflowError, ZeroDivisionError, NonConvergent, PoleHit) as exc:
            # a numeric refusal names the relation and the point unless it
            # names the point already (_scale_root); a value that left the
            # double range is an OverflowError, and float ** says only errno
            # ERANGE and its text
            text = str(exc.args[-1])
            if _where(pt) in text:
                raise
            kind = OverflowError if isinstance(exc, ArithmeticError) else type(exc)
            raise kind(f"{rid.value} {_where(pt)}: {text}") from None
        if spec.judge == "monotone":
            errs, classical = result
            residual = (errs[-1], errs[-1] / max(abs(classical), 1.0))
            ok = limit_passes(errs)
        else:
            lhs, rhs, scale = result
            absolute = abs(lhs - rhs)
            if scale is None:
                scale = max(abs(lhs), abs(rhs), 1.0)
            residual = (absolute, absolute / scale)
            ok = residual[1] <= tol  # False for a NaN residual
        report.grid.append(pt)
        report.residuals.append(residual)
        if not ok:
            report.failures.append(pt)
    if not report.grid:
        raise ValueError(f"no evaluable grid points for {rid.value}")
    return report


def check_all(
    relations: Iterable[RelationId | str] | None = None,
    tol: float = 1e-9,
    qs: Iterable[float] | None = None,
    betas: Iterable[int] | None = None,
    thetas: Iterable[float] | None = None,
) -> list[RelationReport]:
    """check() every relation (or the given subset, in the given order) over
    its default grid, with the q/beta/theta axes overridable as in
    default_grid; registry order by default.

    One evaluation cache serves every relation of the call, so a value that
    several relations read is computed once; it is dropped on return.
    Raises ValueError when no relation is selected, or for the first
    relation with nothing left to evaluate.
    """
    if relations is None:
        selected = list(RelationId)
    else:
        selected = [RelationId(r) for r in relations]
        if not selected:
            raise ValueError("no relations selected")
    cache = _Cache()
    return [
        _check(r, default_grid(r, qs, betas, thetas), tol, cache) for r in selected
    ]
