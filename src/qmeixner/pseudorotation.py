"""The q-pseudorotation operator on the truncated two-oscillator space.

U(theta) is assembled as the four-factor product

    U(theta) = e_q^(1/2)(-theta^2 q^-A0)
             * e_q( theta(1-q) q^((B0-A0+1)/2) A+B+ )
             * E_q(-theta(1-q) q^((B0-A0+1)/2) A-B- )
             * E_q^(1/2)( theta^2 q^(B0+1) ).

A+B+ and A-B- keep the offset d = n_B - n_A fixed and the outer factors
are diagonal, so U is real and block-diagonal over offsets; the block of
offset d is the sector |n>_beta = |n, n+beta-1> with beta = d + 1.  On each
block the two middle arguments are a single sub-diagonal and its negated
transpose, whose q-exponentials are exact finite sums in closed form.
build_U stores U that way, one dense block per offset of side at most
N + 1; the dense product-space matrix and the ladder matrices are built
only when UOperator.matrix or UOperator.oscillators is first read.  The
sector elements <n|_beta U |x>_beta reproduce the closed-form overlap
coefficients xi_{n,x} to rounding error at any truncation, because every
ladder path between interior states stays interior.

Numerical facts that shape the rest of the module:

* The outer factor e_q^(1/2)(-theta^2 q^-n_A) falls superexponentially in
  n_A and underflows (to 0 for n_A >= 49 at q = 0.5, theta = 0.3), while the
  middle factors grow to match; such rows no longer carry their element, so
  element() refuses them with NonConvergent rather than return 0.
* The rows of U are orthonormal: (U U^T - I) vanishes, superexponentially
  fast, on blocks whose rows keep their full lattice support inside the
  truncation (a degree-n row spreads over x near n, so this needs more
  headroom than element accuracy does).  The columns are not complete:
  (U^T U)_jj converges, as the truncation grows, to limits strictly below 1
  (deficits reach ~0.5 per column at q = 0.5, theta = 0.3), so U^T is a left
  inverse only up to a rank defect.  unitarity_residual reports both
  directions and is dominated by the column defect.
* Consequently the conjugation identities are certified in multiplied-through
  form (A- U(theta) = U(theta') R and U X = R U) rather than as sandwiches
  U^T (.) U, which pick up the column defect.  The multiplied-through forms
  are entry-local and exact at finite truncation; the returned operator is
  the closed-form right-hand side R.
* The exponential reordering identities behind the four-factor assembly hold
  analytically only while |a*b| q^{-n} stays below 1 over the levels n that
  contribute, and their truncation-edge breakage decays slowly with the
  excluded margin; exp_reorder_* therefore return (lhs, rhs) pairs and leave
  the interior margin to the caller.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    EmptySector,
    NonConvergent,
    OutOfBlock,
    ResidualFailure,
    TruncationTooSmall,
    UnsupportedShape,
)
from .meixner import MatrixElementParams, weight
from .oscillator import (
    FockTruncation,
    OperatorMatrix,
    Oscillators,
    ProductBasis,
    build_classical,
    build_oscillators,
    interior_indices,
    sector,
)
from .qseries import QContext, big_qexp, little_qexp

__all__ = [
    "matrix_qexp",
    "matrix_qexp_series",
    "UOperator",
    "build_U",
    "element",
    "unitarity_residual",
    "interior_residual",
    "conjugated_lowering",
    "conjugated_raising",
    "conjugated_lowering_dual",
    "conjugated_raising_dual",
    "qbch_series",
    "qbch_conjugate",
    "qexp_split",
    "exp_reorder_little",
    "exp_reorder_big",
    "exp_reorder_mixed",
    "classical_U",
    "classical_element",
]


def _classify(X: OperatorMatrix) -> str:
    """'diagonal', 'raising', or 'lowering'; UnsupportedShape otherwise.

    Raising/lowering means every nonzero entry strictly increases/decreases
    the total occupation n_A + n_B, which guarantees nilpotency on the
    truncated space.
    """
    m = X.entries
    rows, cols = np.nonzero(m)
    if rows.size == 0:
        return "diagonal"
    if np.array_equal(rows, cols):
        return "diagonal"
    basis = X.basis
    total = basis.na + basis.nb
    delta = total[rows] - total[cols]
    if np.all(delta > 0):
        return "raising"
    if np.all(delta < 0):
        return "lowering"
    raise UnsupportedShape(
        "matrix is neither diagonal nor purely raising/lowering in n_A + n_B"
    )


def matrix_qexp(
    X: OperatorMatrix, kind: str, scale: float, ctx: QContext
) -> OperatorMatrix:
    """q-exponential of scale*X for diagonal or nilpotent X.

    kind 'little' gives sum_k M^k/(q;q)_k, kind 'big' gives
    sum_k q^(k(k-1)/2) M^k/(q;q)_k.  Nilpotent arguments yield an exact
    finite sum; diagonal arguments are evaluated entrywise through the
    scalar product forms.
    """
    if kind not in ("little", "big"):
        raise ValueError(f"kind must be 'little' or 'big', got {kind!r}")
    shape = _classify(X)
    q = ctx.q
    if shape == "diagonal":
        diag = scale * np.diagonal(X.entries)
        fn = little_qexp if kind == "little" else big_qexp
        vals = np.array([fn(float(d), ctx).value for d in diag])
        return OperatorMatrix(np.diag(vals), X.basis)

    m = scale * X.entries
    dim = X.basis.dim
    acc = np.eye(dim)
    term = np.eye(dim)
    for k in range(1, dim + 1):
        term = (m @ term) / (1.0 - q**k)
        if kind == "big":
            term = term * q ** (k - 1)
        if not term.any():
            break
        acc = acc + term
    return OperatorMatrix(acc, X.basis)


def matrix_qexp_series(
    X: np.ndarray, kind: str, ctx: QContext, max_terms: int = 500
) -> np.ndarray:
    """Direct series q-exponential for a general (typically triangular)
    matrix whose powers decay; used for identities that mix diagonal and
    nilpotent parts.  Stops after three consecutive terms with Frobenius
    norm below tail_cutoff times the accumulated norm."""
    if kind not in ("little", "big"):
        raise ValueError(f"kind must be 'little' or 'big', got {kind!r}")
    q = ctx.q
    dim = X.shape[0]
    acc = np.eye(dim)
    term = np.eye(dim)
    small = 0
    for k in range(1, max_terms + 1):
        term = (X @ term) / (1.0 - q**k)
        if kind == "big":
            term = term * q ** (k - 1)
        acc = acc + term
        tnorm = np.linalg.norm(term)
        if tnorm < ctx.tail_cutoff * max(1.0, np.linalg.norm(acc)):
            small += 1
            if small >= 3:
                return acc
        else:
            small = 0
    raise NonConvergent(f"matrix q-exponential did not settle in {max_terms} terms")


def _block_levels(t: FockTruncation, d: int) -> np.ndarray:
    """n_A levels of the states |n_A, n_A + d> inside the truncation."""
    return np.arange(max(0, -d), min(t.n_a_max, t.n_b_max - d) + 1)


def _bidiagonal_qexp(sub: np.ndarray, kind: str, q: float) -> np.ndarray:
    """q-exponential of the nilpotent matrix whose only nonzero entries are
    the sub-diagonal sub.

    The k-th sub-diagonal of L^k holds the running products
    sub[i] ... sub[i+k-1], so entry (i+k, i) of the result is that product
    over (q;q)_k, times q^C(k,2) for the big kind.  The factors are applied
    one step at a time in the order of the dense power series, which keeps
    every intermediate at the size of a term of the result.
    """
    size = sub.size + 1
    out = np.eye(size)
    term = np.ones(size)
    for k in range(1, size):
        term = (sub[k - 1 :] * term[:-1]) / (1.0 - q**k)
        if kind == "big":
            term = term * q ** (k - 1)
        idx = np.arange(size - k)
        out[idx + k, idx] = term
    return out


@dataclass
class UOperator:
    """Built pseudorotation operator, stored one offset block at a time.

    blocks[d] is U restricted to the states |m, m+d>, d = n_B - n_A, with m
    running upward from max(0, -d); U has no entries between blocks.
    row_factor[n_A] and col_factor[n_B] are the diagonal outer factors
    e_q^(1/2)(-theta^2 q^-n_A) and E_q^(1/2)(theta^2 q^(n_B+1)) already
    folded into the blocks.  matrix and oscillators are the dense product
    space forms, built on first use.
    """

    blocks: dict[int, np.ndarray]
    row_factor: np.ndarray
    col_factor: np.ndarray
    theta: float
    beta: int
    truncation: FockTruncation
    ctx: QContext

    @cached_property
    def matrix(self) -> OperatorMatrix:
        t = self.truncation
        basis = ProductBasis(t)
        dense = np.zeros((basis.dim, basis.dim))
        for d, block in self.blocks.items():
            na = _block_levels(t, d)
            idx = na * (t.n_b_max + 1) + na + d
            dense[np.ix_(idx, idx)] = block
        return OperatorMatrix(dense, basis)

    @cached_property
    def oscillators(self) -> Oscillators:
        return build_oscillators(self.truncation, self.ctx)

    # interior = all levels except the top quarter of each oscillator
    @property
    def na_interior(self) -> int:
        cap = self.truncation.n_a_max
        return cap - math.ceil(cap / 4)

    @property
    def nb_interior(self) -> int:
        cap = self.truncation.n_b_max
        return cap - math.ceil(cap / 4)

    def sector_interior(self, beta: int) -> int:
        """Largest sector index n with both |n> legs inside the interior."""
        return min(self.na_interior, self.nb_interior - beta + 1)


def build_U(
    mp: MatrixElementParams, t: FockTruncation, edge_tol: float = 1e-6
) -> UOperator:
    """Assemble U(theta) on the truncated space, one offset block at a time.

    On the block of offset d the raising factor's argument
    theta(1-q) q^((d+1)/2) A+B+ is a sub-diagonal L_d and the lowering
    factor's is -L_d^T, so the block is
    d1 * (e_q(L_d) E_q(-L_d^T)) * d4 with both q-exponentials in closed
    form (_bidiagonal_qexp).

    Precondition: the truncation must hold the whole numerically relevant
    support of the mp.beta sector, measured by the edge weight
    sqrt(omega_edge) < edge_tol (the weight carries the decisive
    q^(x(x-1)/2) decay).  Violations raise TruncationTooSmall.
    """
    ctx = mp.ctx
    q = ctx.q
    theta = mp.theta
    edge = min(t.n_a_max, t.n_b_max - mp.beta + 1)
    if edge < 1:
        raise TruncationTooSmall(f"no room for sector beta={mp.beta} under {t}")
    w_edge = math.sqrt(weight(edge, mp))
    if w_edge >= edge_tol:
        raise TruncationTooSmall(
            f"edge weight {w_edge:.3g} >= {edge_tol:.3g}; "
            f"increase the truncation ({t})"
        )

    t2 = theta * theta
    row_factor = np.sqrt(
        np.array([little_qexp(-t2 * q ** (-n), ctx).value for n in range(t.n_a_max + 1)])
    )
    col_factor = np.sqrt(
        np.array([big_qexp(t2 * q ** (n + 1), ctx).value for n in range(t.n_b_max + 1)])
    )
    # <n+1|A+|n> and <n+1|B+|n> by the level n+1 they reach
    a_up = np.sqrt((1.0 - q ** np.arange(1.0, t.n_a_max + 1)) / (1.0 - q))
    b_up = np.sqrt((q ** -np.arange(1.0, t.n_b_max + 1) - 1.0) / (1.0 - q))

    blocks = {}
    # rows whose outer factor underflows meet overflowing middle entries;
    # element() refuses them, so the inf and nan they make are left in place
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(-t.n_a_max, t.n_b_max + 1):
            na = _block_levels(t, d)
            pref = q ** ((d + 1.0) / 2.0)
            sub = theta * (1.0 - q) * (pref * (a_up[na[:-1]] * b_up[na[:-1] + d]))
            mid = _bidiagonal_qexp(sub, "little", q) @ _bidiagonal_qexp(-sub, "big", q).T
            blocks[d] = row_factor[na][:, None] * mid * col_factor[na + d][None, :]
    return UOperator(
        blocks=blocks,
        row_factor=row_factor,
        col_factor=col_factor,
        theta=theta,
        beta=mp.beta,
        truncation=t,
        ctx=ctx,
    )


def element(u: UOperator, beta: int, n: int, x: int) -> float:
    """Sector matrix element <n|_beta U |x>_beta, read from block beta-1.

    Restricted to the interior part of the sector so that every returned
    element is also trustworthy in summed identities; outside that block
    OutOfBlock is raised.  Where an outer factor of the element underflows
    to zero or a subnormal, or is not finite, the four-factor product has
    lost the element and NonConvergent is raised; so it is for a non-finite
    element.
    """
    t = u.truncation
    if beta < 1 or beta - 1 > t.n_b_max:
        raise EmptySector(f"beta={beta} has no states under truncation {t}")
    cap = u.sector_interior(beta)
    if n < 0 or x < 0 or n > cap or x > cap:
        raise OutOfBlock(
            f"(n={n}, x={x}) outside interior block 0..{cap} of sector beta={beta}"
        )
    d = beta - 1
    value = float(u.blocks[d][n, x])
    d1 = float(u.row_factor[n])
    d4 = float(u.col_factor[x + d])
    if not (_normal(d1) and _normal(d4) and math.isfinite(value)):
        raise NonConvergent(
            f"<{n}|U|{x}> in sector beta={beta} is lost in double precision: "
            f"outer factors {d1:.3g} and {d4:.3g}, element {value:.3g}"
        )
    return value


def _normal(v: float) -> bool:
    """Finite and at least the smallest normal double in magnitude."""
    return math.isfinite(v) and abs(v) >= sys.float_info.min


def unitarity_residual(u: UOperator) -> float:
    """max |(UU^T - 1)_ij| and |(U^T U - 1)_ij| over the interior block.

    The two directions behave very differently: the row Gram matrix UU^T
    converges to the identity, the column Gram U^T U to a projector with
    diagonal entries strictly below 1.  The reported maximum is therefore an
    honest measure of how far the truncated matrix is from two-sided
    unitarity, not of the truncation quality alone.  Both Gram matrices are
    block-diagonal over offsets like U, so they are formed block by block.
    """
    t = u.truncation
    worst = []
    for d, block in u.blocks.items():
        na = _block_levels(t, d)
        keep = (na <= u.na_interior) & (na + d <= u.nb_interior)
        if not keep.any():
            continue
        eye = np.eye(block.shape[0])
        sub = np.ix_(keep, keep)
        worst.append(np.abs((block @ block.T - eye)[sub]).max())
        worst.append(np.abs((block.T @ block - eye)[sub]).max())
    return float(np.max(worst))


def interior_residual(
    lhs: np.ndarray,
    rhs: np.ndarray,
    basis,
    na_keep: int,
    nb_keep: int,
) -> float:
    """Relative max deviation of two operators on an interior block.

    Restricts both matrices to product states with n_A <= na_keep and
    n_B <= nb_keep, then returns max|lhs-rhs| / max(|lhs|, |rhs|, 1) over
    that block.
    """
    mask = interior_indices(basis, na_keep, nb_keep)
    return _interior_residual(lhs, rhs, mask)


def _interior_residual(
    lhs: np.ndarray, rhs: np.ndarray, mask: np.ndarray
) -> float:
    sub = np.ix_(mask, mask)
    l_sub = lhs[sub]
    r_sub = rhs[sub]
    norm = max(np.abs(l_sub).max(), np.abs(r_sub).max(), 1.0)
    return float(np.abs(l_sub - r_sub).max() / norm)


def _check_pair(u_theta: UOperator, u_shift: UOperator) -> None:
    q = u_theta.ctx.q
    expected = u_theta.theta * q ** (-0.5)
    if abs(u_shift.theta - expected) > 1e-12 * max(1.0, abs(expected)):
        raise ValueError(
            f"second operator must carry theta*q^(-1/2)={expected}, "
            f"got {u_shift.theta}"
        )
    if u_shift.truncation != u_theta.truncation:
        raise ValueError("operators must share one truncation")


def conjugated_lowering(
    u_theta: UOperator, u_shift: UOperator, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Conjugation of A- by the pseudorotation pair:

        U^T(q^(-1/2) theta) A- U(theta)
          = A- sqrt(1 + theta^2 q^B0) + theta q^((A0+B0)/2) B+ =: R.

    Certified in the multiplied-through arrangement

        A- U(theta) = U(q^(-1/2) theta) R,

    which is an entry-local identity, exact at any truncation; the sandwich
    itself inherits the column-incompleteness of the truncated U^T and is
    not formed.  Returns (R, interior residual); a residual above tol
    raises ResidualFailure instead of passing silently.
    """
    _check_pair(u_theta, u_shift)
    osc = u_theta.oscillators
    basis = osc.a0.basis
    q = u_theta.ctx.q
    theta = u_theta.theta
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)

    sqrt_b = np.sqrt(1.0 + theta**2 * q**nb)
    rhs_closed = osc.a_minus.entries * sqrt_b[None, :] + theta * (
        (q ** ((na + nb) / 2.0))[:, None] * osc.b_plus.entries
    )
    lhs = osc.a_minus.entries @ u_theta.matrix.entries
    rhs = u_shift.matrix.entries @ rhs_closed
    mask = interior_indices(basis, u_theta.na_interior, u_theta.nb_interior)
    residual = _interior_residual(lhs, rhs, mask)
    if not (residual <= tol):
        raise ResidualFailure(
            f"conjugated lowering residual {residual:.3g} > {tol:.3g}", residual
        )
    return rhs_closed, residual


def conjugated_raising(
    u_theta: UOperator, u_shift: UOperator, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Conjugation of A+ by the pseudorotation pair:

        U^T(theta) A+ U(q^(-1/2) theta)
          = A+ sqrt(1 + theta^2 q^B0) + theta B- q^((A0+B0)/2) =: R,

    certified as A+ U(q^(-1/2) theta) = U(theta) R.  Returns (R, residual).
    """
    _check_pair(u_theta, u_shift)
    osc = u_theta.oscillators
    basis = osc.a0.basis
    q = u_theta.ctx.q
    theta = u_theta.theta
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)

    sqrt_b = np.sqrt(1.0 + theta**2 * q**nb)
    rhs_closed = osc.a_plus.entries * sqrt_b[None, :] + theta * (
        osc.b_minus.entries * (q ** ((na + nb) / 2.0))[None, :]
    )
    lhs = osc.a_plus.entries @ u_shift.matrix.entries
    rhs = u_theta.matrix.entries @ rhs_closed
    mask = interior_indices(basis, u_theta.na_interior, u_theta.nb_interior)
    residual = _interior_residual(lhs, rhs, mask)
    if not (residual <= tol):
        raise ResidualFailure(
            f"conjugated raising residual {residual:.3g} > {tol:.3g}", residual
        )
    return rhs_closed, residual


def conjugated_lowering_dual(
    u: UOperator, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Same-parameter conjugation moving the boost factor with A-:

        U(theta) q^(-A0/2) A- U^T(theta)
          = q^(-A0/2) A- sqrt(1 + theta^2 q^-A0) - theta q^-A0 q^(B0/2) B+ =: R,

    certified as U(theta) (q^(-A0/2) A-) = R U(theta).  Returns
    (R, residual).
    """
    osc = u.oscillators
    basis = osc.a0.basis
    q = u.ctx.q
    theta = u.theta
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)

    mid = (q ** (-na / 2.0))[:, None] * osc.a_minus.entries
    sqrt_a = np.sqrt(1.0 + theta**2 * q ** (-na))
    rhs_closed = mid * sqrt_a[None, :] - theta * (
        (q ** (-na) * q ** (nb / 2.0))[:, None] * osc.b_plus.entries
    )
    lhs = u.matrix.entries @ mid
    rhs = rhs_closed @ u.matrix.entries
    mask = interior_indices(basis, u.na_interior, u.nb_interior)
    residual = _interior_residual(lhs, rhs, mask)
    if not (residual <= tol):
        raise ResidualFailure(
            f"dual conjugated lowering residual {residual:.3g} > {tol:.3g}", residual
        )
    return rhs_closed, residual


def conjugated_raising_dual(
    u: UOperator, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Same-parameter conjugation moving the boost factor with A+:

        U(theta) A+ q^(-A0/2) U^T(theta)
          = sqrt(1 + theta^2 q^-A0) A+ q^(-A0/2) - theta q^-A0 B- q^(B0/2) =: R,

    certified as U(theta) (A+ q^(-A0/2)) = R U(theta).  Returns
    (R, residual).
    """
    osc = u.oscillators
    basis = osc.a0.basis
    q = u.ctx.q
    theta = u.theta
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)

    mid = osc.a_plus.entries * (q ** (-na / 2.0))[None, :]
    sqrt_a = np.sqrt(1.0 + theta**2 * q ** (-na))
    rhs_closed = sqrt_a[:, None] * mid - theta * (
        (q ** (-na))[:, None] * osc.b_minus.entries * (q ** (nb / 2.0))[None, :]
    )
    lhs = u.matrix.entries @ mid
    rhs = rhs_closed @ u.matrix.entries
    mask = interior_indices(basis, u.na_interior, u.nb_interior)
    residual = _interior_residual(lhs, rhs, mask)
    if not (residual <= tol):
        raise ResidualFailure(
            f"dual conjugated raising residual {residual:.3g} > {tol:.3g}", residual
        )
    return rhs_closed, residual


def qbch_series(
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    alpha: float,
    kind: str,
    ctx: QContext,
    max_order: int = 60,
) -> np.ndarray:
    """Nested q-commutator series for q-exponential conjugation.

    kind 'big' evaluates sum_n lam^n/(q;q)_n C_n with C_0 = Y and
    C_{n+1} = q^n X C_n - q^alpha C_n X, the series equal to
    E_q(lam X) Y e_q(-lam q^alpha X); kind 'little' uses the primed
    recursion C_{n+1} = X C_n - q^(n+alpha) C_n X matching
    e_q(lam X) Y E_q(-lam q^alpha X).

    Stops once the term norm drops below tail_cutoff times the accumulated
    norm (nilpotent X terminates exactly); NonConvergent past max_order.
    """
    if kind not in ("little", "big"):
        raise ValueError(f"kind must be 'little' or 'big', got {kind!r}")
    q = ctx.q
    qa = q**alpha
    acc = y.copy()
    c = y
    coef = 1.0
    for n in range(1, max_order + 1):
        if kind == "big":
            c = q ** (n - 1) * (x @ c) - qa * (c @ x)
        else:
            c = x @ c - q ** (n - 1) * qa * (c @ x)
        coef *= lam / (1.0 - q**n)
        term = coef * c
        acc = acc + term
        tnorm = np.linalg.norm(term)
        if tnorm <= ctx.tail_cutoff * max(np.linalg.norm(acc), 1.0):
            return acc
    raise NonConvergent(
        f"q-commutator series did not settle within {max_order} orders"
    )


def qbch_conjugate(
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    alpha: float,
    kind: str,
    ctx: QContext,
) -> np.ndarray:
    """Direct product evaluation matching qbch_series.

    kind 'big': E_q(lam X) Y e_q(-lam q^alpha X); kind 'little':
    e_q(lam X) Y E_q(-lam q^alpha X).
    """
    if kind not in ("little", "big"):
        raise ValueError(f"kind must be 'little' or 'big', got {kind!r}")
    qa = ctx.q**alpha
    if kind == "big":
        left = matrix_qexp_series(lam * x, "big", ctx)
        right = matrix_qexp_series(-lam * qa * x, "little", ctx)
    else:
        left = matrix_qexp_series(lam * x, "little", ctx)
        right = matrix_qexp_series(-lam * qa * x, "big", ctx)
    return left @ y @ right


def qexp_split(
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
    ctx: QContext,
    comm_tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Factorization of a q-exponential of a q-commuting sum.

    For XY = qYX the little kind satisfies e_q(X+Y) = e_q(Y) e_q(X) and the
    big kind E_q(X+Y) = E_q(X) E_q(Y).  The premise is validated first
    (UnsupportedShape when violated); returns (combined, split).
    """
    if kind not in ("little", "big"):
        raise ValueError(f"kind must be 'little' or 'big', got {kind!r}")
    xy = x @ y
    yx = y @ x
    scale = max(np.abs(xy).max(), np.abs(yx).max(), 1.0)
    if np.abs(xy - ctx.q * yx).max() > comm_tol * scale:
        raise UnsupportedShape("arguments do not satisfy XY = qYX")
    combined = matrix_qexp_series(x + y, kind, ctx)
    if kind == "little":
        split = matrix_qexp_series(y, kind, ctx) @ matrix_qexp_series(x, kind, ctx)
    else:
        split = matrix_qexp_series(x, kind, ctx) @ matrix_qexp_series(y, kind, ctx)
    return combined, split


def _scaled_ladders(
    osc: Oscillators, ctx: QContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boost-scaled pair ladders K± = (1-q) q^((B0-A0+1)/2) A± B±."""
    basis = osc.a0.basis
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)
    pref = (1.0 - ctx.q) * ctx.q ** ((nb - na + 1.0) / 2.0)
    k_plus = pref[:, None] * (osc.a_plus.entries @ osc.b_plus.entries)
    k_minus = pref[:, None] * (osc.a_minus.entries @ osc.b_minus.entries)
    return k_plus, k_minus, na, nb


def _diag_qexp(kind: str, args: np.ndarray, ctx: QContext) -> np.ndarray:
    fn = little_qexp if kind == "little" else big_qexp
    return np.diag(np.array([fn(float(v), ctx).value for v in args]))


def exp_reorder_little(
    a: float, b: float, osc: Oscillators, ctx: QContext
) -> tuple[np.ndarray, np.ndarray]:
    """Little-q-exponential reordering across a diagonal middle factor:

        e_q(a K-) e_q(-a b q^-A0) e_q(b K+)
          = e_q(b K+) e_q(-a b q^(B0+1)) e_q(a K-)

    with K± the boost-scaled pair ladders.  Valid analytically while
    |a b| q^(-n_A) < 1 over contributing levels; near the truncation edge
    the broken ladder algebra leaks inward, so compare on a deep interior
    block.  Returns (lhs, rhs).
    """
    k_plus, k_minus, na, nb = _scaled_ladders(osc, ctx)
    basis = osc.a0.basis
    e_km = matrix_qexp(OperatorMatrix(k_minus, basis), "little", a, ctx).entries
    e_kp = matrix_qexp(OperatorMatrix(k_plus, basis), "little", b, ctx).entries
    mid_l = _diag_qexp("little", -a * b * ctx.q ** (-na), ctx)
    mid_r = _diag_qexp("little", -a * b * ctx.q ** (nb + 1.0), ctx)
    return e_km @ mid_l @ e_kp, e_kp @ mid_r @ e_km


def exp_reorder_big(
    a: float, b: float, osc: Oscillators, ctx: QContext
) -> tuple[np.ndarray, np.ndarray]:
    """Big-q-exponential counterpart of exp_reorder_little:

        E_q(a K+) E_q(a b q^-A0) E_q(b K-)
          = E_q(b K-) E_q(a b q^(B0+1)) E_q(a K+).

    Returns (lhs, rhs); same domain and edge caveats.
    """
    k_plus, k_minus, na, nb = _scaled_ladders(osc, ctx)
    basis = osc.a0.basis
    e_kp = matrix_qexp(OperatorMatrix(k_plus, basis), "big", a, ctx).entries
    e_km = matrix_qexp(OperatorMatrix(k_minus, basis), "big", b, ctx).entries
    mid_l = _diag_qexp("big", a * b * ctx.q ** (-na), ctx)
    mid_r = _diag_qexp("big", a * b * ctx.q ** (nb + 1.0), ctx)
    return e_kp @ mid_l @ e_km, e_km @ mid_r @ e_kp


def exp_reorder_mixed(
    a: float, b: float, osc: Oscillators, ctx: QContext
) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-kind reordering used to fuse the two nilpotent factors:

        E_q(a K-) e_q(b K+)
          = e_q(a b q^-A0) e_q(b K+) E_q(a K-) E_q(-a b q^(B0+1)).

    Returns (lhs, rhs); same domain and edge caveats.
    """
    k_plus, k_minus, na, nb = _scaled_ladders(osc, ctx)
    basis = osc.a0.basis
    e_km = matrix_qexp(OperatorMatrix(k_minus, basis), "big", a, ctx).entries
    e_kp = matrix_qexp(OperatorMatrix(k_plus, basis), "little", b, ctx).entries
    mid_1 = _diag_qexp("little", a * b * ctx.q ** (-na), ctx)
    mid_2 = _diag_qexp("big", -a * b * ctx.q ** (nb + 1.0), ctx)
    return e_km @ e_kp, mid_1 @ e_kp @ e_km @ mid_2


def classical_U(tau: float, t: FockTruncation) -> OperatorMatrix:
    """exp(tau (J~+ - J~-)) on the truncated classical space.

    The generator is exactly antisymmetric under truncation, so the result
    is orthogonal to machine precision; only comparisons against the
    infinite-space closed form need interior margins.
    """
    cl = build_classical(t)
    gen = tau * (cl.j_plus.entries - cl.j_minus.entries)
    return OperatorMatrix(scipy.linalg.expm(gen), cl.j0.basis)


def classical_element(u: OperatorMatrix, t: FockTruncation, beta: int, n: int, x: int) -> float:
    """Sector element <n|_beta exp(tau(J~+ - J~-)) |x>_beta."""
    sec = sector(t, beta)
    if n >= sec.size or x >= sec.size:
        raise OutOfBlock(f"(n={n}, x={x}) outside sector of size {sec.size}")
    return float(u.entries[sec.indices[n], sec.indices[x]])
