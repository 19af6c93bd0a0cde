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
N + 1, each built on first read; the dense product-space matrix and the
ladder matrices only when UOperator.matrix or .oscillators is read.  The
sector elements <n|_beta U |x>_beta reproduce the closed-form overlap
coefficients xi_{n,x} to rounding error at any truncation, because every
ladder path between interior states stays interior.

The operator functions behind the identities work the same way.  Every
generator they take leaves small blocks of states invariant (an offset
sector for the pair ladders, a single state for a diagonal, a column of
fixed n_B for A+), so matrix_qexp and qbch_series find the connected
components of their arguments' nonzero pattern and sum one series on the
stack of all blocks of each size; qbch_conjugate, qexp_split and the
exp_reorder_* identities inherit that.  classical_U exponentiates
J~+ - J~- one offset block at a time, each on its first read.  Dense
product-space matrices exist only at the API edge: they are what these
functions take and return.

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
from dataclasses import dataclass, field
from functools import cached_property

from ._lazy import NumpyOnFirstUse
from .errors import (
    EmptySector,
    NonConvergent,
    OutOfBlock,
    ResidualFailure,
    TruncationTooSmall,
    UnsupportedShape,
)
from .meixner import MatrixElementParams, classical_c, weight
from .oscillator import (
    FockTruncation,
    OperatorMatrix,
    Oscillators,
    build_oscillators,
    from_offset_blocks,
    interior_indices,
    ladder_coefficients,
    offset_block,
    sector_offset,
    su11_generators,
)
from .qseries import MAX_TERMS, TAIL_CUTOFF, TAIL_STREAK, QContext, big_qexp, little_qexp

np = NumpyOnFirstUse(globals())

__all__ = [
    "matrix_qexp",
    "matrix_qexp_series",
    "UOperator",
    "ClassicalU",
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
    "sector_interior",
]


# the tolerance of the XY = qYX premise of qexp_split
_COMM_TOL = 1e-12


def _check_kind(kind: str) -> None:
    if kind not in ("little", "big"):
        raise ValueError(f"kind must be 'little' or 'big', got {kind!r}")


def _invariant_blocks(*mats: np.ndarray):
    """The blocks that every one of mats leaves invariant, grouped by size.

    The blocks are the connected components of the joint nonzero pattern.
    Yields (ix, stacks) per block size s: ix indexes the blocks of that size
    in a dense matrix (m[ix] has shape (count, s, s), states in ascending
    order within each block) and stacks holds m[ix] for each m in mats.
    Every state lies in exactly one block, so a matrix zero between blocks
    is rebuilt by writing each stack back through its ix.
    """
    pattern = np.zeros(mats[0].shape, dtype=bool)
    for m in mats:
        pattern |= m != 0
    rows, cols = np.nonzero(pattern)
    # every state takes the smallest label among itself and its neighbours,
    # then its label's label, until nothing moves: each state then carries
    # the smallest index of its component
    labels = np.arange(pattern.shape[0])
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    _, labels = np.unique(labels, return_inverse=True)
    members = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    for s in np.unique(sizes):
        idx = members[starts[sizes == s][:, None] + np.arange(s)]
        ix = (idx[:, :, None], idx[:, None, :])
        yield ix, [m[ix] for m in mats]


def _block_series(start, step) -> np.ndarray:
    """start + t_1 + t_2 + ... with t_k = step(k, t_(k-1)), summed on a
    stack of blocks (count, s, s) at once.

    Each block ends by the tail rule of qseries, start being its first term;
    the sum returns once every block has ended.  NonConvergent is raised at
    the first term that is not finite (or whose norm overflows), and when a
    block has not ended within MAX_TERMS terms.
    """
    term = np.array(start, dtype=float)
    acc = term
    largest = np.zeros(len(acc))
    streak = np.zeros(len(acc), dtype=int)
    ended = np.zeros(len(acc), dtype=bool)
    # an overflow or invalid value is refused below, at the term it made
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(MAX_TERMS):
            if k:
                term = step(k, term)
                acc = acc + term
            size = np.linalg.norm(term, axis=(1, 2))
            if not np.isfinite(size).all():
                raise NonConvergent(f"term {k} of the series is not finite")
            largest = np.maximum(largest, size)
            streak = np.where(size <= TAIL_CUTOFF * largest, streak + 1, 0)
            ended |= streak >= TAIL_STREAK
            if ended.all():
                return acc
    raise NonConvergent(f"series did not settle in {MAX_TERMS} terms")


def matrix_qexp(X: np.ndarray, kind: str, ctx: QContext) -> np.ndarray:
    """q-exponential of X, one invariant block of X at a time.

    kind 'little' gives sum_k X^k/(q;q)_k, kind 'big' gives
    sum_k q^(k(k-1)/2) X^k/(q;q)_k.  A block of one state is a scalar,
    evaluated through the product forms, which hold off the poles for any
    size of argument.  A larger block is summed by the term recursion
    t_k = X t_(k-1) / (1 - q^k), times q^(k-1) for the big kind, and ends
    by the tail rule of qseries (a nilpotent block of s states at term
    s + 2); NonConvergent where it does not.
    """
    _check_kind(kind)
    q = ctx.q
    out = np.zeros(X.shape)
    for ix, (blk,) in _invariant_blocks(X):
        if blk.shape[1] == 1:
            out[ix] = _diag_qexp(kind, blk[:, 0, 0], ctx)[:, None, None]
            continue

        def step(k, term, blk=blk):
            term = (blk @ term) / (1.0 - q**k)
            return term * q ** (k - 1) if kind == "big" else term

        out[ix] = _block_series(np.broadcast_to(np.eye(blk.shape[1]), blk.shape), step)
    return out


# the benchmark's warm-up calls this name, and its tracer wraps both names
matrix_qexp_series = matrix_qexp


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
class _OffsetBlocks:
    """An operator that keeps the offset d = n_B - n_A, one dense block per
    offset: block(d) builds block d by _build on its first read and caches
    it; matrix is the dense product-space form, built from every block."""

    blocks: dict[int, np.ndarray] = field(default_factory=dict, init=False)

    @property
    def offsets(self) -> range:
        t = self.truncation
        return range(-t.n_a_max, t.n_b_max + 1)

    def block(self, d: int) -> np.ndarray:
        if d not in self.blocks:
            if d not in self.offsets:
                raise EmptySector(f"offset {d} has no states under {self.truncation}")
            self.blocks[d] = self._build(d)
        return self.blocks[d]

    @cached_property
    def matrix(self) -> OperatorMatrix:
        return from_offset_blocks(self.truncation, {d: self.block(d) for d in self.offsets})


@dataclass
class UOperator(_OffsetBlocks):
    """Built pseudorotation operator, stored one offset block at a time.

    block(d) is U restricted to the states |m, m+d>, d = n_B - n_A, with m
    running upward from max(0, -d), built on first read; U has no entries
    between blocks.  row_factor[n_A] and col_factor[n_B] are the diagonal
    outer factors e_q^(1/2)(-theta^2 q^-n_A) and E_q^(1/2)(theta^2 q^(n_B+1))
    folded into the blocks, a_up[n], b_up[n] are <n+1|A+|n>, <n+1|B+|n>.
    oscillators are the ladder matrices of the truncation, built on first use.
    """

    row_factor: np.ndarray
    col_factor: np.ndarray
    a_up: np.ndarray
    b_up: np.ndarray
    theta: float
    truncation: FockTruncation
    ctx: QContext

    def _build(self, d: int) -> np.ndarray:
        q = self.ctx.q
        # rows whose outer factor underflows meet overflowing middle entries;
        # element() refuses them, so the inf and nan they make are left in place
        with np.errstate(over="ignore", invalid="ignore"):
            na, _ = offset_block(self.truncation, d)
            pref = q ** ((d + 1.0) / 2.0)
            sub = self.theta * (1.0 - q) * (pref * (self.a_up[na[:-1]] * self.b_up[na[:-1] + d]))
            mid = _bidiagonal_qexp(sub, "little", q) @ _bidiagonal_qexp(-sub, "big", q).T
            return self.row_factor[na][:, None] * mid * self.col_factor[na + d][None, :]

    @cached_property
    def oscillators(self) -> Oscillators:
        return build_oscillators(self.truncation, self.ctx)

    @property
    def na_interior(self) -> int:
        return _interior(self.truncation.n_a_max)

    @property
    def nb_interior(self) -> int:
        return _interior(self.truncation.n_b_max)

    def sector_interior(self, beta: int) -> int:
        return sector_interior(self.truncation, beta)


def _interior(cap: int) -> int:
    """Top interior level of one oscillator: all but the top quarter."""
    return cap - math.ceil(cap / 4)


def sector_interior(t: FockTruncation, beta: int) -> int:
    """Largest sector index n with both legs of |n, n+beta-1> inside the
    interior of the truncation t."""
    return min(_interior(t.n_a_max), _interior(t.n_b_max) - beta + 1)


def build_U(
    mp: MatrixElementParams, t: FockTruncation, edge_tol: float = 1e-6
) -> UOperator:
    """U(theta) on the truncated space, each offset block built on first read.

    On the block of offset d the raising factor's argument
    theta(1-q) q^((d+1)/2) A+B+ is a sub-diagonal L_d and the lowering
    factor's is -L_d^T, so the block is
    d1 * (e_q(L_d) E_q(-L_d^T)) * d4 with both q-exponentials in closed
    form (_bidiagonal_qexp), which UOperator.block(d) evaluates on first read.

    Precondition: the truncation must hold the whole numerically relevant
    support of the mp.beta sector, measured by the edge weight
    sqrt(omega_edge) < edge_tol (the weight carries the decisive
    q^(x(x-1)/2) decay).  Violations raise TruncationTooSmall.
    """
    ctx = mp.ctx
    q = ctx.q
    levels, _ = offset_block(t, mp.beta - 1)
    if levels.size < 2:
        raise TruncationTooSmall(f"no room for sector beta={mp.beta} under {t}")
    w_edge = math.sqrt(weight(int(levels[-1]), mp))
    if w_edge >= edge_tol:
        raise TruncationTooSmall(
            f"edge weight {w_edge:.3g} >= {edge_tol:.3g}; "
            f"increase the truncation ({t})"
        )

    t2 = mp.theta * mp.theta
    row_factor = np.sqrt(
        np.array([little_qexp(-t2 * q ** (-n), ctx).value for n in range(t.n_a_max + 1)])
    )
    col_factor = np.sqrt(
        np.array([big_qexp(t2 * q ** (n + 1), ctx).value for n in range(t.n_b_max + 1)])
    )
    a_up, b_up = ladder_coefficients(t, q)
    return UOperator(row_factor, col_factor, a_up, b_up, mp.theta, t, ctx)


def element(u: UOperator, beta: int, n: int, x: int) -> float:
    """Sector matrix element <n|_beta U |x>_beta, read from block beta-1.

    Restricted to the interior part of the sector so that every returned
    element is also trustworthy in summed identities; outside that block
    OutOfBlock is raised.  Where an outer factor of the element underflows
    to zero or a subnormal, or is not finite, the four-factor product has
    lost the element and NonConvergent is raised; so it is for a non-finite
    element.
    """
    d = sector_offset(u.truncation, beta)
    cap = u.sector_interior(beta)
    if n < 0 or x < 0 or n > cap or x > cap:
        raise OutOfBlock(
            f"(n={n}, x={x}) outside interior block 0..{cap} of sector beta={beta}"
        )
    value = float(u.block(d)[n, x])
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
    for d in u.offsets:
        block = u.block(d)
        na, _ = offset_block(t, d)
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


def _certify(
    name: str,
    u: UOperator,
    lhs: np.ndarray,
    rhs: np.ndarray,
    closed: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, float]:
    """The gate of the conjugation identities: the residual of lhs = rhs on the
    interior block of u, ResidualFailure unless it is at most tol (a NaN
    residual fails).  Returns (closed, residual)."""
    basis = u.oscillators.a0.basis
    residual = interior_residual(lhs, rhs, basis, u.na_interior, u.nb_interior)
    if not (residual <= tol):
        raise ResidualFailure(f"{name} residual {residual:.3g} > {tol:.3g}", residual)
    return closed, residual


def _levels(u: UOperator) -> tuple[Oscillators, float, float, np.ndarray, np.ndarray]:
    """(ladders, q, theta, n_A, n_B) of the product space u acts on."""
    osc = u.oscillators
    basis = osc.a0.basis
    return osc, u.ctx.q, u.theta, basis.na.astype(float), basis.nb.astype(float)


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
    osc, q, theta, na, nb = _levels(u_theta)
    sqrt_b = np.sqrt(1.0 + theta * theta * q**nb)
    r = osc.a_minus.entries * sqrt_b[None, :] + theta * (
        (q ** ((na + nb) / 2.0))[:, None] * osc.b_plus.entries
    )
    lhs = osc.a_minus.entries @ u_theta.matrix.entries
    rhs = u_shift.matrix.entries @ r
    return _certify("conjugated lowering", u_theta, lhs, rhs, r, tol)


def conjugated_raising(
    u_theta: UOperator, u_shift: UOperator, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Conjugation of A+ by the pseudorotation pair:

        U^T(theta) A+ U(q^(-1/2) theta)
          = A+ sqrt(1 + theta^2 q^B0) + theta B- q^((A0+B0)/2) =: R,

    certified as A+ U(q^(-1/2) theta) = U(theta) R.  Returns (R, residual).
    """
    _check_pair(u_theta, u_shift)
    osc, q, theta, na, nb = _levels(u_theta)
    sqrt_b = np.sqrt(1.0 + theta * theta * q**nb)
    r = osc.a_plus.entries * sqrt_b[None, :] + theta * (
        osc.b_minus.entries * (q ** ((na + nb) / 2.0))[None, :]
    )
    lhs = osc.a_plus.entries @ u_shift.matrix.entries
    rhs = u_theta.matrix.entries @ r
    return _certify("conjugated raising", u_theta, lhs, rhs, r, tol)


def conjugated_lowering_dual(
    u: UOperator, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Same-parameter conjugation moving the boost factor with A-:

        U(theta) q^(-A0/2) A- U^T(theta)
          = q^(-A0/2) A- sqrt(1 + theta^2 q^-A0) - theta q^-A0 q^(B0/2) B+ =: R,

    certified as U(theta) (q^(-A0/2) A-) = R U(theta).  Returns
    (R, residual).
    """
    osc, q, theta, na, nb = _levels(u)
    mid = (q ** (-na / 2.0))[:, None] * osc.a_minus.entries
    sqrt_a = np.sqrt(1.0 + theta * theta * q ** (-na))
    r = mid * sqrt_a[None, :] - theta * (
        (q ** (-na) * q ** (nb / 2.0))[:, None] * osc.b_plus.entries
    )
    m = u.matrix.entries
    return _certify("dual conjugated lowering", u, m @ mid, r @ m, r, tol)


def conjugated_raising_dual(
    u: UOperator, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Same-parameter conjugation moving the boost factor with A+:

        U(theta) A+ q^(-A0/2) U^T(theta)
          = sqrt(1 + theta^2 q^-A0) A+ q^(-A0/2) - theta q^-A0 B- q^(B0/2) =: R,

    certified as U(theta) (A+ q^(-A0/2)) = R U(theta).  Returns
    (R, residual).
    """
    osc, q, theta, na, nb = _levels(u)
    mid = osc.a_plus.entries * (q ** (-na / 2.0))[None, :]
    sqrt_a = np.sqrt(1.0 + theta * theta * q ** (-na))
    r = sqrt_a[:, None] * mid - theta * (
        (q ** (-na))[:, None] * osc.b_minus.entries * (q ** (nb / 2.0))[None, :]
    )
    m = u.matrix.entries
    return _certify("dual conjugated raising", u, m @ mid, r @ m, r, tol)


def qbch_series(
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    alpha: float,
    kind: str,
    ctx: QContext,
) -> np.ndarray:
    """Nested q-commutator series for q-exponential conjugation.

    kind 'big' evaluates sum_n lam^n/(q;q)_n C_n with C_0 = Y and
    C_{n+1} = q^n X C_n - q^alpha C_n X, the series equal to
    E_q(lam X) Y e_q(-lam q^alpha X); kind 'little' uses the primed
    recursion C_{n+1} = X C_n - q^(n+alpha) C_n X matching
    e_q(lam X) Y E_q(-lam q^alpha X).

    Summed on the joint invariant blocks of X and Y, each of which ends by
    the tail rule of qseries; NonConvergent past MAX_TERMS terms.
    """
    _check_kind(kind)
    q = ctx.q
    qa = q**alpha
    out = np.zeros(y.shape)
    for ix, (x_blk, y_blk) in _invariant_blocks(x, y):

        def step(n, term, x_blk=x_blk):
            if kind == "big":
                c = q ** (n - 1) * (x_blk @ term) - qa * (term @ x_blk)
            else:
                c = x_blk @ term - q ** (n - 1) * qa * (term @ x_blk)
            return (lam / (1.0 - q**n)) * c

        out[ix] = _block_series(y_blk, step)
    return out


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
    left = matrix_qexp(lam * x, kind, ctx)  # rejects an unknown kind
    other = "little" if kind == "big" else "big"
    right = matrix_qexp(-lam * ctx.q**alpha * x, other, ctx)
    return left @ y @ right


def qexp_split(
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
    ctx: QContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Factorization of a q-exponential of a q-commuting sum.

    For XY = qYX the little kind satisfies e_q(X+Y) = e_q(Y) e_q(X) and the
    big kind E_q(X+Y) = E_q(X) E_q(Y).  The premise is validated first
    (UnsupportedShape when violated); returns (combined, split).
    """
    _check_kind(kind)
    xy = x @ y
    yx = y @ x
    scale = max(np.abs(xy).max(), np.abs(yx).max(), 1.0)
    if np.abs(xy - ctx.q * yx).max() > _COMM_TOL * scale:
        raise UnsupportedShape("arguments do not satisfy XY = qYX")
    combined = matrix_qexp(x + y, kind, ctx)
    first, second = (y, x) if kind == "little" else (x, y)
    split = matrix_qexp(first, kind, ctx) @ matrix_qexp(second, kind, ctx)
    return combined, split


def _scaled_ladders(
    osc: Oscillators, ctx: QContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boost-scaled pair ladders K± = (1-q) q^((B0-A0+1)/2) A± B±, with
    the level arrays n_A and n_B."""
    basis = osc.a0.basis
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)
    pref = (1.0 - ctx.q) * ctx.q ** ((nb - na + 1.0) / 2.0)
    _, k_plus, k_minus = su11_generators(osc, pref)
    return k_plus.entries, k_minus.entries, na, nb


def _diag_qexp(kind: str, args: np.ndarray, ctx: QContext) -> np.ndarray:
    """Scalar q-exponentials of args, one product form per distinct value
    (a diagonal over the product space depends on n_A or n_B alone)."""
    fn = little_qexp if kind == "little" else big_qexp
    values, inverse = np.unique(args, return_inverse=True)
    return np.array([fn(float(v), ctx).value for v in values])[inverse]


def _exp_reorder(
    kind: str, a: float, b: float, osc: Oscillators, ctx: QContext
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of F(a X) F(s a b q^-A0) F(b Y) = F(b Y) F(s a b q^(B0+1)) F(a X)
    with F the q-exponential of the kind: X, Y, s = K-, K+, -1 for little and
    K+, K-, +1 for big."""
    k_plus, k_minus, na, nb = _scaled_ladders(osc, ctx)
    x, y, ab = (k_minus, k_plus, -a * b) if kind == "little" else (k_plus, k_minus, a * b)
    e_x = matrix_qexp(a * x, kind, ctx)
    e_y = matrix_qexp(b * y, kind, ctx)
    mid_l = _diag_qexp(kind, ab * ctx.q ** (-na), ctx)
    mid_r = _diag_qexp(kind, ab * ctx.q ** (nb + 1.0), ctx)
    return (e_x * mid_l) @ e_y, (e_y * mid_r) @ e_x


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
    return _exp_reorder("little", a, b, osc, ctx)


def exp_reorder_big(
    a: float, b: float, osc: Oscillators, ctx: QContext
) -> tuple[np.ndarray, np.ndarray]:
    """Big-q-exponential counterpart of exp_reorder_little:

        E_q(a K+) E_q(a b q^-A0) E_q(b K-)
          = E_q(b K-) E_q(a b q^(B0+1)) E_q(a K+).

    Returns (lhs, rhs); same domain and edge caveats.
    """
    return _exp_reorder("big", a, b, osc, ctx)


def exp_reorder_mixed(
    a: float, b: float, osc: Oscillators, ctx: QContext
) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-kind reordering used to fuse the two nilpotent factors:

        E_q(a K-) e_q(b K+)
          = e_q(a b q^-A0) e_q(b K+) E_q(a K-) E_q(-a b q^(B0+1)).

    Returns (lhs, rhs); same domain and edge caveats.
    """
    k_plus, k_minus, na, nb = _scaled_ladders(osc, ctx)
    e_km = matrix_qexp(a * k_minus, "big", ctx)
    e_kp = matrix_qexp(b * k_plus, "little", ctx)
    mid_1 = _diag_qexp("little", a * b * ctx.q ** (-na), ctx)
    mid_2 = _diag_qexp("big", -a * b * ctx.q ** (nb + 1.0), ctx)
    return e_km @ e_kp, ((mid_1[:, None] * e_kp) @ e_km) * mid_2


@dataclass
class ClassicalU(_OffsetBlocks):
    """exp(tau (J~+ - J~-)) on the truncated classical space, stored one
    offset block at a time like UOperator.

    J~+ = A~+B~+ takes |m, m+d> to sqrt((m+1)(m+1+d)) |m+1, m+1+d>, so on
    the block of offset d the generator is that sub-diagonal minus its
    transpose.  block(d) exponentiates that block alone on its first read;
    matrix is the dense product-space form, built from every block on
    first read.  The generator is exactly antisymmetric under truncation, so
    the result is orthogonal to machine precision; only comparisons against
    the infinite-space closed form need interior margins.
    """

    tau: float
    truncation: FockTruncation

    def _build(self, d: int) -> np.ndarray:
        # imported here: scipy.linalg costs about 0.2 s of start-up, and
        # only the classical limit needs it
        import scipy.linalg

        m = offset_block(self.truncation, d)[0][:-1].astype(float)
        up = self.tau * np.sqrt((m + 1.0) * (m + 1.0 + d))
        return scipy.linalg.expm(np.diag(up, -1) - np.diag(up, 1))


def classical_U(tau: float, t: FockTruncation) -> ClassicalU:
    """exp(tau (J~+ - J~-)) on the truncation t, its blocks exponentiated
    as they are read; tau is refused by classical_c's rule."""
    classical_c(tau)
    return ClassicalU(tau, t)


def classical_element(u: ClassicalU, beta: int, n: int, x: int) -> float:
    """Sector element <n|_beta exp(tau(J~+ - J~-)) |x>_beta, read from block
    beta - 1 of u's truncation; OutOfBlock for n or x outside that block."""
    block = u.block(sector_offset(u.truncation, beta))
    if n < 0 or x < 0 or n >= len(block) or x >= len(block):
        raise OutOfBlock(f"(n={n}, x={x}) outside sector of size {len(block)}")
    return float(block[n, x])
