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
So U depends on q, theta and the truncation alone, and one U serves every
sector it holds: beta enters only when element() reads block beta - 1.
build_U stores U that way, one dense block per offset of side at most
N + 1, each built on first read; the dense product-space matrix and the
ladder matrices only when UOperator.matrix or .oscillators is read.
Both outer factors are values of F(m) = (-theta^2 q^m; q)_oo, whose
neighbours differ by one factor 1 + theta^2 q^m, so a build takes one
infinite product, F(0), and walks from it one factor per level: d1[n] =
F(-n)^(-1/2) and d4[n] = F(n+1)^(1/2).  Entry (n, x) of block d,
d1[n] sum_{k <= min(n, x)} e_q(L_d)[n, k] E_q(-L_d^T)[k, x] d4[x + d], is a
finite sum that never reaches the truncation edge, so it is the same at
every truncation that holds it; the sector elements <n|_beta U |x>_beta
reproduce xi_{n,x} up to the rounding and cancellation of that sum (2.8e-9
near n, x = 60 at q = 0.9).

The operator functions behind the identities work the same way.  Every
generator they take leaves small blocks of states invariant (an offset
sector for the pair ladders, a single state for a diagonal, a column of
fixed n_B for A+), so matrix_qexp and qbch_series find the connected
components of their arguments' nonzero pattern and sum one series per
size class of blocks (s states in class ceil(log2 s), zero-padded to the
largest of the class); qbch_conjugate, qexp_split and the exp_reorder_*
identities inherit that, and the conjugated_* identities multiply by U
one offset block at a time.  classical_U exponentiates
J~+ - J~- one offset block at a time, each on its first read, by one
eigendecomposition of the skew-symmetric block (numpy alone).  Dense
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
  are entry-local and exact at finite truncation, and are judged on the
  interior of the truncation (FockTruncation.interior, as unitarity_residual
  is); the returned operator is the closed-form right-hand side R.
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
from .errors import NonConvergent, OutOfTruncation, ResidualFailure
from .meixner import MatrixElementParams, classical_c
from .oscillator import (
    FockTruncation,
    OperatorMatrix,
    Oscillators,
    _shift_product,
    build_oscillators,
    from_offset_blocks,
    interior_indices,
    ladder_coefficients,
    offset_block,
    sector_offset,
)
from .qseries import (
    MAX_TERMS,
    TAIL_CUTOFF,
    TAIL_STREAK,
    QContext,
    big_qexp,
    little_qexp,
    q_pochhammer_inf,
)

np = NumpyOnFirstUse(globals())

__all__ = [
    "matrix_qexp",
    "matrix_qexp_series",
    "UOperator",
    "ClassicalU",
    "build_U",
    "element",
    "gram_deviations",
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


# the tolerance of the XY = qYX premise of qexp_split
_COMM_TOL = 1e-12


def _check_kind(kind: str) -> None:
    if kind not in ("little", "big"):
        raise ValueError(f"kind must be 'little' or 'big', got {kind!r}")


def _invariant_blocks(*mats: np.ndarray):
    """The blocks that every one of mats leaves invariant, grouped by size
    class.

    The blocks are the connected components of the joint nonzero pattern;
    a block of s states is in class ceil(log2 s).  Yields (keep, at, stacks)
    per class: stacks holds each m in mats on the class's blocks, states in
    ascending order, zero-padded to the largest block of the class (shape
    (count, S, S)); keep marks the slots of real states and at their flat
    indices in a dense matrix.  A zero pad row and column meet no real state
    in a product, so a series on the stack equals the one on each block
    alone; writing result[keep] to the flat positions at rebuilds the dense
    result, since every state lies in exactly one block.
    """
    pattern = np.zeros(mats[0].shape, dtype=bool)
    for m in mats:
        pattern |= m != 0
    # divmod of the flat indices: np.nonzero on a 2-d mask is ten times slower
    rows, cols = np.divmod(np.flatnonzero(pattern), len(pattern))
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
    # frexp's exponent of s - 1 is ceil(log2 s), exactly
    classes = np.frexp(sizes - 1)[1]
    for c in np.unique(classes):
        size, start = sizes[classes == c], starts[classes == c]
        slot = np.arange(size.max())
        real = slot < size[:, None]
        # pad slots read some real state, then keep zeroes them
        idx = members.take(start[:, None] + slot, mode="clip")
        ix = (idx[:, :, None], idx[:, None, :])
        keep = real[:, :, None] & real[:, None, :]
        at = (ix[0] * len(pattern) + ix[1])[keep]
        yield keep, at, [np.where(keep, m[ix], 0.0) for m in mats]


def _block_series(start, step) -> np.ndarray:
    """start + t_1 + t_2 + ... with t_k = step(k, t_(k-1)), summed on a
    stack of blocks (count, s, s) at once.

    Each block ends by the tail rule of qseries, start being its first term,
    and takes no term after its end, so its sum does not depend on the
    blocks stacked with it; the sum returns once every block has ended.
    NonConvergent is raised at the first term of a block still summing that
    is not finite (or whose norm overflows), and when a block has not ended
    within MAX_TERMS terms.
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
                acc = np.where(ended[:, None, None], acc, acc + term)
            size = np.linalg.norm(term, axis=(1, 2))
            if not np.isfinite(size[~ended]).all():
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
    out = np.zeros(X.size)
    for keep, at, (blk,) in _invariant_blocks(X):
        if blk.shape[1] == 1:
            out[at] = _diag_qexp(kind, blk[:, 0, 0], ctx)
            continue

        def step(k, term, blk=blk):
            term = (blk @ term) / (1.0 - q**k)
            return term * q ** (k - 1) if kind == "big" else term

        # the identity on the real states only, so pad slots stay zero
        out[at] = _block_series(keep * np.eye(blk.shape[1]), step)[keep]
    return out.reshape(X.shape)


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
                raise OutOfTruncation(f"offset {d} has no states under {self.truncation}")
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
    outer factors e_q^(1/2)(-theta^2 q^-n_A) and E_q^(1/2)(theta^2 q^(n_B+1)),
    walked by build_U from one infinite product and folded into the blocks;
    a_up[n], b_up[n] are <n+1|A+|n>, <n+1|B+|n>.
    oscillators are the ladder matrices of the truncation, built on first use.
    The interior that the identities are judged on is truncation.interior;
    sector_interior(beta) is the top sector index inside it.
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

    def sector_interior(self, beta: int) -> int:
        """Largest sector index n with both legs of |n, n+beta-1> inside the
        interior of the truncation."""
        na_top, nb_top = self.truncation.interior
        return min(na_top, nb_top - beta + 1)


def build_U(mp: MatrixElementParams, t: FockTruncation) -> UOperator:
    """U(theta) on the truncated space, each offset block built on first read.

    On the block of offset d the raising factor's argument
    theta(1-q) q^((d+1)/2) A+B+ is a sub-diagonal L_d and the lowering
    factor's is -L_d^T, so the block is
    d1 * (e_q(L_d) E_q(-L_d^T)) * d4 with both q-exponentials in closed
    form (_bidiagonal_qexp), which UOperator.block(d) evaluates on first read.

    The outer factors are values of one function, F(m) = (-theta^2 q^m; q)_oo:
    d1[n] = F(-n)^(-1/2) and d4[n] = F(n+1)^(1/2).  F(0) is the one infinite
    product of the build (q_pochhammer_inf, with its decimal re-take and
    its NonConvergent at MAX_TERMS factors); the walk from it takes one
    factor per level, F(-n) = (1 + theta^2 q^-n) F(-n+1) down the rows and
    F(m+1) = F(m) / (1 + theta^2 q^m) along the columns.  Anchored at m = 0,
    each factor depends on q, theta and its level alone, so it is the same
    at every truncation that holds the level.  A row product beyond the
    double range is inf and its factor 0, which element() refuses; a q^-n
    beyond the range raises OverflowError naming the level.

    U depends on q, theta and t alone: mp.beta is not read here, since every
    sector lives in its own block and element() takes the beta it reads.
    """
    ctx = mp.ctx
    q = ctx.q
    t2 = mp.theta * mp.theta
    f0 = q_pochhammer_inf(-t2, ctx).value
    rows = [f0]
    for n in range(1, t.n_a_max + 1):
        try:
            power = q ** (-n)
        except OverflowError:
            raise OverflowError(
                f"q^-n of the row factors at q = {q}, n = {n} exceeds the double range"
            ) from None
        rows.append(rows[-1] * (1.0 + t2 * power))
    cols = [f0]
    for m in range(t.n_b_max + 1):
        cols.append(cols[-1] / (1.0 + t2 * q**m))
    # 1 / inf is 0: a row product beyond the range gives a factor of 0
    row_factor = np.sqrt(1.0 / np.array(rows))
    col_factor = np.sqrt(np.array(cols[1:]))
    a_up, b_up = ladder_coefficients(t, q)
    return UOperator(row_factor, col_factor, a_up, b_up, mp.theta, t, ctx)


def _sector_entry(u: _OffsetBlocks, beta: int, n: int, x: int) -> float:
    """Entry (n, x) of block beta - 1 of u: ValueError for a beta below 1,
    OutOfTruncation for a sector u's truncation holds no state of or an
    (n, x) outside the block."""
    block = u.block(sector_offset(u.truncation, beta))
    if n < 0 or x < 0 or n >= len(block) or x >= len(block):
        raise OutOfTruncation(f"(n={n}, x={x}) outside sector of size {len(block)}")
    return block.item(n, x)


def element(u: UOperator, beta: int, n: int, x: int) -> float:
    """Sector matrix element <n|_beta U |x>_beta, read from block beta-1.

    Every entry of the block is exact at the truncation u was built with
    (the module docstring says why), so OutOfTruncation is raised only for
    a sector the truncation holds no state of or an (n, x) outside the
    block; a beta below 1 is a ValueError.  Where an outer factor of the
    element underflows to zero or a subnormal, or is not finite, the
    four-factor product has lost the element and NonConvergent is raised;
    so it is for a non-finite element.
    """
    value = _sector_entry(u, beta, n, x)
    d1 = u.row_factor.item(n)
    d4 = u.col_factor.item(x + beta - 1)
    low, high = sys.float_info.min, sys.float_info.max
    if not (low <= abs(d1) <= high and low <= abs(d4) <= high and math.isfinite(value)):
        raise NonConvergent(
            f"<{n}|U|{x}> in sector beta={beta} is lost in double precision: "
            f"outer factors {d1:.3g} and {d4:.3g}, element {value:.3g}"
        )
    return value


def gram_deviations(u: UOperator, d: int, size: int) -> tuple[float, float]:
    """max |(U_d U_d^T - I)_ij| and max |(U_d^T U_d - I)_ij| over the first
    size states of the offset-d block.  A Gram sums over the whole block, so
    a row lost to underflow (which element() refuses) can make it not
    finite: NonConvergent names the offset."""
    block = u.block(d)
    eye = np.eye(block.shape[0])
    rows, cols = (np.abs((g - eye)[:size, :size]).max() for g in (block @ block.T, block.T @ block))
    if not np.isfinite([rows, cols]).all():
        raise NonConvergent(f"the Gram of offset {d} is not finite")
    return float(rows), float(cols)


def unitarity_residual(u: UOperator) -> float:
    """The max of gram_deviations over the interior block of each offset.

    The two directions behave very differently: the row Gram matrix UU^T
    converges to the identity, the column Gram U^T U to a projector with
    diagonal entries strictly below 1.  The reported maximum is therefore an
    honest measure of how far the truncated matrix is from two-sided
    unitarity, not of the truncation quality alone.  Both Gram matrices are
    block-diagonal over offsets like U, so they are formed block by block.
    The interior of offset d is a prefix of its block: n_A <= na_top and
    n_A + d <= nb_top.
    """
    na_top, nb_top = u.truncation.interior
    worst = []
    for d in u.offsets:
        size = min(na_top, nb_top - d) - max(0, -d) + 1
        if size > 0:
            worst.extend(gram_deviations(u, d, size))
    return max(worst)


def interior_residual(
    lhs: np.ndarray,
    rhs: np.ndarray,
    basis: FockTruncation,
    na_keep: int,
    nb_keep: int,
) -> float:
    """Relative max deviation of two operators on an interior block.

    Both matrices are over the states of the truncation basis (an
    operator's OperatorMatrix.basis).  Restricts them to the states with
    n_A <= na_keep and n_B <= nb_keep, then returns
    max|lhs-rhs| / max(|lhs|, |rhs|, 1) over that block.
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
    residual = interior_residual(lhs, rhs, u.truncation, *u.truncation.interior)
    if not (residual <= tol):
        raise ResidualFailure(f"{name} residual {residual:.3g} > {tol:.3g}", residual)
    return closed, residual


def _u_times(u: UOperator, m: np.ndarray) -> np.ndarray:
    """U m, one row block of U at a time; u.matrix is not read."""
    out = np.zeros(m.shape)
    for d in u.offsets:
        _, idx = offset_block(u.truncation, d)
        out[idx] = u.block(d) @ m[idx]
    return out


def _times_u(m: np.ndarray, u: UOperator) -> np.ndarray:
    """m U, one column block of U at a time; u.matrix is not read."""
    out = np.zeros(m.shape)
    for d in u.offsets:
        _, idx = offset_block(u.truncation, d)
        out[:, idx] = m[:, idx] @ u.block(d)
    return out


def _levels(u: UOperator) -> tuple[Oscillators, float, float, np.ndarray, np.ndarray]:
    """(ladders, q, theta, n_A, n_B) of the product space u acts on."""
    t = u.truncation
    return u.oscillators, u.ctx.q, u.theta, t.na.astype(float), t.nb.astype(float)


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
    lhs = _times_u(osc.a_minus.entries, u_theta)
    rhs = _u_times(u_shift, r)
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
    lhs = _times_u(osc.a_plus.entries, u_shift)
    rhs = _u_times(u_theta, r)
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
    return _certify("dual conjugated lowering", u, _u_times(u, mid), _times_u(r, u), r, tol)


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
    return _certify("dual conjugated raising", u, _u_times(u, mid), _times_u(r, u), r, tol)


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
    out = np.zeros(y.size)
    for keep, at, (x_blk, y_blk) in _invariant_blocks(x, y):

        def step(n, term, x_blk=x_blk):
            if kind == "big":
                c = q ** (n - 1) * (x_blk @ term) - qa * (term @ x_blk)
            else:
                c = x_blk @ term - q ** (n - 1) * qa * (term @ x_blk)
            return (lam / (1.0 - q**n)) * c

        out[at] = _block_series(y_blk, step)[keep]
    return out.reshape(y.shape)


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
    (ValueError when violated); returns (combined, split).

    X, Y, their products and both factors of split leave the joint invariant
    blocks of X and Y invariant, so every product is formed on those blocks.
    """
    _check_kind(kind)
    blocks = list(_invariant_blocks(x, y))
    xy = [x_blk @ y_blk for _, _, (x_blk, y_blk) in blocks]
    yx = [y_blk @ x_blk for _, _, (x_blk, y_blk) in blocks]
    scale = max(max(np.abs(p).max() for p in xy + yx), 1.0)
    if max(np.abs(a - ctx.q * b).max() for a, b in zip(xy, yx)) > _COMM_TOL * scale:
        raise ValueError("arguments do not satisfy XY = qYX")
    combined = matrix_qexp(x + y, kind, ctx)
    first, second = (y, x) if kind == "little" else (x, y)
    e_first = matrix_qexp(first, kind, ctx).ravel()
    e_second = matrix_qexp(second, kind, ctx).ravel()
    split = np.zeros(x.size)
    for keep, at, _ in blocks:
        f_blk, s_blk = np.zeros(keep.shape), np.zeros(keep.shape)
        f_blk[keep], s_blk[keep] = e_first[at], e_second[at]
        split[at] = (f_blk @ s_blk)[keep]
    return combined, split.reshape(x.shape)


def _scaled_ladders(
    osc: Oscillators, ctx: QContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boost-scaled pair ladders K± = (1-q) q^((B0-A0+1)/2) A± B±, with
    the level arrays n_A and n_B (su11_generators' K±, without its J0)."""
    basis = osc.a0.basis
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)
    pref = ((1.0 - ctx.q) * ctx.q ** ((nb - na + 1.0) / 2.0))[:, None]
    k_plus = pref * _shift_product(osc.a_plus.entries, osc.b_plus.entries)
    k_minus = pref * _shift_product(osc.a_minus.entries, osc.b_minus.entries)
    return k_plus, k_minus, na, nb


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
    transpose.  block(d) exponentiates that block alone on its first read,
    through one Hermitian eigendecomposition of i times the generator;
    matrix is the dense product-space form, built from every block on
    first read.  The generator is exactly antisymmetric under truncation,
    hence normal, so the spectral form is orthogonal to machine precision at
    any tau; only comparisons against the infinite-space closed form need
    interior margins.
    """

    tau: float
    truncation: FockTruncation

    def _build(self, d: int) -> np.ndarray:
        m = offset_block(self.truncation, d)[0][:-1].astype(float)
        if self.tau == 0.0:  # eigh of a zero block need not return V = I
            return np.eye(m.size + 1)
        up = self.tau * np.sqrt((m + 1.0) * (m + 1.0 + d))
        # S is real skew-symmetric, so iS = V diag(lam) V^H is Hermitian and
        # exp(S) = V diag(exp(-i lam)) V^H, with orthonormal V at any tau
        lam, v = np.linalg.eigh(1j * (np.diag(up, -1) - np.diag(up, 1)))
        return ((v * np.exp(-1j * lam)) @ v.conj().T).real


def classical_U(tau: float, t: FockTruncation) -> ClassicalU:
    """exp(tau (J~+ - J~-)) on the truncation t, its blocks exponentiated
    as they are read; tau is refused by classical_c's rule."""
    classical_c(tau)
    return ClassicalU(tau, t)


def classical_element(u: ClassicalU, beta: int, n: int, x: int) -> float:
    """Sector element <n|_beta exp(tau(J~+ - J~-)) |x>_beta, read from block
    beta - 1 of u's truncation; refused as element refuses outside the
    block."""
    return _sector_entry(u, beta, n, x)
