"""The pseudorotation operator, its conjugations, and the exponential
identities behind the four-factor assembly."""

import hashlib
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from qmeixner import pseudorotation, verify
from qmeixner.errors import NonConvergent, OutOfTruncation, ResidualFailure
from qmeixner.meixner import MatrixElementParams, xi
from qmeixner.oscillator import (
    FockTruncation,
    build_oscillators,
    offset_block,
    sector,
)
from qmeixner.pseudorotation import (
    ClassicalU,
    build_U,
    classical_U,
    classical_element,
    conjugated_lowering,
    conjugated_lowering_dual,
    conjugated_raising,
    conjugated_raising_dual,
    element,
    exp_reorder_big,
    exp_reorder_little,
    exp_reorder_mixed,
    interior_residual,
    matrix_qexp,
    matrix_qexp_series,
    qbch_conjugate,
    qbch_series,
    qexp_split,
    unitarity_residual,
)
from qmeixner.qseries import TAIL_CUTOFF, QContext, big_qexp, little_qexp, q_pochhammer

import mp_reference
from test_meixner import TAU_REFUSALS
from test_oscillator import build_classical

CTX = QContext(q=0.5)


def small_osc(q=0.5, cap=6):
    ctx = QContext(q=q)
    return build_oscillators(FockTruncation(cap, cap), ctx), ctx


def dense_qexp(x, kind, ctx, cutoff):
    """Dense power series of a q-exponential on the whole product space:
    stops after three consecutive terms with Frobenius norm at most cutoff
    times max(1, norm of the sum).  cutoff 0 sums a nilpotent x exactly."""
    q = ctx.q
    acc = np.eye(x.shape[0])
    term = acc
    small = 0
    for k in range(1, 501):
        term = (x @ term) / (1.0 - q**k)
        if kind == "big":
            term = term * q ** (k - 1)
        acc = acc + term
        if np.linalg.norm(term) <= cutoff * max(1.0, np.linalg.norm(acc)):
            small += 1
        else:
            small = 0
        if small >= 3:
            return acc
    raise NonConvergent("dense q-exponential did not settle")


def dense_qbch(x, y, lam, alpha, kind, ctx):
    """Dense nested q-commutator series of qbch_series on the whole space."""
    q = ctx.q
    acc = y.copy()
    c = y
    coef = 1.0
    for n in range(1, 61):
        if kind == "big":
            c = q ** (n - 1) * (x @ c) - q**alpha * (c @ x)
        else:
            c = x @ c - q ** (n - 1 + alpha) * (c @ x)
        coef *= lam / (1.0 - q**n)
        acc = acc + coef * c
        if np.linalg.norm(coef * c) <= TAIL_CUTOFF * max(np.linalg.norm(acc), 1.0):
            return acc
    raise NonConvergent("dense q-commutator series did not settle")


def pair_ladders(osc, ctx):
    """Boost-scaled pair ladders K+ and K- of the reordering identities."""
    basis = osc.a0.basis
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)
    pref = (1.0 - ctx.q) * ctx.q ** ((nb - na + 1.0) / 2.0)
    k_plus = pref[:, None] * (osc.a_plus.entries @ osc.b_plus.entries)
    k_minus = pref[:, None] * (osc.a_minus.entries @ osc.b_minus.entries)
    return k_plus, k_minus


def scattered_blocks(sizes, seed):
    """A diagonal plus sub-diagonal matrix whose invariant blocks have the
    given sizes, their states scattered over the basis."""
    rng = np.random.default_rng(seed)
    states = rng.permutation(sum(sizes))
    x = np.zeros((states.size, states.size))
    for block in np.split(states, np.cumsum(sizes)[:-1]):
        x[block, block] = rng.uniform(-0.2, 0.2, block.size)
        x[block[1:], block[:-1]] = rng.uniform(0.05, 0.15, block.size - 1)
    return x


def deviation(got, ref):
    """max |got - ref| / max(|ref|, 1) over the entries."""
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)))


# --- matrix q-exponentials --------------------------------------------------


def test_qexp_of_zero_is_identity():
    osc, ctx = small_osc()
    zero = np.zeros_like(osc.a0.entries)
    for kind in ("little", "big"):
        out = matrix_qexp(zero, kind, ctx)
        assert np.array_equal(out, np.eye(osc.a0.basis.dim))


def test_qexp_single_entry_nilpotent():
    # X^2 = 0 collapses both kinds to I + sX/(1-q)
    osc, ctx = small_osc(cap=1)
    x = osc.a_plus.entries
    for kind in ("little", "big"):
        out = matrix_qexp(0.7 * x, kind, ctx)
        expected = np.eye(len(x)) + 0.7 * x / (1.0 - ctx.q)
        assert np.abs(out - expected).max() <= 1e-15


def test_qexp_little_big_inverse_for_nilpotent():
    osc, ctx = small_osc()
    x = osc.a_plus.entries @ osc.b_plus.entries
    little = matrix_qexp(0.4 * x, "little", ctx)
    big = matrix_qexp(-0.4 * x, "big", ctx)
    assert np.abs(little @ big - np.eye(len(x))).max() <= 1e-12


def test_qexp_diagonal_uses_scalar_forms():
    osc, ctx = small_osc()
    out = matrix_qexp(-0.3 * osc.a0.entries, "little", ctx)
    assert np.count_nonzero(out - np.diag(np.diagonal(out))) == 0


def test_qexp_diagonal_refuses_an_entry_that_is_not_finite():
    # the NaN slot came back as 1.0
    with pytest.raises(ValueError, match=r"requires a finite a, got nan"):
        matrix_qexp(np.diag([float("nan"), 0.5]), "little", CTX)


def test_qexp_rejects_mixed_shape():
    # the terms of the A+ + A- blocks grow until they overflow: refused at
    # the first non-finite term, with no overflow warning on the way
    osc, ctx = small_osc()
    mixed = osc.a_plus.entries + osc.a_minus.entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent, match="not finite"):
            matrix_qexp(mixed, "little", ctx)
    with pytest.raises(ValueError):
        matrix_qexp(osc.a0.entries, "huge", ctx)


def test_qexp_of_a_block_that_does_not_settle_is_refused():
    # a unipotent block: its terms stay finite, X^k / (q; q)_k, but their
    # norm grows with k and never meets the tail rule
    x = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NonConvergent, match="series did not settle in 10000 terms"):
        matrix_qexp(x, "little", QContext(q=0.9))


@pytest.mark.parametrize("cap", [8, 12, 20])
@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("kind", ["little", "big"])
def test_blockwise_series_match_dense_reference(kind, q, cap):
    """matrix_qexp and qbch_series, summed per invariant block, against the
    dense power series on the argument shapes of the identities: the pair
    ladders K+-, the diagonal q^A0 plus A+ of qexp_split, and the K+ with
    n_A pair of the q-BCH check; and a series whose blocks differ in size
    inside one size class (5 to 8 and 17 to 21 states), so that padding
    never leaks into a block.  Worst measured deviation 5.5e-14, in
    qbch_series at q = 0.9, cap 20; matrix_qexp on the pair ladders matched
    bit for bit."""
    osc, ctx = small_osc(q, cap)
    basis = osc.a0.basis
    na = basis.na.astype(float)
    k_plus, k_minus = pair_ladders(osc, ctx)
    worst = 0.0
    for x, scale in ((k_plus, 0.3), (k_minus, -0.3), (k_minus, 0.1)):
        got = matrix_qexp(scale * x, kind, ctx)
        worst = max(worst, deviation(got, dense_qexp(scale * x, kind, ctx, 0.0)))
    diag = np.diag(q**na)
    for cx, cy in ((0.3, 0.3), (-0.3, 0.3)):
        for x in (cx * diag + cy * osc.a_plus.entries, cx * diag, 0.3 * k_plus):
            got = matrix_qexp(x, kind, ctx)
            worst = max(worst, deviation(got, dense_qexp(x, kind, ctx, TAIL_CUTOFF)))
    mixed = scattered_blocks((5, 8, 17, 6, 21, 19, 7), cap)
    got = matrix_qexp(mixed, kind, ctx)
    worst = max(worst, deviation(got, dense_qexp(mixed, kind, ctx, TAIL_CUTOFF)))
    for x, y in ((k_plus, np.diag(na)), (mixed, np.diag(np.arange(len(mixed)) % 4.0))):
        for lam in (0.3, -0.3):
            got = qbch_series(x, y, lam, 0.3, kind, ctx)
            worst = max(worst, deviation(got, dense_qbch(x, y, lam, 0.3, kind, ctx)))
    assert worst <= 2e-13


def test_pair_ladder_series_run_once_per_size_class(monkeypatch):
    # the 41 offset blocks of K+ at cap 20 hold 1 to 21 states: the two
    # one-state blocks take the product forms, and the others fall in the
    # 5 size classes 2, 3-4, 5-8, 9-16 and 17-21
    osc, ctx = small_osc(0.9, 20)
    k_plus, _ = pair_ladders(osc, ctx)
    calls = []
    series = pseudorotation._block_series

    def counted(start, step):
        calls.append(len(start))
        return series(start, step)

    monkeypatch.setattr(pseudorotation, "_block_series", counted)
    matrix_qexp(0.3 * k_plus, "little", ctx)
    assert len(calls) <= 6


def test_qexp_series_matches_nilpotent_path():
    # one function under both names; its series on each pair-ladder block
    # against the closed form that build_U uses there
    assert matrix_qexp_series is matrix_qexp
    osc, ctx = small_osc()
    x = 0.3 * (osc.a_plus.entries @ osc.b_plus.entries)
    got = matrix_qexp(x, "little", ctx)
    t = osc.a0.basis
    for d in range(-t.n_a_max, t.n_b_max + 1):
        _, idx = offset_block(t, d)
        block = np.ix_(idx, idx)
        closed = pseudorotation._bidiagonal_qexp(np.diagonal(x[block], -1), "little", ctx.q)
        assert np.abs(got[block] - closed).max() <= 1e-12


# --- building U -------------------------------------------------------------


def build(q, theta, beta, cap):
    ctx = QContext(q=q)
    mp = MatrixElementParams(theta, beta, ctx)
    return build_U(mp, FockTruncation(cap, cap + beta - 1))


def dense_reference_U(mp, t):
    """The four-factor product on the whole product space: kron ladders,
    dense power series and the diagonal outer factors."""
    ctx = mp.ctx
    q = ctx.q
    theta = mp.theta
    osc = build_oscillators(t, ctx)
    basis = osc.a0.basis
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)
    pref = q ** ((nb - na + 1.0) / 2.0)
    x_plus = theta * (1.0 - q) * (pref[:, None] * (osc.a_plus.entries @ osc.b_plus.entries))
    x_minus = -theta * (1.0 - q) * (
        pref[:, None] * (osc.a_minus.entries @ osc.b_minus.entries)
    )
    f2 = dense_qexp(x_plus, "little", ctx, 0.0)
    f3 = dense_qexp(x_minus, "big", ctx, 0.0)
    t2 = theta * theta
    d1 = np.sqrt([little_qexp(-t2 * q ** (-int(n)), ctx).value for n in basis.na])
    d4 = np.sqrt([big_qexp(t2 * q ** (int(n) + 1), ctx).value for n in basis.nb])
    return d1[:, None] * (f2 @ f3) * d4[None, :]


@pytest.mark.parametrize("cap", [8, 16, 24])
@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("q", [0.5, 0.9])
def test_blocked_U_matches_dense_reference(q, beta, cap):
    """Every offset block of U against the dense four-factor product
    (worst measured 9e-13, at q = 0.9, cap 24), and every interior sector
    element read through element() equal to its entry of u.matrix."""
    mp = MatrixElementParams(0.3, beta, QContext(q=q))
    t = FockTruncation(cap, cap + beta - 1)
    u = build_U(mp, t)
    ref = dense_reference_U(mp, t)
    m = u.matrix.entries
    assert np.all(np.abs(m - ref) <= 1e-11 * np.maximum(np.abs(ref), 1.0))
    sec = sector(t, beta)
    for n in range(u.sector_interior(beta) + 1):
        for x in range(u.sector_interior(beta) + 1):
            assert element(u, beta, n, x) == m[sec[n], sec[x]]


def test_element_refuses_underflowed_outer_factor():
    # e_q(-theta^2 q^-n) underflows to 0 for n >= 49 at q = 0.5, theta = 0.3,
    # so those rows of U read 0 in place of xi_{n,x} ~ 1e-4
    mp = MatrixElementParams(0.3, 1, QContext(q=0.5))
    u = build_U(mp, FockTruncation(100, 100))
    assert u.row_factor[48] > 0.0 and u.row_factor[49] == 0.0
    # frozen from a 60-digit evaluation of the closed form
    assert element(u, 1, 48, 48) == pytest.approx(1.3008897093380785e-4, rel=1e-12)
    with pytest.raises(NonConvergent):
        element(u, 1, 49, 0)


@pytest.mark.parametrize("theta", [0.3, 2.0])
@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_outer_factors_match_a_50_digit_product(q, theta):
    """row_factor and col_factor against 50-digit products at N = 60 (the
    walk measured at most 8.1e-15; one direct product per level, 4.8e-14).
    A row factor is 0 exactly where its product leaves the double range."""
    u = build_U(MatrixElementParams(theta, 1, QContext(q=q)), FockTruncation(60, 60))
    rows, cols = mp_reference.outer_factors(q, theta, 60)
    for got, ref in zip(u.row_factor, rows):
        if got == 0.0:
            assert ref**-2 > sys.float_info.max
        else:
            assert abs(got - ref) <= 2e-14 * ref
    for got, ref in zip(u.col_factor, cols):
        assert abs(got - ref) <= 2e-14 * ref


def test_build_U_takes_one_infinite_product(monkeypatch):
    calls = []
    original = pseudorotation.q_pochhammer_inf

    def counting(a, ctx, *args, **kwargs):
        calls.append(a)
        return original(a, ctx, *args, **kwargs)

    monkeypatch.setattr(pseudorotation, "q_pochhammer_inf", counting)
    mp = MatrixElementParams(0.3, 1, QContext(q=0.9))
    for cap in (8, 40):
        build_U(mp, FockTruncation(cap, cap + 3))
    assert calls == [-0.09, -0.09]


@pytest.mark.parametrize("theta", [0.3, 2.0])
@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_outer_factors_do_not_depend_on_the_truncation(q, theta):
    # the walk starts at level 0, so each factor is the same at every
    # truncation that holds its level
    mp = MatrixElementParams(theta, 1, QContext(q=q))
    small = build_U(mp, FockTruncation(8, 8))
    large = build_U(mp, FockTruncation(40, 40))
    assert small.row_factor.tobytes() == large.row_factor[:9].tobytes()
    assert small.col_factor.tobytes() == large.col_factor[:9].tobytes()


# --- offset blocks built on first read -----------------------------------------


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "q, beta, cap, interior_sha, matrix_sha",
    [
        (0.5, 1, 40, "74c9a3b30aaaecd38d11dad484f105b7ebd389df658fbad7b4a7f1eba53fd563",
         "61e4be1370cb78631f5b2bcbfa0d8e0935fff1a15150c91ede5eefb87dac2e90"),
        (0.9, 2, 40, "6ab7c4005044fe397fea96e8e4f4b69d03fe391e5c1e27860accf494e22b149a",
         "ae35bbcaf1d7ed180d8ce0a8aaf141e539d97e1763b362febd8f72e3000a25e2"),
        (0.9, 1, 24, "d4f6b5d922b3092a2d72ba6a6e965573d94d6c4bd1aae3ca019d07d1e2f88e5a",
         "dde875fa13d8d4ff88b4d26d7e0c1c1aea4cbd557ee774196cf353b4e4645f6d"),
    ],
    ids=["0.5-1-40", "0.9-2-40", "0.9-1-24"],
)
def test_lazy_blocks_are_bit_identical(q, beta, cap, interior_sha, matrix_sha):
    # frozen from the build that assembled every offset block eagerly: the
    # interior sector read through element() on a fresh U, and u.matrix;
    # re-recorded when the outer factors became one walked product, which
    # moved 795, 835 and 333 cells by at most 8.9e-16
    mp = MatrixElementParams(0.3, beta, QContext(q=q))
    t = FockTruncation(cap, cap + beta - 1)
    u = build_U(mp, t)
    top = u.sector_interior(beta)
    block = [[element(u, beta, n, x) for x in range(top + 1)] for n in range(top + 1)]
    assert sha256(np.array(block)) == interior_sha
    assert sha256(build_U(mp, t).matrix.entries) == matrix_sha


@pytest.fixture
def bidiagonal_calls(monkeypatch):
    """Counts the closed-form q-exponentials, two per offset block built."""
    calls = []
    original = pseudorotation._bidiagonal_qexp

    def counting(sub, kind, q):
        calls.append(sub.size)
        return original(sub, kind, q)

    monkeypatch.setattr(pseudorotation, "_bidiagonal_qexp", counting)
    return calls


def test_blocks_are_built_once_on_first_read(bidiagonal_calls):
    cap = 16
    u = build_U(MatrixElementParams(0.3, 1, QContext(q=0.5)), FockTruncation(cap, cap))
    assert bidiagonal_calls == []
    top = u.sector_interior(1)
    for n in range(top + 1):
        for x in range(top + 1):
            element(u, 1, n, x)
    assert bidiagonal_calls == [cap, cap]  # block 0 alone
    u.matrix
    unitarity_residual(u)
    assert len(bidiagonal_calls) == 2 * (2 * cap + 1)


def test_truncation_gate_precedes_every_block(bidiagonal_calls):
    # build_U reads no beta: a sector the truncation cannot hold is refused
    # when element() asks for its block, before any block is built
    u = build_U(MatrixElementParams(0.5, 6, QContext(q=0.5)), FockTruncation(4, 4))
    for n, x in ((0, 0), (2, 1)):
        with pytest.raises(OutOfTruncation, match="beta=6 has no states"):
            element(u, 6, n, x)
    assert bidiagonal_calls == []
    assert u.blocks == {}


def test_block_outside_the_truncation_is_refused():
    # offsets run from -6 to 8 under this truncation; offset_block gives
    # no states outside, which a build would turn into a bogus 1x1 block
    t = FockTruncation(6, 8)
    u = build_U(MatrixElementParams(0.5, 3, CTX), t)
    for op in (u, classical_U(0.5, t)):
        for d in (-7, 9):
            with pytest.raises(OutOfTruncation, match=f"offset {d} has no states"):
                op.block(d)
        assert op.blocks == {}
        assert op.block(-6).shape == op.block(8).shape == (1, 1)


def test_first_read_of_an_underflowed_row_is_silent():
    # the block holding the rows past the underflow of e_q(-theta^2 q^-n)
    # meets inf and nan on its first read; they stay in the block without a
    # RuntimeWarning and element() refuses them
    mp = MatrixElementParams(0.3, 1, QContext(q=0.5))
    u = build_U(mp, FockTruncation(100, 100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent):
            element(u, 1, 49, 0)


def test_corner_element_closed_form():
    for beta in (1, 2, 3):
        u = build(0.5, 0.5, beta, 16)
        expected = q_pochhammer(-0.25, beta, CTX) ** -0.5
        assert element(u, beta, 0, 0) == pytest.approx(expected, rel=1e-13)


def test_corner_element_spot_value():
    # frozen: 1/sqrt((1+0.25)(1+0.125)) at theta = 0.5, q = 0.5 is the
    # beta = 2 corner (the beta = 1 corner is 1/sqrt(1.25))
    u = build(0.5, 0.5, 2, 16)
    assert element(u, 2, 0, 0) == pytest.approx(0.8432740427115678, rel=1e-13)
    u1 = build(0.5, 0.5, 1, 16)
    assert element(u1, 1, 0, 0) == pytest.approx(1.25**-0.5, rel=1e-13)


def test_near_zero_theta_is_near_identity():
    # the deviation is linear in theta with a q^(-cap/2) edge constant
    theta = 1e-8
    eye = np.eye(81)
    d1 = np.abs(build(0.5, theta, 1, 8).matrix.entries - eye).max()
    d2 = np.abs(build(0.5, theta / 8.0, 1, 8).matrix.entries - eye).max()
    assert d1 <= theta * 10 * 0.5 ** -4.5
    assert d1 / d2 == pytest.approx(8.0, rel=1e-3)


def test_elements_match_closed_form_all_sectors():
    u = build(0.6, 0.8, 1, 16)
    for beta in (1, 2, 3):  # one build serves every sector
        mp = MatrixElementParams(0.8, beta, u.ctx)
        for n in range(5):
            for x in range(5):
                assert element(u, beta, n, x) == pytest.approx(
                    xi(n, x, mp), abs=1e-12
                )


def test_sector_leakage_is_exactly_zero():
    u = build(0.5, 0.7, 1, 10)
    basis = u.matrix.basis
    delta = basis.nb - basis.na
    rows, cols = np.nonzero(u.matrix.entries)
    assert np.array_equal(delta[rows], delta[cols])


def test_negative_theta_alternates_signs():
    up = build(0.5, 0.5, 1, 12)
    un = build(0.5, -0.5, 1, 12)
    for n in range(4):
        for x in range(4):
            assert element(un, 1, n, x) == pytest.approx(
                (-1.0) ** (n + x) * element(up, 1, n, x), rel=1e-12
            )


def test_out_of_block_contract():
    # element refuses only outside block beta - 1, whose last index is 12
    u = build(0.5, 0.5, 1, 12)
    size = len(u.block(0))
    assert size == 13
    assert element(u, 1, size - 1, size - 1) == u.block(0)[12, 12]
    with pytest.raises(OutOfTruncation, match="outside sector of size 13"):
        element(u, 1, size, 0)
    with pytest.raises(OutOfTruncation, match="outside sector of size 13"):
        element(u, 1, 0, -1)


@pytest.mark.parametrize("trunc", [6, 24])
@pytest.mark.parametrize("beta", [1, 4])
@pytest.mark.parametrize("theta", [0.3, -0.7])
@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_block_entries_do_not_depend_on_the_truncation(q, theta, beta, trunc):
    """Entry (n, x) of block beta - 1 is a finite sum over levels at most
    max(n, x), so it never reaches the truncation edge: built at truncation
    T and at 3T, the block's common entries agree bit for bit.  This is why
    element() reads the whole block."""
    mp = MatrixElementParams(theta, beta, QContext(q=q))

    def block(t):
        u = build_U(mp, FockTruncation(t, t + beta - 1))
        return u.block(beta - 1)[: trunc + 1, : trunc + 1]

    small, large = block(trunc), block(3 * trunc)
    assert small.shape == (trunc + 1, trunc + 1)
    assert np.isfinite(small).any()
    assert small.tobytes() == large.tobytes()


def test_truncation_gates():
    ctx = QContext(q=0.5)
    # no room for the sector at all: refused where the sector is read
    u = build_U(MatrixElementParams(0.5, 6, ctx), FockTruncation(4, 4))
    with pytest.raises(OutOfTruncation, match="beta=6 has no states"):
        element(u, 6, 0, 0)
    # an edge weight far above the old gate of 1e-6 builds, and its sector
    # block is the one a truncation three times larger holds
    mp = MatrixElementParams(3.0, 1, ctx)
    small = build_U(mp, FockTruncation(4, 4)).block(0)
    large = build_U(mp, FockTruncation(12, 12)).block(0)[:5, :5]
    assert small.tobytes() == large.tobytes()


def test_build_U_names_an_overflowing_row_power():
    # q^-n of the row factors overflowed with a bare (34, ...) at q = 1e-300
    mp = MatrixElementParams(0.3, 1, QContext(q=1e-300))
    with pytest.raises(OverflowError) as exc:
        build_U(mp, FockTruncation(3, 3))
    assert str(exc.value) == (
        "q^-n of the row factors at q = 1e-300, n = 2 exceeds the double range"
    )


def test_row_argument_beyond_the_range_is_refused_by_element():
    # theta^2 q^-3 = 1e100 * 1e300 overflows to inf while q^-3 does not: the
    # walked row product is inf, its factor 0, and element() refuses the row
    # (one direct product per level ran to MAX_TERMS inside build_U instead)
    mp = MatrixElementParams(1e50, 1, QContext(q=1e-100))
    u = build_U(mp, FockTruncation(3, 3))
    assert u.row_factor[2] == u.row_factor[3] == 0.0
    with pytest.raises(NonConvergent, match="outer factors 0 and"):
        element(u, 1, 3, 0)


def test_build_U_names_an_overflowing_b_ladder():
    # q^-n of the B ladder overflowed with a numpy RuntimeWarning and left
    # inf in the blocks that read it
    mp = MatrixElementParams(0.3, 200, QContext(q=0.01))
    with pytest.raises(OverflowError) as exc:
        build_U(mp, FockTruncation(1, 200))
    assert str(exc.value) == (
        "q^-n of the B ladder at q = 0.01, n = 155 exceeds the double range"
    )


@pytest.mark.parametrize("theta", verify._THETAS)
@pytest.mark.parametrize("beta", verify._BETAS)
@pytest.mark.parametrize("q", verify._QS)
def test_registry_blocks_build_at_the_grid_size(q, beta, theta):
    """The registry's n, x <= 8 at truncation 8: the edge-weight gate refused
    10 of these 18 (q, beta, theta) builds, yet block beta - 1 is the one
    truncation 24 holds, bit for bit, and reproduces xi."""
    mp = MatrixElementParams(theta, beta, QContext(q=q))
    u = build_U(mp, FockTruncation(8, 8 + beta - 1))
    large = build_U(mp, FockTruncation(24, 24 + beta - 1)).block(beta - 1)[:9, :9]
    assert u.block(beta - 1).tobytes() == large.tobytes()
    for n in range(9):
        for x in range(9):
            assert abs(element(u, beta, n, x) - xi(n, x, mp)) <= 1e-13


@pytest.mark.parametrize("theta", verify._THETAS)
@pytest.mark.parametrize("q", verify._QS)
def test_U_does_not_depend_on_beta(q, theta):
    """One U per (q, theta) at T = (8, 11) serves beta = 1, 2 and 4: built
    from parameters with beta = 1 and beta = 4 it is the same operator."""
    t = FockTruncation(8, 11)
    one, four = (
        build_U(MatrixElementParams(theta, beta, QContext(q=q)), t) for beta in (1, 4)
    )
    for d in one.offsets:
        assert one.block(d).tobytes() == four.block(d).tobytes()


def test_unitarity_is_one_sided():
    """Rows with full lattice support inside the window are orthonormal;
    columns carry a converged completeness defect.  The (0,0) column sum is
    frozen from a 60-digit evaluation of the infinite series at q = 0.5,
    theta = 0.3."""
    u = build(0.5, 0.3, 1, 28)
    basis = u.matrix.basis
    sec = [basis.index(k, k) for k in range(29)]
    s = u.matrix.entries[np.ix_(sec, sec)]
    # a degree-n row spreads over x near n, so the row Gram needs headroom
    # above the row: probe rows whose support stays inside the window only
    rows = np.abs((s @ s.T - np.eye(29))[:9, :9]).max()
    assert rows <= 1e-11
    cols = s.T @ s
    assert cols[0, 0] == pytest.approx(0.99955998788948319518, abs=1e-10)
    # the reported residual is the honest max over both directions and is
    # dominated by the column defect
    assert unitarity_residual(u) >= 1.0 - cols[0, 0]


def test_unitarity_residual_is_bit_identical_to_its_recorded_value():
    # exact, where test_obstructions pins it at relative 1e-6: a prefix of
    # each offset block that drops or adds one interior state moves it
    assert unitarity_residual(build(0.9, 0.3, 1, 24)) == 0.5363803127263884


def test_unitarity_residual_refuses_a_gram_lost_to_underflow():
    # from T = 68 the top row of 41 offset blocks holds nan (an outer factor
    # of 0 times overflowing middle entries), and the column Gram sums over
    # it: the residual was returned as nan
    assert unitarity_residual(build(0.5, 0.3, 1, 67)) == 1.0
    with pytest.raises(NonConvergent, match=r"the Gram of offset -?\d+ is not finite"):
        unitarity_residual(build(0.5, 0.3, 1, 68))


# --- conjugation identities --------------------------------------------------


def conj_pair(q, theta, beta, cap):
    ctx = QContext(q=q)
    t = FockTruncation(cap, cap + beta - 1)
    u = build_U(MatrixElementParams(theta, beta, ctx), t)
    u_shift = build_U(MatrixElementParams(theta * q**-0.5, beta, ctx), t)
    return u, u_shift


def test_conjugations_certify_small_residuals():
    # U is multiplied one offset block at a time: u.matrix is never built
    u, u_shift = conj_pair(0.5, 0.5, 1, 16)
    for fn in (conjugated_lowering, conjugated_raising):
        _, res = fn(u, u_shift, tol=1e-11)
        assert res <= 1e-12
        assert "matrix" not in u.__dict__ and "matrix" not in u_shift.__dict__
    for fn in (conjugated_lowering_dual, conjugated_raising_dual):
        _, res = fn(u, tol=1e-11)
        assert res <= 1e-12
        assert "matrix" not in u.__dict__


def test_conjugation_pair_must_share_one_truncation():
    ctx = QContext(q=0.5)
    u = build_U(MatrixElementParams(0.5, 1, ctx), FockTruncation(6, 6))
    u_shift = build_U(MatrixElementParams(0.5 * 0.5**-0.5, 1, ctx), FockTruncation(6, 7))
    with pytest.raises(ValueError, match="operators must share one truncation"):
        conjugated_lowering(u, u_shift)


def test_conjugated_lowering_closed_form_shape():
    # theta -> 0: the closed form collapses to A- itself
    u, u_shift = conj_pair(0.5, 1e-9, 1, 10)
    r, _ = conjugated_lowering(u, u_shift, tol=1e-6)
    osc = u.oscillators
    assert np.abs(r - osc.a_minus.entries).max() <= 1e-8


def test_conjugated_lowering_vacuum_action():
    # on |0, nb> the A- term vanishes: the closed form acts as B+ weighted
    # by theta q^((na+nb)/2) evaluated on the output state |0, nb+1>
    u, u_shift = conj_pair(0.5, 0.5, 1, 10)
    r, _ = conjugated_lowering(u, u_shift, tol=1e-9)
    basis = u.oscillators.a0.basis
    vec = np.zeros(basis.dim)
    nb0 = 2
    vec[basis.index(0, nb0)] = 1.0
    out = r @ vec
    expected = np.zeros(basis.dim)
    coeff = u.theta * u.ctx.q ** ((nb0 + 1) / 2.0) * (
        u.oscillators.b_plus.entries[basis.index(0, nb0 + 1), basis.index(0, nb0)]
    )
    expected[basis.index(0, nb0 + 1)] = coeff
    assert np.abs(out - expected).max() <= 1e-12


def test_conjugation_pair_validation():
    u, u_shift = conj_pair(0.5, 0.5, 1, 10)
    with pytest.raises(ValueError):
        conjugated_lowering(u, u, tol=1.0)  # wrong second theta
    with pytest.raises(ResidualFailure):
        conjugated_lowering(u, u_shift, tol=1e-300)


def test_conjugation_nan_residual_fails():
    u, u_shift = conj_pair(0.5, 0.5, 1, 10)
    u.block(0)[0, 0] = math.nan
    with pytest.raises(ResidualFailure):
        conjugated_lowering_dual(u, tol=1.0)


def test_residual_failure_carries_value():
    u, u_shift = conj_pair(0.5, 0.5, 1, 10)
    with pytest.raises(ResidualFailure) as exc:
        conjugated_raising(u, u_shift, tol=1e-300)
    assert exc.value.residual > 0.0


# --- q-BCH, factorization, reorderings ---------------------------------------


def test_qbch_series_matches_conjugation():
    osc, ctx = small_osc(q=0.9, cap=12)
    basis = osc.a0.basis
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)
    pref = (1.0 - ctx.q) * ctx.q ** ((nb - na + 1.0) / 2.0)
    x = pref[:, None] * (osc.a_plus.entries @ osc.b_plus.entries)
    y = np.diag(na)
    for kind in ("big", "little"):
        s = qbch_series(x, y, 0.3, 0.3, kind, ctx)
        d = qbch_conjugate(x, y, 0.3, 0.3, kind, ctx)
        assert interior_residual(s, d, basis, 9, 9) <= 1e-10


def test_qbch_series_validation():
    osc, ctx = small_osc()
    with pytest.raises(ValueError):
        qbch_series(osc.a0.entries, osc.a0.entries, 0.1, 0.0, "neither", ctx)


def test_qexp_split_requires_q_commutation():
    osc, ctx = small_osc()
    with pytest.raises(ValueError, match="do not satisfy XY = qYX"):
        qexp_split(osc.a_plus.entries, osc.a_minus.entries, "little", ctx)


def test_qexp_split_factorizes():
    osc, ctx = small_osc(q=0.7, cap=10)
    basis = osc.a0.basis
    x = 0.3 * np.diag(ctx.q ** basis.na.astype(float))
    y = 0.3 * osc.a_plus.entries  # XY = qYX exactly
    for kind in ("little", "big"):
        combined, split = qexp_split(x, y, kind, ctx)
        assert interior_residual(combined, split, basis, 7, 7) <= 1e-12


@pytest.mark.parametrize("kind", ["little", "big"])
def test_qexp_split_blockwise_product_matches_dense(kind):
    # at the identities benchmark's arguments: q = 0.9, truncation 20
    osc, ctx = small_osc(q=0.9, cap=20)
    for cx, cy in ((0.3, 0.3), (-0.3, 0.3)):
        x = cx * np.diag(ctx.q ** osc.a0.basis.na.astype(float))
        y = cy * osc.a_plus.entries
        combined, split = qexp_split(x, y, kind, ctx)
        first, second = (y, x) if kind == "little" else (x, y)
        dense = matrix_qexp(first, kind, ctx) @ matrix_qexp(second, kind, ctx)
        assert np.array_equal(combined, matrix_qexp(x + y, kind, ctx))
        assert deviation(split, dense) <= 1e-14


def test_reorder_big_and_mixed_converged_blocks():
    osc, ctx = small_osc(q=0.9, cap=20)
    basis = osc.a0.basis
    l, r = exp_reorder_big(0.3, 0.3, osc, ctx)
    assert interior_residual(l, r, basis, 6, 6) <= 1e-9
    l, r = exp_reorder_mixed(0.3, 0.3, osc, ctx)
    assert interior_residual(l, r, basis, 4, 4) <= 1e-9


def identity_outputs(name):
    """The outputs of exp_reorder_* or qbch_conjugate at the arguments of
    the identities benchmark: q = 0.9, truncation 20."""
    osc, ctx = small_osc(q=0.9, cap=20)
    if name == "qbch_conjugate":
        k_plus, _ = pair_ladders(osc, ctx)
        y = np.diag(osc.a0.basis.na.astype(float))
        return [
            qbch_conjugate(k_plus, y, lam, 0.3, kind, ctx)
            for kind in ("big", "little")
            for lam in (0.3, -0.3, 0.1)
        ]
    fn = getattr(pseudorotation, name)
    return [m for a, b in ((0.3, 0.3), (0.1, 0.1), (0.3, -0.3)) for m in fn(a, b, osc, ctx)]


@pytest.mark.parametrize(
    "name, digest",
    [
        ("exp_reorder_little", "c77b845fbd251fabb70e88b3c1bd4ebfa3cde99d54b33f7c700819f5774406f3"),
        ("exp_reorder_big", "22b70db213b33c86476e344abedb59fc34b68a0b54de910f0f9778d3bcc46ebc"),
        ("exp_reorder_mixed", "49363fce2b26889cef92e3b6730c213544df722d73978d00aca0bf4c11861ca8"),
        ("qbch_conjugate", "c7c2640bd24c0ebf2158f7601cc28bfe665dd9d050d81f697c89509265230a56"),
    ],
)
def test_identity_outputs_are_bit_identical(name, digest):
    # frozen from the build with a separate nilpotent-only matrix_qexp and a
    # series-only matrix_qexp_series
    assert sha256(np.stack(identity_outputs(name))) == digest


def test_reorder_little_breakage_decays_with_margin():
    # the little reordering never reaches a truncation-free block at this
    # size; certify instead that the edge breakage decays inward
    osc, ctx = small_osc(q=0.9, cap=20)
    basis = osc.a0.basis
    l, r = exp_reorder_little(0.3, 0.3, osc, ctx)
    res = [interior_residual(l, r, basis, keep, keep) for keep in (12, 8, 4)]
    assert res[2] < res[1] < res[0]
    assert res[2] <= 1e-5


# --- classical limit operator -------------------------------------------------


def test_classical_u_tau_zero():
    t = FockTruncation(6, 6)
    u = classical_U(0.0, t)
    assert np.array_equal(u.matrix.entries, np.eye(t.dim))


def test_classical_u_is_orthogonal():
    t = FockTruncation(10, 10)
    u = classical_U(0.4, t)
    assert np.abs(u.matrix.entries.T @ u.matrix.entries - np.eye(t.dim)).max() <= 1e-12


def test_classical_u_corner_matches_sech():
    t = FockTruncation(32, 32)
    u = classical_U(0.5, t)
    assert classical_element(u, 1, 0, 0) == pytest.approx(
        1.0 / math.cosh(0.5), abs=1e-9
    )


@pytest.mark.parametrize("k", [8, 16, 32])
def test_classical_u_matches_dense_expm(k):
    """The per-block exponentials against scipy's expm of the dense
    generator J~+ - J~- on the whole product space (worst measured 1.1e-13,
    at k = 32)."""
    t = FockTruncation(k, k)
    cl = build_classical(t)
    ref = scipy.linalg.expm(0.5 * (cl.j_plus.entries - cl.j_minus.entries))
    dev = np.abs(classical_U(0.5, t).matrix.entries - ref).max()
    assert dev <= 1e-12


@pytest.mark.parametrize("k", [8, 16, 32])
@pytest.mark.parametrize("d", [0, 2])
def test_classical_blocks_match_a_50_digit_exponential(d, k):
    """Blocks d = 0 and 2 against mpmath's expm of the same truncated
    generator block at 50 digits (worst measured 2.9e-15, at k = 32;
    scipy's expm was off by 2.4e-14 there)."""
    u = classical_U(0.5, FockTruncation(k, k))
    m = np.arange(k - d)
    up = 0.5 * np.sqrt((m + 1.0) * (m + 1.0 + d))
    with mpmath.workdps(50):
        ref = mpmath.expm(mpmath.matrix((np.diag(up, -1) - np.diag(up, 1)).tolist()))
        ref = np.array(ref.tolist(), dtype=float)
    assert np.abs(u.block(d) - ref).max() <= 5e-15


@pytest.mark.parametrize("tau", [0.5, 2.0, 20.0])
def test_classical_blocks_stay_orthogonal_at_large_tau(tau):
    # scipy's expm lost orthogonality as tau grew: 3.9e-12 at tau = 20.
    # classical_U refuses tau = 20 (tanh(tau)^2 rounds to 1), the blocks not
    u = ClassicalU(tau, FockTruncation(128, 128))
    for d in (-64, 0, 2, 64):
        b = u.block(d)
        assert np.abs(b.T @ b - np.eye(len(b))).max() <= 1e-14


def test_classical_element_out_of_block():
    # a negative index would read the far end of the block
    u = classical_U(0.3, FockTruncation(6, 6))
    for n, x in ((7, 0), (-1, 0), (0, -1)):
        with pytest.raises(OutOfTruncation, match="outside sector of size 7"):
            classical_element(u, 1, n, x)


@pytest.mark.parametrize("n_a, beta", [(8, 1), (9, 2), (12, 4), (13, 3)])
def test_sector_interior_formula(n_a, beta):
    # interior = every level but the top quarter of each mode
    t = FockTruncation(n_a, n_a + beta - 1)
    na_keep = n_a - math.ceil(n_a / 4)
    nb_keep = t.n_b_max - math.ceil(t.n_b_max / 4)
    expected = min(na_keep, nb_keep - beta + 1)
    u = build_U(MatrixElementParams(0.3, beta, QContext(q=0.5)), t)
    assert t.interior == (na_keep, nb_keep)
    assert u.sector_interior(beta) == expected


def test_classical_U_refuses_tau_by_the_tau_rule():
    # it returned NaN-filled matrices for these taus, with no error
    t = FockTruncation(4, 4)
    for tau, message in TAU_REFUSALS.items():
        with pytest.raises(ValueError) as exc:
            classical_U(tau, t)
        assert str(exc.value) == message
    with pytest.raises(OverflowError):
        classical_U(1e200, t)  # cosh(tau) overflows
