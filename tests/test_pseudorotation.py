"""The pseudorotation operator, its conjugations, and the exponential
identities behind the four-factor assembly."""

import math

import numpy as np
import pytest

from qmeixner.errors import (
    NonConvergent,
    OutOfBlock,
    ResidualFailure,
    TruncationTooSmall,
    UnsupportedShape,
)
from qmeixner.meixner import MatrixElementParams, xi
from qmeixner.oscillator import (
    FockTruncation,
    OperatorMatrix,
    build_oscillators,
    interior_indices,
    sector,
)
from qmeixner.pseudorotation import (
    UOperator,
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
from qmeixner.qseries import QContext, big_qexp, little_qexp, q_pochhammer

CTX = QContext(q=0.5)


def small_osc(q=0.5, cap=6):
    ctx = QContext(q=q)
    return build_oscillators(FockTruncation(cap, cap), ctx), ctx


# --- matrix q-exponentials --------------------------------------------------


def test_qexp_of_zero_is_identity():
    osc, ctx = small_osc()
    zero = OperatorMatrix(np.zeros_like(osc.a0.entries), osc.a0.basis)
    for kind in ("little", "big"):
        out = matrix_qexp(zero, kind, 1.0, ctx)
        assert np.array_equal(out.entries, np.eye(osc.a0.basis.dim))


def test_qexp_single_entry_nilpotent():
    # X^2 = 0 collapses both kinds to I + sX/(1-q)
    osc, ctx = small_osc(cap=1)
    x = osc.a_plus
    for kind in ("little", "big"):
        out = matrix_qexp(x, kind, 0.7, ctx)
        expected = np.eye(x.basis.dim) + 0.7 * x.entries / (1.0 - ctx.q)
        assert np.abs(out.entries - expected).max() <= 1e-15


def test_qexp_little_big_inverse_for_nilpotent():
    osc, ctx = small_osc()
    x = OperatorMatrix(osc.a_plus.entries @ osc.b_plus.entries, osc.a0.basis)
    little = matrix_qexp(x, "little", 0.4, ctx)
    big = matrix_qexp(x, "big", -0.4, ctx)
    assert np.abs(little.entries @ big.entries - np.eye(x.basis.dim)).max() <= 1e-12


def test_qexp_diagonal_uses_scalar_forms():
    osc, ctx = small_osc()
    out = matrix_qexp(osc.a0, "little", -0.3, ctx)
    assert np.count_nonzero(out.entries - np.diag(np.diagonal(out.entries))) == 0


def test_qexp_rejects_mixed_shape():
    osc, ctx = small_osc()
    mixed = OperatorMatrix(osc.a_plus.entries + osc.a_minus.entries, osc.a0.basis)
    with pytest.raises(UnsupportedShape):
        matrix_qexp(mixed, "little", 1.0, ctx)
    with pytest.raises(ValueError):
        matrix_qexp(osc.a0, "huge", 1.0, ctx)


def test_qexp_series_matches_nilpotent_path():
    osc, ctx = small_osc()
    x = 0.3 * (osc.a_plus.entries @ osc.b_plus.entries)
    direct = matrix_qexp(OperatorMatrix(x, osc.a0.basis), "little", 1.0, ctx)
    series = matrix_qexp_series(x, "little", ctx)
    assert np.abs(direct.entries - series).max() <= 1e-12


# --- building U -------------------------------------------------------------


def build(q, theta, beta, cap):
    ctx = QContext(q=q)
    mp = MatrixElementParams(theta, beta, ctx)
    return build_U(mp, FockTruncation(cap, cap + beta - 1))


def dense_reference_U(mp, t):
    """The four-factor product on the whole product space: kron ladders,
    the dense power series of matrix_qexp and the diagonal outer factors."""
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
    f2 = matrix_qexp(OperatorMatrix(x_plus, basis), "little", 1.0, ctx).entries
    f3 = matrix_qexp(OperatorMatrix(x_minus, basis), "big", 1.0, ctx).entries
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
    u = build_U(mp, t, edge_tol=math.inf)
    ref = dense_reference_U(mp, t)
    m = u.matrix.entries
    assert np.all(np.abs(m - ref) <= 1e-11 * np.maximum(np.abs(ref), 1.0))
    sec = sector(t, beta).indices
    for n in range(u.sector_interior(beta) + 1):
        for x in range(u.sector_interior(beta) + 1):
            assert element(u, beta, n, x) == m[sec[n], sec[x]]


def test_element_refuses_underflowed_outer_factor():
    # e_q(-theta^2 q^-n) underflows to 0 for n >= 49 at q = 0.5, theta = 0.3,
    # so those rows of U read 0 in place of xi_{n,x} ~ 1e-4
    mp = MatrixElementParams(0.3, 1, QContext(q=0.5))
    u = build_U(mp, FockTruncation(100, 100), edge_tol=math.inf)
    assert u.row_factor[48] > 0.0 and u.row_factor[49] == 0.0
    # frozen from a 60-digit evaluation of the closed form
    assert element(u, 1, 48, 48) == pytest.approx(1.3008897093380785e-4, rel=1e-12)
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
    u = build(0.5, 0.5, 1, 12)
    cap = u.sector_interior(1)
    assert cap == 12 - math.ceil(12 / 4)
    with pytest.raises(OutOfBlock):
        element(u, 1, cap + 1, 0)
    with pytest.raises(OutOfBlock):
        element(u, 1, 0, -1)


def test_truncation_gates():
    ctx = QContext(q=0.5)
    with pytest.raises(TruncationTooSmall):
        # no room for the sector at all
        build_U(MatrixElementParams(0.5, 6, ctx), FockTruncation(4, 4))
    with pytest.raises(TruncationTooSmall):
        # edge weight far above the default gate
        build_U(MatrixElementParams(3.0, 1, ctx), FockTruncation(4, 4))


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
    # beyond the element-exact zone: probe well-supported rows only
    rows = np.abs((s @ s.T - np.eye(29))[:9, :9]).max()
    assert rows <= 1e-11
    cols = s.T @ s
    assert cols[0, 0] == pytest.approx(0.99955998788948319518, abs=1e-10)
    # the reported residual is the honest max over both directions and is
    # dominated by the column defect
    assert unitarity_residual(u) >= 1.0 - cols[0, 0]


# --- conjugation identities --------------------------------------------------


def conj_pair(q, theta, beta, cap):
    ctx = QContext(q=q)
    t = FockTruncation(cap, cap + beta - 1)
    u = build_U(MatrixElementParams(theta, beta, ctx), t)
    u_shift = build_U(MatrixElementParams(theta * q**-0.5, beta, ctx), t)
    return u, u_shift


def test_conjugations_certify_small_residuals():
    u, u_shift = conj_pair(0.5, 0.5, 1, 16)
    for fn in (conjugated_lowering, conjugated_raising):
        _, res = fn(u, u_shift, tol=1e-11)
        assert res <= 1e-12
    for fn in (conjugated_lowering_dual, conjugated_raising_dual):
        _, res = fn(u, tol=1e-11)
        assert res <= 1e-12


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
    u.blocks[0][0, 0] = math.nan
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
    with pytest.raises(UnsupportedShape):
        qexp_split(osc.a_plus.entries, osc.a_minus.entries, "little", ctx)


def test_qexp_split_factorizes():
    osc, ctx = small_osc(q=0.7, cap=10)
    basis = osc.a0.basis
    x = 0.3 * np.diag(ctx.q ** basis.na.astype(float))
    y = 0.3 * osc.a_plus.entries  # XY = qYX exactly
    for kind in ("little", "big"):
        combined, split = qexp_split(x, y, kind, ctx)
        assert interior_residual(combined, split, basis, 7, 7) <= 1e-12


def test_reorder_big_and_mixed_converged_blocks():
    osc, ctx = small_osc(q=0.9, cap=20)
    basis = osc.a0.basis
    l, r = exp_reorder_big(0.3, 0.3, osc, ctx)
    assert interior_residual(l, r, basis, 6, 6) <= 1e-9
    l, r = exp_reorder_mixed(0.3, 0.3, osc, ctx)
    assert interior_residual(l, r, basis, 4, 4) <= 1e-9


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
    assert np.array_equal(u.entries, np.eye(t.dim))


def test_classical_u_is_orthogonal():
    t = FockTruncation(10, 10)
    u = classical_U(0.4, t)
    assert np.abs(u.entries.T @ u.entries - np.eye(t.dim)).max() <= 1e-12


def test_classical_u_corner_matches_sech():
    t = FockTruncation(32, 32)
    u = classical_U(0.5, t)
    assert classical_element(u, t, 1, 0, 0) == pytest.approx(
        1.0 / math.cosh(0.5), abs=1e-9
    )


def test_classical_element_out_of_block():
    t = FockTruncation(6, 6)
    u = classical_U(0.3, t)
    with pytest.raises(OutOfBlock):
        classical_element(u, t, 1, 7, 0)
