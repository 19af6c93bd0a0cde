"""Polynomials, weights, norms, overlaps: oracles and structural properties."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeixner.meixner import (
    MatrixElementParams,
    MeixnerParams,
    classical_meixner,
    classical_xi_limit,
    dual_orthogonality_sum,
    duality_transform,
    norm_factor,
    orthogonality_sum,
    qmeixner,
    weight,
    xi,
    xi_dual,
)
from qmeixner.qseries import QContext, q_pochhammer

CTX = QContext(q=0.5)


def brute_meixner(n: int, x: int, b: float, c: float, q: float) -> float:
    """Plain double-loop 2phi1 evaluation, independent of the library path."""
    total = 0.0
    for k in range(min(n, x) + 1):
        num = den = 1.0
        for j in range(k):
            num *= (1.0 - q ** (j - n)) * (1.0 - q ** (j - x))
            den *= (1.0 - q ** (j + 1)) * (1.0 - b * q ** (j + 1))
        total += num / den * (-(q ** (n + 1)) / c) ** k
    return total


def test_degree_zero_is_one():
    p = MeixnerParams.from_beta(2, 0.25, CTX)
    for x in range(6):
        assert qmeixner(0, x, p) == 1.0


def test_lattice_origin_is_one():
    p = MeixnerParams.from_b(0.3, 0.8, CTX)
    for n in range(6):
        assert qmeixner(n, 0, p) == 1.0


def test_hand_value_n1_x1():
    # b = 0.5, c = 1, q = 0.5: 1 + (-1)(-1)/((1-q)(1-bq)) * (-q^2/c) = 1/3
    p = MeixnerParams.from_b(0.5, 1.0, CTX)
    assert qmeixner(1, 1, p) == pytest.approx(1.0 / 3.0, rel=1e-14)


@given(
    n=st.integers(0, 7),
    x=st.integers(0, 7),
    beta=st.integers(1, 4),
    c=st.floats(0.1, 2.0),
    q=st.floats(0.2, 0.9),
)
@settings(max_examples=150)
def test_matches_brute_force(n, x, beta, c, q):
    ctx = QContext(q=q)
    p = MeixnerParams.from_beta(beta, c, ctx)
    expected = brute_meixner(n, x, q ** (beta - 1), c, q)
    assert qmeixner(n, x, p) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        MeixnerParams(c=0.5, ctx=CTX)  # neither b nor beta
    with pytest.raises(ValueError):
        MeixnerParams(c=0.5, ctx=CTX, b=0.5, beta=2)  # both
    with pytest.raises(ValueError):
        MeixnerParams.from_b(1.5, 0.5, CTX)
    with pytest.raises(ValueError):
        MeixnerParams.from_beta(0, 0.5, CTX)
    with pytest.raises(ValueError):
        MeixnerParams.from_beta(2, -1.0, CTX)
    with pytest.raises(ValueError):
        MatrixElementParams(0.0, 1, CTX)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(bad):
    with pytest.raises(ValueError):
        MeixnerParams.from_beta(2, bad, CTX)
    with pytest.raises(ValueError):
        MatrixElementParams(bad, 1, CTX)


# --- weight and norm -------------------------------------------------------


def test_weight_origin():
    mp = MatrixElementParams(0.5, 2, CTX)
    assert weight(0, mp) == pytest.approx(
        1.0 / q_pochhammer(-0.25, 2, CTX), rel=1e-14
    )


def test_norm_factor_hand_values():
    mp = MatrixElementParams(1.0, 1, CTX)
    assert norm_factor(0, mp) == 1.0
    # (1-q)(1 + t2/q) / (1-q) = 3 at t2 = 1, q = 0.5
    assert norm_factor(1, mp) == pytest.approx(3.0, rel=1e-14)


def test_weight_sums_to_norm0():
    # sum_x omega_x = norm_factor(0) = 1 for beta = 1, theta = 1, q = 0.5
    mp = MatrixElementParams(1.0, 1, CTX)
    total, _ = orthogonality_sum(0, 0, mp)
    assert total == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n,n2", [(0, 0), (1, 1), (3, 3), (0, 2), (1, 4)])
def test_orthogonality_small(n, n2):
    mp = MatrixElementParams(0.7, 2, QContext(q=0.6))
    total, _ = orthogonality_sum(n, n2, mp)
    scale = math.sqrt(norm_factor(n, mp) * norm_factor(n2, mp))
    if n == n2:
        assert total == pytest.approx(norm_factor(n, mp), rel=1e-11)
    else:
        assert abs(total) <= 1e-11 * scale


def test_dual_sum_carries_completeness_defect():
    """The dual sum converges but NOT to 1/omega: frozen 60-digit oracle
    for the x = 0 deficit at q = 0.5, theta = 0.3, beta = 1."""
    mp = MatrixElementParams(0.3, 1, CTX)
    total, _ = dual_orthogonality_sum(0, 0, mp)
    assert total * weight(0, mp) == pytest.approx(
        0.99955998788948319518, abs=1e-12
    )


# --- overlaps --------------------------------------------------------------


def test_xi_corner_value():
    # xi_{0,0} = (-theta^2; q)_beta^(-1/2)
    for beta in (1, 2, 3):
        mp = MatrixElementParams(0.5, beta, CTX)
        expected = q_pochhammer(-0.25, beta, CTX) ** -0.5
        assert xi(0, 0, mp) == pytest.approx(expected, rel=1e-14)


def test_xi_hand_value_01():
    # theta = 1, beta = 1, q = 0.5: -1/sqrt(3)
    mp = MatrixElementParams(1.0, 1, CTX)
    assert xi(0, 1, mp) == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-14)


def test_xi_large_degree_is_stable():
    # regression: the naive grouping overflowed beyond n ~ 160
    mp = MatrixElementParams(0.5, 2, CTX)
    v = xi(200, 3, mp)
    assert math.isfinite(v)
    assert abs(v) <= 1.0


@given(
    n=st.integers(0, 12),
    x=st.integers(0, 12),
    beta=st.integers(1, 4),
    theta=st.floats(0.1, 1.5),
    q=st.floats(0.2, 0.9),
)
@settings(max_examples=150)
def test_xi_bounded_by_one(n, x, beta, theta, q):
    # rows of an orthonormal family: every entry lies in [-1, 1]
    mp = MatrixElementParams(theta, beta, QContext(q=q))
    assert abs(xi(n, x, mp)) <= 1.0 + 1e-12


def test_xi_row_orthonormality():
    mp = MatrixElementParams(0.7, 2, QContext(q=0.6))
    for n, n2 in [(0, 0), (2, 2), (0, 3), (1, 2)]:
        total = sum(xi(n, x, mp) * xi(n2, x, mp) for x in range(120))
        assert total == pytest.approx(1.0 if n == n2 else 0.0, abs=1e-12)


def test_duality_is_involution():
    p = MeixnerParams.from_beta(3, 0.49, CTX)
    x1, n1, p1 = duality_transform(2, 5, p)
    n2, x2, p2 = duality_transform(x1, n1, p1)
    assert (n2, x2) == (2, 5)
    assert p2 == p  # exact, the shift is an integer
    assert qmeixner(2, 5, p) == pytest.approx(qmeixner(x1, n1, p1), rel=1e-12)


def test_xi_self_duality():
    mp = MatrixElementParams(0.6, 2, QContext(q=0.7))
    for n, x in [(0, 1), (2, 3), (4, 1)]:
        pref, xd, nd, mpd = xi_dual(n, x, mp)
        assert xi(n, x, mp) == pytest.approx(pref * xi(xd, nd, mpd), rel=1e-12)


# --- classical companions --------------------------------------------------


def test_classical_meixner_degree_one():
    # M_1(x; beta, c) = 1 + x (1 - 1/c)/beta * (-1)... check against the sum
    assert classical_meixner(1, 2.0, 3.0, 0.5) == pytest.approx(
        1.0 + (-1.0) * (-2.0) / 3.0 * (1.0 - 2.0), rel=1e-14
    )


def test_classical_meixner_validation():
    with pytest.raises(ValueError):
        classical_meixner(-1, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        classical_meixner(1, 0.0, 1.0, 1.5)


def test_classical_xi_corner():
    assert classical_xi_limit(0, 0, 1, 0.5) == pytest.approx(
        1.0 / math.cosh(0.5), rel=1e-14
    )
    assert classical_xi_limit(0, 0, 2, 0.3) == pytest.approx(
        math.cosh(0.3) ** -2.0, rel=1e-14
    )


def test_classical_xi_tau_zero_identity():
    assert classical_xi_limit(2, 2, 1, 0.0) == 1.0
    assert classical_xi_limit(2, 3, 1, 0.0) == 0.0


def test_xi_approaches_classical():
    # q -> 1 with theta = sinh(tau): errors shrink with k
    tau, beta = 0.4, 2
    errs = []
    for k in (2, 3, 4):
        ctx = QContext(q=1.0 - 10.0**-k)
        mp = MatrixElementParams(math.sinh(tau), beta, ctx)
        errs.append(
            max(
                abs(xi(n, x, mp) - classical_xi_limit(n, x, beta, tau))
                for n in range(4)
                for x in range(4)
            )
        )
    assert errs[2] < errs[1] < errs[0]
