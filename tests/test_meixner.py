"""Polynomials, weights, norms, overlaps: oracles and structural properties."""

import hashlib
import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeixner import meixner, qseries
from qmeixner.errors import NonConvergent
from qmeixner.meixner import (
    MatrixElementParams,
    MeixnerParams,
    classical_meixner,
    classical_xi_limit,
    dual_degree_factor,
    duality_transform,
    norm_factor,
    qmeixner,
    weight,
    xi,
    xi_dual,
)
from qmeixner.qseries import (
    QContext,
    QPower,
    basic_hypergeometric,
    big_qexp,
    q_binomial,
    q_pochhammer,
)
from qmeixner.verify import dual_orthogonality_sum, orthogonality_sum

import mp_reference

CTX = QContext(q=0.5)


def brute_meixner(n: int, x: int, beta: int, c: float, q: float) -> Fraction:
    """The terminating 2phi1 summed exactly in rationals, on the exact values
    of the float arguments: independent of the library path and free of
    the cancellation a double-precision loop suffers near a zero."""
    q, c = Fraction(q), Fraction(c)
    b = q ** (beta - 1)
    total = Fraction(0)
    for k in range(min(n, x) + 1):
        num = den = Fraction(1)
        for j in range(k):
            num *= (1 - q ** (j - n)) * (1 - q ** (j - x))
            den *= (1 - q ** (j + 1)) * (1 - b * q ** (j + 1))
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
@example(n=7, x=7, beta=1, c=1.0, q=0.25)  # the exact value is 0
@example(n=5, x=5, beta=1, c=1.0, q=0.201171875)  # 0, from terms as large as 2.6e4
@settings(max_examples=150)
def test_matches_brute_force(n, x, beta, c, q):
    ctx = QContext(q=q)
    p = MeixnerParams.from_beta(beta, c, ctx)
    expected = float(brute_meixner(n, x, beta, c, q))
    assert qmeixner(n, x, p) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def general_2phi1(n: int, x: int, p: MeixnerParams) -> tuple[float, float]:
    """qmeixner's sum through the general r_phi_s with QPower markers: the
    reference its kernel must match bit for bit."""
    q = p.ctx.q
    bq = QPower(p.beta) if p.beta is not None else p.b * q
    z = -(q ** (n + 1)) / (p.c * q**p.c_shift)
    sv = basic_hypergeometric([QPower(-n), QPower(-x)], [bq], z, p.ctx)
    return sv.value, sv.magnitude


def kernel_2phi1(n: int, x: int, p: MeixnerParams) -> tuple[float, float]:
    q = p.ctx.q
    return meixner._terminating_2phi1(q, p.c, p.b, n, x, p.beta, p.c_shift)[:2]


def _outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except (ArithmeticError, NonConvergent) as exc:
        return type(exc)


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN-aware ==


@given(
    n=st.integers(0, 70),
    x=st.integers(0, 70),
    q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    c=st.floats(1e-6, 1e6),
    c_shift=st.integers(-10, 10),
    form=st.one_of(
        st.integers(1, 8), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    ),
)
@example(n=69, x=69, q=0.999, c=1.0, c_shift=0, form=1)
@example(n=40, x=55, q=1e-3, c=2.0, c_shift=-10, form=0.5)
@settings(max_examples=300)
def test_kernel_matches_the_general_2phi1_bit_for_bit(n, x, q, c, c_shift, form):
    ctx = QContext(q=q)
    if isinstance(form, int):
        p = MeixnerParams.from_beta(form, c, ctx, c_shift=c_shift)
    else:
        p = MeixnerParams(c=c, ctx=ctx, b=form, c_shift=c_shift)
    expected = _outcome(general_2phi1, n, x, p)
    got = _outcome(kernel_2phi1, n, x, p)
    if expected is NonConvergent:
        # a term that is not finite: the general sum refuses it, and the
        # kernel's double, which the precision rule re-takes in decimal,
        # is not finite either
        assert not all(map(math.isfinite, got))
    elif isinstance(expected, type):  # e.g. q^-70 overflows on both routes
        assert got is expected
    else:
        assert _same(got[0], expected[0]) and _same(got[1], expected[1])


def test_qmeixner_never_calls_the_general_2phi1(monkeypatch):
    calls = []
    original = qseries.basic_hypergeometric

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # rebind the name in every module that holds it, as a tracer would
    for mod in [m for name, m in sys.modules.items() if name.startswith("qmeixner")]:
        if getattr(mod, "basic_hypergeometric", None) is original:
            monkeypatch.setattr(mod, "basic_hypergeometric", counted)
    for p in (
        MeixnerParams.from_beta(2, 0.25, CTX, c_shift=3),
        MeixnerParams.from_b(0.3, 0.8, QContext(q=0.9)),
        MeixnerParams.from_beta(1, 1.0, QContext(q=0.25)),  # decimal re-sum
    ):
        for n in range(8):
            for x in range(8):
                qmeixner(n, x, p)
    assert calls == []
    qseries.basic_hypergeometric([QPower(-1)], [0.5], 0.1, CTX)
    assert len(calls) == 1  # the counter sees a call through qseries


def test_qmeixner_sums_an_overflowing_double_sum_in_decimal():
    # a term of the double sum overflows, and the sum gave NaN
    p = MeixnerParams.from_beta(1, 1.0, QContext(q=0.1))
    assert qmeixner(6, 57, p) == pytest.approx(
        float(brute_meixner(6, 57, 1, 1.0, 0.1)), rel=1e-15
    )


def test_qmeixner_refuses_a_value_beyond_the_double_range():
    with pytest.raises(OverflowError) as exc:
        qmeixner(1, 1, MeixnerParams.from_beta(1, 1e-320, CTX))
    assert str(exc.value) == "M_1(q^-1) exceeds the double range"


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
    with pytest.raises(OverflowError):
        MatrixElementParams(-1e200, 1, CTX)  # theta^2 overflows


def test_negative_lattice_indices_are_refused():
    mp = MatrixElementParams(0.5, 1, CTX)
    for value in (
        lambda: weight(-1, mp),
        lambda: norm_factor(-1, mp),
        lambda: xi(-1, 0, mp),
        lambda: classical_xi_limit(-1, 0, 1, 0.5),
    ):
        with pytest.raises(ValueError, match=">= 0"):
            value()


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


def _mp_weight_and_norm(k, q, theta, beta):
    """omega_k and h_k in 50-digit mpmath from their closed forms."""
    with mpmath.workdps(50):
        q, t2 = mpmath.mpf(q), mpmath.mpf(theta) ** 2

        def poch(a, m):
            return mpmath.fprod(1 - a * q**j for j in range(m))

        binom = poch(q, k + beta - 1) / (poch(q, k) * poch(q, beta - 1))
        omega = t2**k * binom * q ** (k * (k - 1) // 2) / poch(-t2, k + beta)
        h = q ** (k * (k - 1) // 2) * poch(-t2 * q**-k, k) / (t2**k * binom)
        return float(omega), float(h)


# (k, q, theta, beta): the double forms of omega_k and h_k left the range.
# weight(8) at theta = 1e19 and 1e15 returned 0.0, norm_factor(8) inf at
# 1e19 and nan at 1e20, weight(40) at 1e5 raised a bare OverflowError; the
# last two cells returned a normal double that rested on a subnormal factor,
# weight(48) 84% and norm_factor(46) 86% off.
_RANGE_CELLS = [
    (8, 0.4, 1e19, 1),
    (8, 0.4, 1e15, 4),
    (7, 0.4, 1e15, 4),
    (8, 0.4, 1e20, 1),
    (40, 0.4, 1e5, 1),
    (48, 0.516590001175745, 8.84592350924751, 3),
    (46, 0.4868167181394342, -0.18408930154220715, 2),
]


@pytest.mark.parametrize("k, q, theta, beta", _RANGE_CELLS)
def test_weight_and_norm_match_mpmath_where_doubles_leave_the_range(k, q, theta, beta):
    mp = MatrixElementParams(theta, beta, QContext(q=q))
    omega, h = _mp_weight_and_norm(k, q, theta, beta)
    assert weight(k, mp) == pytest.approx(omega, rel=1e-14, abs=0.0)
    assert norm_factor(k, mp) == pytest.approx(h, rel=1e-14, abs=0.0)


def test_norm_factor_beyond_the_double_range_names_h_n():
    # h_8 ~ theta^-16 at theta = 1e-20
    with pytest.raises(OverflowError, match=r"^h_8 = norm_factor\(8\) exceeds the double range$"):
        norm_factor(8, MatrixElementParams(1e-20, 1, CTX))


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


def test_dual_degree_factor_matches_closed_form():
    q, beta, t2 = 0.6, 3, 0.49
    ctx = QContext(q=q)
    factor = dual_degree_factor(t2, beta, q)
    for n in range(12):
        closed = (
            t2**n
            * q ** (-(n * (n - 1) // 2))
            * q_binomial(n + beta - 1, n, ctx)
            / q_pochhammer(-t2 * q ** (-n), n, ctx)
        )
        assert factor(n) == pytest.approx(closed, rel=1e-12)


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


@pytest.mark.parametrize(
    "q, beta, theta", [(0.5, 1, 0.3), (0.5, 2, -0.7), (0.3, 1, 0.3), (0.1, 1, 1.0)]
)
def test_xi_table_matches_mpmath_where_the_radicand_underflows(q, beta, theta):
    """The 61x61 table against 50-digit mpmath, every cell within 1e-14
    (measured: at most 2.0e-15).  Where the radicand q^(C(x,2)+n) / (...)
    underflows while M_n is huge, the direct product gave 0.0, e.g. at
    (25, 48) of the q = 0.5, theta = 0.3 table, whose value is -0.6017; where
    the double sum for M_n overflows it gave NaN, in 45, 708 and 1,439
    cells of the three beta = 1 tables.  Those cells are summed in decimal."""
    mp = MatrixElementParams(theta, beta, QContext(q=q))
    oracle = mp_reference.xi_table(q, beta, theta, 60, 60)
    errors = [
        (abs(xi(n, x, mp) - oracle[n][x]), n, x) for n in range(61) for x in range(61)
    ]
    worst = max(errors)
    assert worst[0] <= 1e-14, worst


def decimal_path_outputs() -> list:
    """Outputs where most values take the decimal path: the 61x61 beta = 1
    xi table at (q, theta) = (0.1, 1.0), weight and norm_factor there up to
    60, M_n(q^-x) at q = 0.1, c = 1, beta = 1 up to n = x = 27 (with the
    exact zeros M_25(q^-25) and M_27(q^-27), whose values are noise), and an
    E_q whose running product leaves the double range and comes back."""
    ctx = QContext(q=0.1)
    mp = MatrixElementParams(1.0, 1, ctx)
    p = MeixnerParams.from_beta(1, 1.0, ctx)
    return [
        [xi(n, x, mp) for n in range(61) for x in range(61)],
        [weight(k, mp) for k in range(61)],
        [norm_factor(k, mp) for k in range(61)],
        [qmeixner(n, x, p) for n in range(28) for x in range(28)],
        big_qexp(-167.04980695166228, QContext(q=0.9835146630331925)),
    ]


# sha256 of repr(decimal_path_outputs()): repr pins every bit, and shows a
# Decimal that leaked out of a public function
_DECIMAL_PATH_SHA256 = "7008c2e2e977e8cdd892f854ed4678af99632141a4f19e769007ea7b8a10ef0c"


def test_decimal_path_outputs_are_bit_identical():
    digest = hashlib.sha256(repr(decimal_path_outputs()).encode()).hexdigest()
    assert digest == _DECIMAL_PATH_SHA256


def test_xi_leaves_m_n_to_the_decimal_path_where_the_radicand_underflows(monkeypatch):
    # the radicand q^(C(30,2)+10) / (...) = 1e-445 sends the cell to the
    # decimal re-take; the double attempt summed M_n there first all the same
    kinds = []
    kernel = meixner._terminating_2phi1

    def spy(q, *args):
        kinds.append(type(q))
        return kernel(q, *args)

    monkeypatch.setattr(meixner, "_terminating_2phi1", spy)
    value = xi(10, 30, MatrixElementParams(1.0, 1, QContext(q=0.1)))
    assert float not in kinds and kinds
    assert value.hex() == "0x1.b4ee7402509bep-76"


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


def test_xi_dual_refuses_a_dual_theta_whose_square_leaves_the_range():
    # the dual theta -0.3 q^((x-n)/2) = -3e-176 at q = 1e-50, (0, 7) was
    # refused as a usage error naming a theta the caller never gave
    mp = MatrixElementParams(0.3, 1, QContext(q=1e-50))
    with pytest.raises(OverflowError) as exc:
        xi_dual(0, 7, mp)
    assert str(exc.value) == (
        "dual theta -3e-176 = -theta q^((x-n)/2): its square leaves the double range"
    )


def test_qmeixner_takes_decimals_where_c_q_shift_leaves_the_range():
    # c q^8 = 0.09e-400 underflows to 0 at q = 1e-50, and -q^(n+1)/c divided
    # by zero; where min(n, x) = 0 the sum is its first term, 1
    p = MeixnerParams.from_beta(1, 0.09, QContext(q=1e-50), c_shift=8)
    assert qmeixner(3, 0, p) == 1.0
    assert qmeixner(0, 3, p) == 1.0
    with pytest.raises(OverflowError, match=r"^M_1\(q\^-1\) exceeds the double range$"):
        qmeixner(1, 1, p)  # about -1.1e400
    # c q^-8 = 0.09e400 overflows
    p = MeixnerParams.from_beta(1, 0.09, QContext(q=1e-50), c_shift=-8)
    assert qmeixner(2, 0, p) == 1.0


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
    # an infinite beta gave 1.0 at every degree, a NaN one a bogus overflow
    for beta in (math.inf, -math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError) as exc:
            classical_meixner(1, 0.0, beta, 0.5)
        assert str(exc.value) == f"beta must be finite and positive, got {beta}"
    with pytest.raises(OverflowError):
        classical_meixner(3, 3, 1, 1e-300)  # the term w^g overflows: was NaN


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


# theta -> (error type, message) of the one theta rule, meixner.theta_squared
THETA_REFUSALS = {
    0.0: (ValueError, "theta must be finite and nonzero, got 0.0"),
    math.nan: (ValueError, "theta must be finite and nonzero, got nan"),
    math.inf: (ValueError, "theta must be finite and nonzero, got inf"),
    -math.inf: (ValueError, "theta must be finite and nonzero, got -inf"),
    1e-200: (ValueError, "theta 1e-200 is too small: theta^2 underflows to 0"),
    -1e-200: (ValueError, "theta -1e-200 is too small: theta^2 underflows to 0"),
    1e200: (OverflowError, "c = theta^2 at theta = 1e+200"),
    -1e200: (OverflowError, "c = theta^2 at theta = -1e+200"),
}


def test_matrix_element_params_refuse_theta_by_the_theta_rule():
    # 1e-200 squares to 0, where xi divided by zero and weight returned 0.0
    for theta, (error, message) in THETA_REFUSALS.items():
        with pytest.raises(error) as exc:
            MatrixElementParams(theta, 1, CTX)
        assert type(exc.value) is error and str(exc.value) == message


# tau -> message of the tau rule, meixner.classical_c
TAU_REFUSALS = {
    math.nan: "tau must be finite, got nan",
    math.inf: "tau must be finite, got inf",
    -math.inf: "tau must be finite, got -inf",
    1e-300: "tau 1e-300 is too small: tanh(tau)^2 underflows to 0",
    20.0: "tau 20.0 is too large: tanh(tau)^2 rounds to 1",
}


def test_classical_xi_limit_names_tau():
    for tau, message in TAU_REFUSALS.items():
        with pytest.raises(ValueError) as exc:
            classical_xi_limit(1, 1, 1, tau)
        assert str(exc.value) == message
    with pytest.raises(OverflowError):
        classical_xi_limit(1, 1, 1, 1e200)  # cosh(tau) overflows
    assert classical_xi_limit(1, 1, 1, 0.0) == 1.0  # the identity rotation
