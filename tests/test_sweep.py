"""Accuracy sweep across the admissible range, not only on fixed tables:
every drawn cell is a typed refusal or a finite value within its bound of
an oracle.  xi is held to the 60-digit benchmark oracle (bench/oracle.py);
weight, norm_factor and the q-exponentials to their defining products in
50-digit mpmath, written out below apart from the package; the
non-terminating basic_hypergeometric to mpmath.qhyper at 50 digits, within
1e-12 of its sum of |terms| plus the tail it reports.

qmeixner is not swept yet: its 50-digit re-sum has no stated bound where
the terms cancel by more than about 33 digits (M_25(q^-25) at q = 0.1,
c = 1 is exactly 0 and comes out as -4.25e106).
"""

import math
import sys
from pathlib import Path

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for bench.oracle

from bench import oracle  # noqa: E402
from qmeixner.errors import NonConvergent, PoleHit  # noqa: E402
from qmeixner.meixner import MatrixElementParams, norm_factor, weight, xi  # noqa: E402
from qmeixner.qseries import (  # noqa: E402
    QContext,
    basic_hypergeometric,
    big_qexp,
    little_qexp,
)

# the bound on |xi - oracle| that the benchmark's XI_TOL states
XI_TOL = 1e-9

# what a refused cell may raise: the CLI's exit-3 errors of a closed form
REFUSALS = (OverflowError, NonConvergent, PoleHit)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    q=st.floats(0.02, 0.999),
    log_theta=st.floats(math.log(0.03), math.log(10.0)),
    sign=st.sampled_from((-1.0, 1.0)),
    beta=st.integers(1, 4),
    n=st.integers(0, 80),
    x=st.integers(0, 80),
)
def test_xi_is_refused_or_within_xi_tol_of_the_oracle(q, log_theta, sign, beta, n, x):
    theta = sign * math.exp(log_theta)
    try:
        value = xi(n, x, MatrixElementParams(theta, beta, QContext(q=q)))
    except REFUSALS:
        return
    assert math.isfinite(value)
    assert abs(value - oracle.xi(n, x, beta, theta, q)) <= XI_TOL


# Relative bounds on products of rounded factors: weight and norm_factor
# multiply at most a few hundred factors here (worst seen 1.4e-14), and a
# q-exponential up to MAX_TERMS = 10^4 of them, k factors costing about
# k * 2.2e-16 (worst seen 7.4e-14 for little_qexp, 3.4e-13 for big_qexp).
# A value below the double range may round to 0.0 or a subnormal, so one
# subnormal step is allowed on top.
PRODUCT_TOL = 1e-12
QEXP_TOL = 1e-11
SUBNORMAL_STEP = 5e-324


def within(value, exact, rel):
    return math.isfinite(value) and abs(value - exact) <= rel * abs(exact) + SUBNORMAL_STEP


def mp_poch(a, n, q):
    """(a; q)_n as a finite mpmath product."""
    return mpmath.fprod(1 - a * q**k for k in range(n))


def mp_poch_inf(a, q):
    """(a; q)_oo: the finite product while |a q^k| >= 1e-10, then the tail by
    its logarithm -sum_m (a q^K)^m / (m (1 - q^m)), whose terms fall like
    1e-10^m."""
    prod = mpmath.mpf(1)
    while abs(a) >= 1e-10:
        prod *= 1 - a
        a *= q
    return prod * mpmath.exp(-mpmath.fsum(a**m / (m * (1 - q**m)) for m in range(1, 7)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    q=st.floats(0.02, 0.999),
    log_theta=st.floats(math.log(0.03), math.log(10.0)),
    sign=st.sampled_from((-1.0, 1.0)),
    beta=st.integers(1, 4),
    k=st.integers(0, 80),
)
def test_weight_and_norm_are_refused_or_within_their_bound(q, log_theta, sign, beta, k):
    theta = sign * math.exp(log_theta)
    mp = MatrixElementParams(theta, beta, QContext(q=q))
    with mpmath.workdps(50):
        qm, t2 = mpmath.mpf(q), mpmath.mpf(theta) ** 2
        binom = mp_poch(qm, k + beta - 1, qm) / (mp_poch(qm, k, qm) * mp_poch(qm, beta - 1, qm))
        omega = t2**k * binom * qm ** (k * (k - 1) // 2) / mp_poch(-t2, k + beta, qm)
        h = (
            qm ** (k * (k - 1) // 2)
            * mp_poch(-t2 * qm ** (-k), k, qm)
            / (t2**k * binom)
        )
    assert within(weight(k, mp), omega, PRODUCT_TOL)
    try:
        value = norm_factor(k, mp)
    except OverflowError:
        assert h > sys.float_info.max
        return
    assert within(value, h, PRODUCT_TOL)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(q=st.floats(0.02, 0.999), z=st.floats(-50.0, 0.99))
def test_little_qexp_is_refused_or_within_its_bound(q, z):
    try:
        value = little_qexp(z, QContext(q=q)).value
    except REFUSALS:
        return
    with mpmath.workdps(50):
        assert within(value, 1 / mp_poch_inf(mpmath.mpf(z), mpmath.mpf(q)), QEXP_TOL)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(q=st.floats(0.02, 0.999), z=st.floats(-500.0, 9.9))
# its running product peaks near 1e322 and comes back to 1.9e257; it was inf
@example(q=0.9835146630331925, z=-167.04980695166228)
def test_big_qexp_is_refused_or_within_its_bound(q, z):
    try:
        value = big_qexp(z, QContext(q=q)).value
    except REFUSALS:
        return
    with mpmath.workdps(50):
        assert within(value, mp_poch_inf(-mpmath.mpf(z), mpmath.mpf(q)), QEXP_TOL)


@st.composite
def phi_cells(draw):
    """(numerators, denominators, z) of a non-terminating r_phi_s that may
    converge: r in 0..3, s in max(0, r - 1)..2, and |z| < 1 where r = s + 1."""
    r = draw(st.integers(0, 3))
    s = draw(st.integers(max(0, r - 1), 2))
    params = st.floats(-3.0, 3.0)
    numerators = draw(st.lists(params, min_size=r, max_size=r))
    denominators = draw(st.lists(params, min_size=s, max_size=s))
    if r == s + 1:
        z = draw(st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True))
    else:
        z = draw(st.floats(-5.0, 5.0))
    return numerators, denominators, z


def mp_phi(numerators, denominators, q, z):
    """r_phi_s by mpmath.qhyper; where z or a numerator factor 1 - a q^k is
    exactly 0, the finite sum of the terms before it, from the definition
    (qhyper's stopping test passes over zero terms and never ends there)."""
    a_s = [mpmath.mpf(a) for a in numerators]
    b_s = [mpmath.mpf(b) for b in denominators]
    q, z = mpmath.mpf(q), mpmath.mpf(z)
    # |a| <= 3 and q <= 0.98, so a q^k falls below 1 before k = 60
    zeros = [k for a in a_s for k in range(60) if a * q**k == 1]
    if z and not zeros:
        return mpmath.qhyper(a_s, b_s, q, z)
    p = 1 + len(b_s) - len(a_s)
    return mpmath.fsum(
        mpmath.fprod(mpmath.qp(a, q, n) for a in a_s)
        / mpmath.fprod(mpmath.qp(b, q, n) for b in b_s)
        / mpmath.qp(q, q, n)
        * ((-1) ** n * q ** (n * (n - 1) // 2)) ** p
        * z**n
        for n in range(min(zeros, default=0) + 1)
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(q=st.floats(0.02, 0.98), cell=phi_cells())
# its sum lost more bits to cancellation than it kept: -3.6e-10 was
# returned for -9.0e-12
@example(q=0.8861937987173055, cell=([-1.8050566346639796], [], -0.7799579842192175))
def test_basic_hypergeometric_is_refused_or_within_its_bound(q, cell):
    numerators, denominators, z = cell
    try:
        series = basic_hypergeometric(numerators, denominators, z, QContext(q=q))
    except REFUSALS:
        return
    assert math.isfinite(series.value)
    with mpmath.workdps(50):
        exact = mp_phi(numerators, denominators, q, z)
        assert abs(series.value - exact) <= 1e-12 * series.magnitude + series.tail_estimate
