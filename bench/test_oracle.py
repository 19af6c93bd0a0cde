"""Exact cases for the benchmark oracle.

    python3 -m pytest bench/test_oracle.py
"""

import math
from fractions import Fraction

import pytest

import oracle

QS = (0.5, 0.9, 0.99)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("beta", (1, 3))
def test_degree_zero_and_origin_are_one(q, beta):
    # M_0 = 1 for every x, and M_n(q^0) = 1 because (q^0; q)_k = 0 for k >= 1
    for k in range(12):
        assert oracle.meixner(0, k, beta, 0.7, q) == 1.0
        assert oracle.meixner(k, 0, beta, 0.7, q) == 1.0


def _m1_exact(x: int, beta: int, c: Fraction, q: Fraction) -> Fraction:
    # 2phi1(q^-1, q^-x; q^beta; q, -q^2/c) has the two terms 1 + t_1
    t1 = (1 - 1 / q) * (1 - q**-x) / ((1 - q) * (1 - q**beta)) * (-(q**2) / c)
    return 1 + t1


@pytest.mark.parametrize("x", (1, 2, 5, 9))
def test_degree_one_matches_rational_value(x):
    q = Fraction(1, 2)
    theta = Fraction(3, 4)
    exact = _m1_exact(x, 2, theta * theta, q)
    assert oracle.meixner(1, x, 2, 0.75, 0.5) == pytest.approx(float(exact), rel=1e-15)


def test_vacuum_overlap_closed_form():
    # xi_{0,0} = ((-theta^2; q)_beta)^(-1/2)
    q, theta, beta = 0.5, 0.3, 2
    poch = (1 + theta**2) * (1 + theta**2 * q)
    assert oracle.xi(0, 0, beta, theta, q) == pytest.approx(poch**-0.5, rel=1e-15)


@pytest.mark.parametrize("q, theta", [(0.5, 0.3), (0.9, 0.7)])
def test_rows_are_orthonormal(q, theta):
    # sum_x xi_{n,x} xi_{n',x} = delta_{n n'}; the weight decays like
    # q^(x^2/2), so 80 lattice points leave a negligible tail
    rows = [[oracle.xi(n, x, 1, theta, q) for x in range(80)] for n in range(3)]
    for n in range(3):
        for n2 in range(3):
            dot = math.fsum(a * b for a, b in zip(rows[n], rows[n2]))
            assert dot == pytest.approx(1.0 if n == n2 else 0.0, abs=1e-13)


def test_negative_theta_flips_odd_parity():
    q = 0.7
    for n, x in ((1, 2), (2, 2), (3, 0)):
        sign = -1.0 if (n + x) % 2 else 1.0
        assert oracle.xi(n, x, 1, -0.4, q) == sign * oracle.xi(n, x, 1, 0.4, q)
