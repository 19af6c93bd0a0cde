"""High-precision reference values computed apart from qmeixner.

Evaluates the q-Meixner polynomial from its defining terminating series

    M_n(q^-x; b, c; q) = 2phi1(q^-n, q^-x; b q; q, -q^(n+1)/c),
    b = q^(beta-1),

and the overlap coefficient from its closed form

    xi_{n,x}(theta; beta) = (-1)^x theta^(n+x)
        * ([n+beta-1, n]_q [x+beta-1, x]_q)^(1/2)
        * ( q^(C(x,2)-C(n,2)) / ((-theta^2; q)_{x+beta} (-theta^2 q^-n; q)_n) )^(1/2)
        * M_n(q^-x; q^(beta-1), theta^2; q)

in mpmath at DPS decimal digits.  Float arguments are converted exactly,
so the oracle sees the same binary q and theta as the library.  This module
must not import qmeixner: it is the independent side of every comparison.
"""

from __future__ import annotations

import mpmath

DPS = 60


def _poch(a, n: int, q):
    """(a; q)_n as an exact finite product."""
    prod = mpmath.mpf(1)
    for k in range(n):
        prod *= 1 - a * q**k
    return prod


def _qbinom(n: int, k: int, q):
    return _poch(q, n, q) / (_poch(q, k, q) * _poch(q, n - k, q))


def _meixner(n: int, x: int, beta: int, c, q):
    bq = q**beta
    z = -(q ** (n + 1)) / c
    total = mpmath.mpf(0)
    term = mpmath.mpf(1)
    for k in range(min(n, x) + 1):
        total += term
        num = (1 - q ** (k - n)) * (1 - q ** (k - x))
        term *= num / ((1 - q ** (k + 1)) * (1 - bq * q**k)) * z
    return total


def meixner(n: int, x: int, beta: int, theta: float, q: float) -> float:
    """M_n(q^-x; q^(beta-1), theta^2; q) rounded to the nearest double."""
    with mpmath.workdps(DPS):
        qm = mpmath.mpf(q)
        th = mpmath.mpf(theta)
        return float(_meixner(n, x, beta, th * th, qm))


def xi(n: int, x: int, beta: int, theta: float, q: float) -> float:
    """xi_{n,x}(theta; beta) rounded to the nearest double."""
    with mpmath.workdps(DPS):
        qm = mpmath.mpf(q)
        th = mpmath.mpf(theta)
        t2 = th * th
        radicand = q ** (mpmath.mpf(x * (x - 1) - n * (n - 1)) / 2) / (
            _poch(-t2, x + beta, qm) * _poch(-t2 * qm ** (-n), n, qm)
        )
        value = (
            (-1) ** x
            * th ** (n + x)
            * mpmath.sqrt(_qbinom(n + beta - 1, n, qm) * _qbinom(x + beta - 1, x, qm))
            * mpmath.sqrt(radicand)
            * _meixner(n, x, beta, t2, qm)
        )
        return float(value)
