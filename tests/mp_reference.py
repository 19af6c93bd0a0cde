"""Overlap coefficients xi_{n,x} and the outer factors of U(theta) in
mpmath, for the accuracy tests.

Sums the closed form of qmeixner.meixner.xi at 50 digits on the exact
values of the float arguments, without any code of the package.  A whole
table shares its q-Pochhammer prefixes, so 49x49 cells take about a second.
"""

import functools

import mpmath


@functools.lru_cache(maxsize=None)
def xi_table(q: float, beta: int, theta: float, nmax: int, xmax: int):
    """rows[n][x] = xi_{n,x}(theta; beta) rounded to the nearest double."""
    with mpmath.workdps(50):
        q, th = mpmath.mpf(q), mpmath.mpf(theta)
        t2 = th * th
        m = max(nmax, xmax) + beta
        qq = [mpmath.mpf(1)]  # (q; q)_k
        tt = [mpmath.mpf(1)]  # (-t2; q)_k
        for k in range(m):
            qq.append(qq[-1] * (1 - q ** (k + 1)))
            tt.append(tt[-1] * (1 + t2 * q**k))

        def binom(a, b):
            return qq[a] / (qq[b] * qq[a - b])

        rows = []
        for n in range(nmax + 1):
            # (-t2 q^-n; q)_n and the terms' z = -q^(n+1)/t2
            tn = mpmath.fprod(1 + t2 * q ** (k - n) for k in range(n))
            z = -(q ** (n + 1)) / t2
            row = []
            for x in range(xmax + 1):
                total = term = mpmath.mpf(1)
                for k in range(min(n, x)):
                    term *= (1 - q ** (k - n)) * (1 - q ** (k - x)) * z
                    term /= (1 - q ** (k + 1)) * (1 - q ** (beta + k))
                    total += term
                radicand = q ** (mpmath.mpf(x * (x - 1) - n * (n - 1)) / 2) / (
                    tt[x + beta] * tn
                )
                value = (
                    (-1) ** x
                    * th ** (n + x)
                    * mpmath.sqrt(binom(n + beta - 1, n) * binom(x + beta - 1, x))
                    * mpmath.sqrt(radicand)
                    * total
                )
                row.append(float(value))
            rows.append(row)
        return rows


def outer_factors(q: float, theta: float, nmax: int):
    """(rows, cols) for n <= nmax at 50 digits: rows[n] = F(-n)^(-1/2) and
    cols[n] = F(n+1)^(1/2), F(m) = (-theta^2 q^m; q)_oo.

    Each F(m) is its own finite product down to level nmax + 2, times the
    shared infinite tail from there, taken until its factors differ from 1
    by less than 1e-55."""
    with mpmath.workdps(50):
        q, t2 = mpmath.mpf(q), mpmath.mpf(theta) ** 2
        top = nmax + 2
        tail, a = mpmath.mpf(1), t2 * q**top
        while a >= mpmath.mpf(10) ** -55:
            tail *= 1 + a
            a *= q

        def F(m):
            return mpmath.fprod(1 + t2 * q**k for k in range(m, top)) * tail

        rows = [1 / mpmath.sqrt(F(-n)) for n in range(nmax + 1)]
        cols = [mpmath.sqrt(F(n + 1)) for n in range(nmax + 1)]
        return rows, cols
