"""The register of known wrong outputs.

Each of rows a to f asserts the right behaviour at the worst cell of a
wrong output the package still gives with no error: a typed refusal where
that is right, or a value within 1e-9 of a high-precision oracle (within
1e-12 for row d).  Each is marked xfail(strict=True) with the ROADMAP item
that is to mend it, so a fix XPASSes, strict mode fails the run, and the
fixing change removes the marker.  Rows g and h are mended, and their tests
are plain ones.

The oracles are bench/oracle.py's closed form at 60 digits (150 for row b,
where 60 digits keep too few), on the exact double arguments.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmeixner.errors import NonConvergent, PoleHit
from qmeixner.meixner import MatrixElementParams, MeixnerParams, qmeixner, xi
from qmeixner.oscillator import FockTruncation
from qmeixner.pseudorotation import build_U, element
from qmeixner.qseries import QContext
from qmeixner.verify import limit_xi_errors

ROOT = Path(__file__).resolve().parent.parent

# the numeric refusals of the CLI's exit code 3 that a value can end in
REFUSED = (ArithmeticError, NonConvergent, PoleHit)


def refused_or_near(read, oracle, tol):
    """Whether read() is a typed numeric refusal or within tol of oracle."""
    try:
        value = read()
    except REFUSED:
        return True
    return abs(value - oracle) <= tol


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_a_xi_near_q_one_is_refused_or_right():
    # prints 253187.0402014714: 1 - q^j loses its digits at q = 1 - 2.3e-15
    mp = MatrixElementParams(-0.4746068916012417, 6, QContext(0.9999999999999977))
    assert refused_or_near(lambda: xi(81, 39, mp), 0.04274682668320118, 1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_b_xi_at_large_n_is_refused_or_right():
    # prints -0.026880577596560172: the 50-digit re-sum keeps about 2 digits
    mp = MatrixElementParams(2.0, 1, QContext(0.99))
    assert refused_or_near(lambda: xi(193, 200, mp), -0.026884526826119935, 1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_c_exact_zeros_of_the_polynomial_are_zero():
    # print 9.70004999994e+106 and 9.997000003e+130; a digits-lost refusal
    # is not the fix, so only the value counts
    p = MeixnerParams.from_beta(1, 1.0, QContext(0.1))
    assert abs(qmeixner(25, 25, p)) <= 1e-9
    assert abs(qmeixner(27, 27, p)) <= 1e-9


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_d_operator_element_is_refused_or_right_to_1e12():
    # off by 2.78e-9: the cancellation of the block's finite sum
    u = build_U(MatrixElementParams(0.3, 1, QContext(0.9)), FockTruncation(60, 60))
    assert refused_or_near(lambda: element(u, 1, 58, 59), -0.07107969369605956, 1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_e_operator_element_near_q_one_is_refused_or_right():
    # off by 0.0239, which `xi --source both` prints as its discrepancy
    u = build_U(MatrixElementParams(0.5, 1, QContext(0.996)), FockTruncation(60, 60))
    assert refused_or_near(lambda: element(u, 1, 59, 59), -0.0516244285774956, 1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
def test_f_limit_error_at_k_8_is_refused_or_right():
    # the worst cell of `limit --kind xi --beta 2 --tau 0.5 --nmax 8
    # --xmax 8 --k 6 --k 7 --k 8`: its k = 8 error reads 2.72e-8 for
    # 1.03e-8 (the table's true largest, 1.75e-8, is at cell (4, 8))
    assert refused_or_near(
        lambda: limit_xi_errors(5, 8, 2, 0.5, [6, 7, 8])[0][2], 1.033005037065493e-08, 1e-9
    )


def test_g_a_reader_that_closes_early_gets_no_traceback():
    # about 110 KB of CSV, more than a 64 KB pipe buffer holds, so a write
    # meets the closed pipe while the command runs: exit 128 + SIGPIPE
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "qmeixner.cli", "tabulate", "--q", "0.5", "--beta", "1",
            "--theta", "0.3", "--nmax", "60", "--xmax", "60"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first == b"n,x,value\n"
    assert code == 141
    assert err == b""


def test_h_a_numpy_integer_beta_is_an_integer():
    ctx = QContext(0.5)
    mp = MatrixElementParams(0.3, np.int64(2), ctx)
    assert type(mp.beta) is int and mp == MatrixElementParams(0.3, 2, ctx)
    assert xi(3, 4, mp) == xi(3, 4, MatrixElementParams(0.3, 2, ctx))
    u = build_U(mp, FockTruncation(8, 8))
    assert element(u, np.int64(1), 0, 0) == element(u, 1, 0, 0)
