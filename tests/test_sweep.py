"""Accuracy sweep against the 60-digit benchmark oracle (bench/oracle.py)
across the admissible range, not only on fixed tables: every drawn cell is
a typed refusal or a finite value within its bound of the oracle.

qmeixner is not swept yet: its 50-digit re-sum has no stated bound where
the terms cancel by more than about 33 digits (M_25(q^-25) at q = 0.1,
c = 1 is exactly 0 and comes out as -4.25e106).
"""

import math
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for bench.oracle

from bench import oracle  # noqa: E402
from qmeixner.errors import NonConvergent, PoleHit  # noqa: E402
from qmeixner.meixner import MatrixElementParams, xi  # noqa: E402
from qmeixner.qseries import QContext  # noqa: E402

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
