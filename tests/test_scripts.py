"""Smoke test of the experiment scripts: each runs as its own process,
exits 0 and writes its CSV header first to stdout (the scripts take no
output path), or ends a scan it cannot finish with one error line and exit
code 3, or refuses with one error line and no traceback: exit code 2 for a
bad argument, 3 for a numeric refusal."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("residual_sweep.py", ["--trunc", "12"], "identity,keep,residual"),
        (
            "unitarity_scan.py",
            ["--min-trunc", "8", "--max-trunc", "12"],
            "trunc,rows_residual,cols_residual,vacuum_defect",
        ),
        (
            "xi_sweep.py",
            ["--cells", "50", "--seed", "1"],
            "q_from,q_to,cells,refusals,non_finite,max_abs_error,worst_cell",
        ),
    ],
)
def test_script_runs_and_writes_csv(script, args, header):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1


def test_unitarity_scan_ends_at_a_gram_lost_to_underflow():
    # at T = 68 the Gram sums over a row that holds nan; the scan printed
    # "68,1.332268e-15,nan,nan" and exited 0
    proc = run_script(
        "unitarity_scan.py",
        ["--q", "0.5", "--theta", "0.3", "--min-trunc", "64", "--max-trunc", "68"],
    )
    assert proc.returncode == 3
    assert proc.stdout.splitlines() == [
        "trunc,rows_residual,cols_residual,vacuum_defect",
        "64,1.332268e-15,5.266916e-01,4.4001211052e-04",
    ]
    assert proc.stderr.splitlines() == [
        "error: trunc 68: the Gram of offset 0 is not finite"
    ]


@pytest.mark.parametrize(
    "script, args, code, error",
    [
        # the conjugation gate at tol = inf refuses a NaN residual
        (
            "residual_sweep.py",
            ["--q", "0.01", "--trunc", "30"],
            3,
            "error: conj_lowering: conjugated lowering residual nan > inf",
        ),
        (
            "residual_sweep.py",
            ["--q", "0.01", "--trunc", "24"],
            3,
            "error: reorder_little: term 9 of the series is not finite",
        ),
        (
            "residual_sweep.py",
            ["--q", "0.02", "--trunc", "20"],
            3,
            "error: overflow: reorder_big: (a; q)_oo at a = -8.583068847656245e+32, "
            "q = 0.02 exceeds the double range",
        ),
        (
            "residual_sweep.py",
            ["--trunc", "0"],
            2,
            "error: truncation caps must be integers >= 1, got 0 and 0",
        ),
        ("unitarity_scan.py", ["--step", "0"], 2, "error: --step must be >= 1, got 0"),
        (
            "unitarity_scan.py",
            ["--min-trunc", "0"],
            2,
            "error: --min-trunc must be >= 1, got 0",
        ),
        ("unitarity_scan.py", ["--window", "-1"], 2, "error: --window must be >= 0, got -1"),
        # an empty scan printed its header alone and exited 0
        (
            "unitarity_scan.py",
            ["--min-trunc", "12", "--max-trunc", "8"],
            2,
            "error: --max-trunc must be >= 12, got 8",
        ),
        # no cell drawn: four bands of 0 cells, max_abs_error 0.000e+00, exit 0
        ("xi_sweep.py", ["--cells", "0"], 2, "error: --cells must be >= 1, got 0"),
        ("xi_sweep.py", ["--cells", "-1"], 2, "error: --cells must be >= 1, got -1"),
    ],
    ids=[
        "nan_residual", "series", "overflow", "trunc", "step", "min_trunc", "window",
        "max_trunc", "cells_0", "cells_negative",
    ],
)
def test_script_refusal_is_one_error_line_and_no_table(script, args, code, error):
    proc = run_script(script, args)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [error]
