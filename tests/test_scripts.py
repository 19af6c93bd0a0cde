"""Smoke test of the experiment scripts: each runs as its own process,
exits 0 and writes its CSV header first, or ends a scan it cannot finish
with one error line and exit code 3."""

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
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script),
         *args, "--out", "-"],
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
            ["--cells", "40"],
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
