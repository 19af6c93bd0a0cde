"""Smoke test of the experiment scripts: each runs as its own process,
exits 0 and writes its CSV header first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", "-"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
