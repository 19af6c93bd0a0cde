"""Scan truncation sizes and report both Gram directions of U as CSV.

The row direction (U U^T - I) converges to zero superexponentially; the
column direction (U^T U - I) converges to a fixed completeness defect per
column.  The scan prints both, plus the limiting defect at the vacuum
column, so the asymmetry is visible at a glance:

    python3 scripts/unitarity_scan.py --q 0.5 --theta 0.3 --max-trunc 28
"""

import argparse
import csv
import sys

import numpy as np

from qmeixner.meixner import MatrixElementParams
from qmeixner.oscillator import FockTruncation
from qmeixner.pseudorotation import build_U
from qmeixner.qseries import QContext


def gram_residuals(u, beta, window=8):
    """Both Gram directions of the beta sector block over a fixed window.

    The window stays put as the truncation grows, so the scan separates the
    two behaviours instead of mixing in edge rows whose lattice support is
    cut off."""
    s = u.blocks[beta - 1]
    w = min(window + 1, s.shape[0])
    eye = np.eye(s.shape[0])
    rows = np.abs(s @ s.T - eye)[:w, :w].max()
    cols = np.abs(s.T @ s - eye)[:w, :w].max()
    vacuum_defect = 1.0 - float(s[:, 0] @ s[:, 0])
    return rows, cols, vacuum_defect


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--theta", type=float, default=0.3)
    ap.add_argument("--beta", type=int, default=1)
    ap.add_argument("--min-trunc", type=int, default=8)
    ap.add_argument("--max-trunc", type=int, default=28)
    ap.add_argument("--step", type=int, default=4)
    ap.add_argument("--window", type=int, default=8, help="fixed Gram probe window")
    ap.add_argument("--out", default="-", help="output CSV path, - for stdout")
    args = ap.parse_args(argv)

    ctx = QContext(q=args.q)
    mp = MatrixElementParams(args.theta, args.beta, ctx)

    handle = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        w = csv.writer(handle)
        w.writerow(["trunc", "rows_residual", "cols_residual", "vacuum_defect"])
        for trunc in range(args.min_trunc, args.max_trunc + 1, args.step):
            u = build_U(mp, FockTruncation(trunc, trunc + args.beta - 1))
            rows, cols, defect = gram_residuals(u, args.beta, args.window)
            w.writerow(
                [trunc, f"{rows:.6e}", f"{cols:.6e}", f"{defect:.10e}"]
            )
    finally:
        if handle is not sys.stdout:
            handle.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
