"""Scan truncation sizes and report both Gram directions of U as CSV.

The row direction (U U^T - I) converges to zero superexponentially; the
column direction (U^T U - I) converges to a fixed completeness defect per
column.  The scan prints both, plus the limiting defect at the vacuum
column, so the asymmetry is visible at a glance:

    python3 scripts/unitarity_scan.py --q 0.5 --theta 0.3 --max-trunc 28

Both Gram directions are pseudorotation.gram_deviations over the first
window + 1 states of the beta sector block, the check unitarity_residual
makes over the whole interior.  The CSV goes to stdout (a file is a shell
redirect, `> path`).  A truncation whose Gram is not finite (a row of the
block whose outer factor underflowed holds inf or nan) ends the scan: the
rows before it are written, then one error line on stderr, and the exit
code is 3.  A bad argument, a --max-trunc below --min-trunc among them,
writes nothing and exits 2 with one error line.
"""

import argparse
import csv
import sys
from functools import partial

from qmeixner.cli import run
from qmeixner.errors import NonConvergent
from qmeixner.meixner import MatrixElementParams
from qmeixner.oscillator import FockTruncation
from qmeixner.pseudorotation import build_U, gram_deviations
from qmeixner.qseries import QContext


def scan(args):
    for option, value, least in [
        ("--min-trunc", args.min_trunc, 1),
        ("--step", args.step, 1),
        ("--window", args.window, 0),
        ("--max-trunc", args.max_trunc, args.min_trunc),
    ]:
        if value < least:
            raise ValueError(f"{option} must be >= {least}, got {value}")
    ctx = QContext(q=args.q)
    mp = MatrixElementParams(args.theta, args.beta, ctx)
    w = csv.writer(sys.stdout)
    w.writerow(["trunc", "rows_residual", "cols_residual", "vacuum_defect"])
    for trunc in range(args.min_trunc, args.max_trunc + 1, args.step):
        u = build_U(mp, FockTruncation(trunc, trunc + args.beta - 1))
        # the window stays put as the truncation grows, so the scan separates
        # the two directions instead of mixing in edge rows whose lattice
        # support is cut off
        try:
            rows, cols = gram_deviations(u, args.beta - 1, args.window + 1)
        except NonConvergent as exc:
            raise NonConvergent(f"trunc {trunc}: {exc}") from None
        s = u.block(args.beta - 1)
        defect = 1.0 - float(s[:, 0] @ s[:, 0])
        w.writerow([trunc, f"{rows:.6e}", f"{cols:.6e}", f"{defect:.10e}"])
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--theta", type=float, default=0.3)
    ap.add_argument("--beta", type=int, default=1)
    ap.add_argument("--min-trunc", type=int, default=8)
    ap.add_argument("--max-trunc", type=int, default=28)
    ap.add_argument("--step", type=int, default=4)
    ap.add_argument("--window", type=int, default=8, help="fixed Gram probe window")
    return run(partial(scan, ap.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
