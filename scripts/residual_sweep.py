"""Sweep interior margins and report identity residuals as CSV.

Shows how each operator identity behaves as the kept block shrinks away
from the truncation edge: the conjugation identities are exact at every
margin, the exponential reorderings decay at identity-specific rates, and
the little-exponential one keeps a visible floor at moderate arguments.

    python3 scripts/residual_sweep.py --q 0.9 --trunc 20 --a 0.3 --b 0.3
"""

import argparse
import csv
import sys

import numpy as np

from qmeixner.meixner import MatrixElementParams
from qmeixner.oscillator import FockTruncation, build_oscillators
from qmeixner.pseudorotation import (
    build_U,
    conjugated_lowering,
    conjugated_lowering_dual,
    conjugated_raising,
    conjugated_raising_dual,
    exp_reorder_big,
    exp_reorder_little,
    exp_reorder_mixed,
    interior_residual,
)
from qmeixner.qseries import QContext


def conjugation_rows(args, ctx):
    t = FockTruncation(args.trunc, args.trunc + args.beta - 1)
    u = build_U(MatrixElementParams(args.theta, args.beta, ctx), t)
    u_shift = build_U(
        MatrixElementParams(args.theta * ctx.q**-0.5, args.beta, ctx), t
    )
    named = [
        ("conj_lowering", lambda: conjugated_lowering(u, u_shift, tol=np.inf)),
        ("conj_raising", lambda: conjugated_raising(u, u_shift, tol=np.inf)),
        ("conj_lowering_dual", lambda: conjugated_lowering_dual(u, tol=np.inf)),
        ("conj_raising_dual", lambda: conjugated_raising_dual(u, tol=np.inf)),
    ]
    for name, fn in named:
        _, res = fn()
        # the built-in certification already maxes over the interior block
        yield name, u.truncation.interior[0], res


def reorder_rows(args, ctx):
    t = FockTruncation(args.trunc, args.trunc)
    osc = build_oscillators(t, ctx)
    basis = osc.a0.basis
    pairs = {
        "reorder_little": exp_reorder_little(args.a, args.b, osc, ctx),
        "reorder_big": exp_reorder_big(args.a, args.b, osc, ctx),
        "reorder_mixed": exp_reorder_mixed(args.a, args.b, osc, ctx),
    }
    for keep in range(args.trunc, 1, -2):
        for name, (lhs, rhs) in pairs.items():
            yield name, keep, interior_residual(lhs, rhs, basis, keep, keep)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=float, default=0.9)
    ap.add_argument("--theta", type=float, default=0.3)
    ap.add_argument("--beta", type=int, default=1)
    ap.add_argument("--trunc", type=int, default=20)
    ap.add_argument("--a", type=float, default=0.3, help="left reorder coefficient")
    ap.add_argument("--b", type=float, default=0.3, help="right reorder coefficient")
    ap.add_argument("--out", default="-", help="output CSV path, - for stdout")
    args = ap.parse_args(argv)

    ctx = QContext(q=args.q)
    rows = list(conjugation_rows(args, ctx)) + list(reorder_rows(args, ctx))

    handle = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        w = csv.writer(handle)
        w.writerow(["identity", "keep", "residual"])
        for name, keep, res in rows:
            w.writerow([name, keep, f"{res:.6e}"])
    finally:
        if handle is not sys.stdout:
            handle.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
