"""Sweep interior margins and report identity residuals as CSV.

Shows how each operator identity behaves as the kept block shrinks away
from the truncation edge: the conjugation identities are exact at every
margin, the exponential reorderings decay at identity-specific rates, and
the little-exponential one keeps a visible floor at moderate arguments.

    python3 scripts/residual_sweep.py --q 0.9 --trunc 20 --a 0.3 --b 0.3

The CSV goes to stdout (a file is a shell redirect, `> path`).  Every
residual is computed before the first line is written, so a refusal writes
no table: a bad argument exits 2, a numeric refusal exits 3, each with one
error line on stderr, a refusal of an identity naming it.
"""

import argparse
import csv
import sys
from functools import partial

import numpy as np

from qmeixner.cli import run
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


def naming(identity, fn):
    """fn(), the message of what it raises led by the identity's name."""
    try:
        return fn()
    except Exception as exc:
        # an OverflowError of float ** carries (errno, text)
        exc.args = (f"{identity}: {exc.args[-1] if exc.args else ''}",)
        raise


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
        _, res = naming(name, fn)
        # the built-in certification already maxes over the interior block
        yield name, u.truncation.interior[0], res


def reorder_rows(args, ctx):
    t = FockTruncation(args.trunc, args.trunc)
    osc = build_oscillators(t, ctx)
    basis = osc.a0.basis
    pairs = {
        name: naming(name, partial(fn, args.a, args.b, osc, ctx))
        for name, fn in [
            ("reorder_little", exp_reorder_little),
            ("reorder_big", exp_reorder_big),
            ("reorder_mixed", exp_reorder_mixed),
        ]
    }
    for keep in range(args.trunc, 1, -2):
        for name, (lhs, rhs) in pairs.items():
            yield name, keep, interior_residual(lhs, rhs, basis, keep, keep)


def sweep(args):
    ctx = QContext(q=args.q)
    rows = list(conjugation_rows(args, ctx)) + list(reorder_rows(args, ctx))
    w = csv.writer(sys.stdout)
    w.writerow(["identity", "keep", "residual"])
    w.writerows([name, keep, f"{res:.6e}"] for name, keep, res in rows)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=float, default=0.9)
    ap.add_argument("--theta", type=float, default=0.3)
    ap.add_argument("--beta", type=int, default=1)
    ap.add_argument("--trunc", type=int, default=20)
    ap.add_argument("--a", type=float, default=0.3, help="left reorder coefficient")
    ap.add_argument("--b", type=float, default=0.3, help="right reorder coefficient")
    return run(partial(sweep, ap.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
