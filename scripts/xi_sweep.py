"""Sweep random cells of the closed-form xi against the mpmath oracle, as CSV.

Draws (q, theta, beta, n, x) with q uniform in [0.02, 0.999], |theta|
log-uniform in [0.03, 10] with a random sign, beta in 1..4 and n, x in
0..80, evaluates meixner.xi on each and compares it with the 60-digit
bench/oracle.py.  One row per q band: cells drawn, refusals by error type,
non-finite values returned, and the worst absolute error with its cell.

    python3 scripts/xi_sweep.py --cells 3000 --seed 20261019

The CSV goes to stdout (a file is a shell redirect, `> path`) once every
cell is evaluated.  A --cells below 1 writes nothing and exits 2 with one
error line on stderr, through the refusal contract of qmeixner.cli.run.
"""

import argparse
import csv
import math
import random
import sys
from collections import Counter
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for bench.oracle

from bench import oracle  # noqa: E402
from qmeixner.cli import run  # noqa: E402
from qmeixner.meixner import MatrixElementParams, xi  # noqa: E402
from qmeixner.qseries import QContext  # noqa: E402

BANDS = [0.02, 0.3, 0.6, 0.9, 0.999]


def draw(rng):
    q = rng.uniform(BANDS[0], BANDS[-1])
    theta = math.exp(rng.uniform(math.log(0.03), math.log(10.0)))
    theta *= rng.choice((-1.0, 1.0))
    return q, theta, rng.randint(1, 4), rng.randint(0, 80), rng.randint(0, 80)


def band_rows(cells):
    bands = {lo: [] for lo in BANDS[:-1]}
    for cell in cells:
        lo = max(b for b in BANDS[:-1] if b <= cell[0])
        bands[lo].append(cell)
    for lo, hi in zip(BANDS, BANDS[1:]):
        refusals, non_finite, worst = Counter(), 0, (0.0, "")
        for q, theta, beta, n, x in bands[lo]:
            try:
                value = xi(n, x, MatrixElementParams(theta, beta, QContext(q=q)))
            except (ArithmeticError, ValueError) as exc:  # a typed refusal
                refusals[type(exc).__name__] += 1
                continue
            if not math.isfinite(value):
                non_finite += 1
                continue
            err = abs(value - oracle.xi(n, x, beta, theta, q))
            if err > worst[0]:
                worst = (err, f"q={q!r} theta={theta!r} beta={beta} n={n} x={x}")
        yield (
            lo,
            hi,
            len(bands[lo]),
            " ".join(f"{k}:{v}" for k, v in sorted(refusals.items())),
            non_finite,
            f"{worst[0]:.3e}",
            worst[1],
        )


def sweep(args):
    if args.cells < 1:
        raise ValueError(f"--cells must be >= 1, got {args.cells}")
    rng = random.Random(args.seed)
    rows = list(band_rows([draw(rng) for _ in range(args.cells)]))
    w = csv.writer(sys.stdout)
    w.writerow(
        ["q_from", "q_to", "cells", "refusals", "non_finite", "max_abs_error", "worst_cell"]
    )
    w.writerows(rows)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=20261019)
    return run(partial(sweep, ap.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
