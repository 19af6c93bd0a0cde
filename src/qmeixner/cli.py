"""Command line front end.

Four subcommands:

  tabulate   polynomial value tables (q-deformed or classical family)
  xi         overlap-coefficient matrices, from the closed form and/or
             from the operator product
  verify     run identity checks from the relation registry
  limit      error-vs-k convergence tables for the q -> 1 limits

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage error, 3 numeric/truncation error.  Output goes to stdout as CSV
(header row, LF endings) or JSON (one object with a "records" array);
both formats carry identical values, with floats in shortest round-trip
form.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

from .errors import (
    EmptyGrid,
    NonConvergent,
    OutOfBlock,
    OutOfTruncation,
    TruncationTooSmall,
)
from .meixner import (
    MatrixElementParams,
    MeixnerParams,
    classical_meixner,
    classical_xi_limit,
    qmeixner,
    xi,
)
from .oscillator import FockTruncation
from .pseudorotation import (
    build_U,
    classical_U,
    classical_element,
    element,
    sector_interior,
)
from .qseries import QContext
from .verify import RelationId, check, default_grid, limit_passes

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(records: list[dict], columns: list[str], fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps({"records": records}))
        out.write("\n")
    else:
        out.write(",".join(columns) + "\n")
        for rec in records:
            out.write(",".join(_cell(rec[c]) for c in columns) + "\n")


def _usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _numeric(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_NUMERIC


def _resolve_c(args) -> float | None:
    """c and theta are two views of one parameter: c = theta^2."""
    if args.theta is not None:
        c = args.theta * args.theta
        if math.isinf(c) and math.isfinite(args.theta):
            raise OverflowError(f"c = theta^2 at theta = {args.theta}")
        return c
    return args.c


def _resolve_theta(args) -> float | None:
    if args.theta is not None:
        return args.theta
    if args.c is not None:
        if args.c <= 0.0:
            raise ValueError(f"c must be positive, got {args.c}")
        return math.sqrt(args.c)
    return None


def _negative_size(args, names: tuple[str, ...]) -> str | None:
    """The first of the named size options that is negative, if any."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            return f"--{name} must be >= 0, got {value}"
    return None


# ---------------------------------------------------------------------------


def cmd_tabulate(args) -> int:
    bad = _negative_size(args, ("nmax", "xmax"))
    if bad:
        return _usage(bad)
    try:
        if args.family == "qmeixner":
            if args.q is None:
                return _usage("tabulate --family qmeixner requires --q")
            c = _resolve_c(args)
            if c is None:
                return _usage("tabulate requires --theta or --c")
            ctx = QContext(q=args.q)
            if args.beta is not None:
                params = MeixnerParams.from_beta(args.beta, c, ctx)
            elif args.b is not None:
                params = MeixnerParams.from_b(args.b, c, ctx)
            else:
                return _usage("tabulate --family qmeixner requires --beta or --b")
            value = partial(qmeixner, p=params)
        else:  # classical
            beta = args.beta if args.beta is not None else args.b
            if beta is None:
                return _usage("tabulate --family classical requires --beta or --b")
            c = _resolve_c(args)
            if c is None:
                return _usage("tabulate requires --theta or --c")

            def value(n, x):
                return classical_meixner(n, float(x), beta, c)

        records = [
            {"n": n, "x": x, "value": value(n, x)}
            for n in range(args.nmax + 1)
            for x in range(args.xmax + 1)
        ]
    except ValueError as exc:
        return _usage(str(exc))
    _emit(records, ["n", "x", "value"], args.format, sys.stdout)
    return EXIT_OK


def cmd_xi(args) -> int:
    bad = _negative_size(args, ("nmax", "xmax", "trunc"))
    if bad:
        return _usage(bad)
    try:
        if args.q is None:
            return _usage("xi requires --q")
        if args.beta is None:
            return _usage("xi requires an integer --beta")
        theta = _resolve_theta(args)
        if theta is None:
            return _usage("xi requires --theta or --c")
        ctx = QContext(q=args.q)
        mp = MatrixElementParams(theta, args.beta, ctx)
    except ValueError as exc:
        return _usage(str(exc))

    m = max(args.nmax, args.xmax)
    need = 2 * m
    closed = args.source in ("closed", "both")
    operator = args.source in ("operator", "both")
    u = None
    if operator:
        if args.trunc is not None and args.trunc < need:
            return _numeric(
                f"--trunc {args.trunc} < {need} = 2*max(nmax, xmax); "
                "the interior block cannot cover the requested elements"
            )
        # the B mode needs beta-1 extra levels to hold the sector offset;
        # sector elements are exact finite sums, so no edge-weight gate here
        trunc = max(args.trunc if args.trunc is not None else need, 1)
        t = FockTruncation(trunc, trunc + args.beta - 1)
        # without --trunc: the smallest truncation whose interior covers the table
        while args.trunc is None and sector_interior(t, args.beta) < m:
            t = FockTruncation(t.n_a_max + 1, t.n_b_max + 1)
        try:
            u = build_U(mp, t, edge_tol=math.inf)
        except (TruncationTooSmall, NonConvergent) as exc:
            return _numeric(str(exc))

    records = []
    try:
        for n in range(args.nmax + 1):
            for x in range(args.xmax + 1):
                rec: dict = {"n": n, "x": x}
                if closed:
                    rec["closed"] = xi(n, x, mp)
                if operator:
                    rec["operator"] = element(u, args.beta, n, x)
                if closed and operator:
                    rec["discrepancy"] = abs(rec["closed"] - rec["operator"])
                if args.source == "closed":
                    rec["value"] = rec.pop("closed")
                elif args.source == "operator":
                    rec["value"] = rec.pop("operator")
                records.append(rec)
    except (OutOfBlock, OutOfTruncation, NonConvergent) as exc:
        return _numeric(str(exc))

    if args.source == "both":
        columns = ["n", "x", "closed", "operator", "discrepancy"]
    else:
        columns = ["n", "x", "value"]
    _emit(records, columns, args.format, sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        return _usage(f"--tol must be finite and positive, got {args.tol}")
    names = args.relation if args.relation else [r.value for r in RelationId]
    try:
        relations = [RelationId(name) for name in names]
    except ValueError as exc:
        return _usage(str(exc))
    records = []
    all_passed = True
    try:
        for rid in relations:
            grid = default_grid(rid, qs=args.q, betas=args.beta, thetas=args.theta)
            report = check(rid, grid=grid, tol=args.tol)
            all_passed = all_passed and report.passed
            records.append(
                {
                    "relation": rid.value,
                    "points": len(report.grid),
                    "skipped": len(report.skipped),
                    "max_residual": report.max_residual,
                    "passed": report.passed,
                }
            )
    except (EmptyGrid, ValueError) as exc:
        return _usage(str(exc))
    except NonConvergent as exc:
        return _numeric(str(exc))
    _emit(
        records,
        ["relation", "points", "skipped", "max_residual", "passed"],
        args.format,
        sys.stdout,
    )
    return EXIT_OK if all_passed else EXIT_FAIL


def cmd_limit(args) -> int:
    bad = _negative_size(args, ("nmax", "xmax"))
    if bad:
        return _usage(bad)
    if args.kind != "poly" and not math.isfinite(args.tau):
        return _usage(f"--tau must be finite, got {args.tau}")
    ks = args.k if args.k else ([8, 16, 32] if args.kind == "operator" else [2, 3, 4])
    if any(k < 1 for k in ks):
        return _usage("--k values must be positive integers")
    cells = [(n, x) for n in range(args.nmax + 1) for x in range(args.xmax + 1)]
    records = []
    try:
        if args.kind == "poly":
            exact = [classical_meixner(n, float(x), args.beta, args.c) for n, x in cells]
        else:
            exact = [classical_xi_limit(n, x, args.beta, args.tau) for n, x in cells]
        for k in ks:
            if args.kind == "operator":  # k is the truncation size
                t = FockTruncation(k, k + args.beta - 1)
                u = classical_U(args.tau, t)
                rec = {"k": k, "trunc": k}
                approx = partial(classical_element, u, t, args.beta)
            else:
                q = 1.0 - 10.0**-k
                rec = {"k": k, "q": q}
                if args.kind == "poly":
                    c = args.c / (1.0 - args.c)
                    p = MeixnerParams.from_beta(args.beta, c, QContext(q=q))
                    approx = partial(qmeixner, p=p)
                else:
                    theta = math.sinh(args.tau)
                    mp = MatrixElementParams(theta, args.beta, QContext(q=q))
                    approx = partial(xi, mp=mp)
            rec["max_error"] = max(
                abs(approx(n, x) - e) for (n, x), e in zip(cells, exact)
            )
            records.append(rec)
    except ValueError as exc:
        return _usage(str(exc))
    except (OutOfBlock, OutOfTruncation, TruncationTooSmall, NonConvergent) as exc:
        return _numeric(str(exc))

    columns = ["k", "trunc" if args.kind == "operator" else "q", "max_error"]
    _emit(records, columns, args.format, sys.stdout)
    ok = limit_passes([rec["max_error"] for rec in records])
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _add_bb(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--beta", type=int, help="integer parameter beta >= 1 (b = q^(beta-1))")
    g.add_argument("--b", type=float, help="real parameter b in (0, 1)")


def _add_tc(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--theta", type=float, help="rotation parameter theta (c = theta^2)")
    g.add_argument("--c", type=float, help="polynomial parameter c > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeixner",
        description="q-Meixner polynomials, overlap coefficients, and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tabulate", help="emit a table of polynomial values")
    p.add_argument("--family", choices=["qmeixner", "classical"], default="qmeixner")
    p.add_argument("--q", type=float, help="base q in (0, 1)")
    _add_bb(p)
    _add_tc(p)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--xmax", type=int, default=8)
    _add_format(p)
    p.set_defaults(fn=cmd_tabulate)

    p = sub.add_parser("xi", help="emit a matrix of overlap coefficients")
    p.add_argument("--q", type=float, help="base q in (0, 1)")
    p.add_argument("--beta", type=int, help="integer sector label beta >= 1")
    _add_tc(p)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--xmax", type=int, default=8)
    p.add_argument(
        "--source",
        choices=["closed", "operator", "both"],
        default="closed",
        help="closed form, operator matrix element, or both plus discrepancy",
    )
    p.add_argument(
        "--trunc",
        type=int,
        help="per-mode truncation for --source operator/both "
        "(must be >= 2*max(nmax, xmax); default: smallest size whose "
        "interior block covers the table)",
    )
    _add_format(p)
    p.set_defaults(fn=cmd_xi)

    p = sub.add_parser("verify", help="run identity checks from the registry")
    p.add_argument(
        "--relation",
        action="append",
        choices=[r.value for r in RelationId],
        help="restrict to one relation (repeatable); default: all",
    )
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--q", type=float, action="append", help="override grid q axis (repeatable)")
    p.add_argument("--beta", type=int, action="append", help="override grid beta axis (repeatable)")
    p.add_argument("--theta", type=float, action="append", help="override grid theta axis (repeatable)")
    _add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("limit", help="error-vs-k tables for the q -> 1 limits")
    p.add_argument("--kind", choices=["poly", "xi", "operator"], required=True)
    p.add_argument(
        "--k",
        type=int,
        action="append",
        help="poly/xi: q = 1 - 10^-k (default 2 3 4); "
        "operator: truncation sizes (default 8 16 32)",
    )
    p.add_argument("--beta", type=int, default=1)
    p.add_argument("--tau", type=float, default=0.5, help="rotation angle (kinds xi, operator)")
    p.add_argument("--c", type=float, default=0.5, help="classical c in (0, 1) (kind poly)")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--xmax", type=int, default=4)
    _add_format(p)
    p.set_defaults(fn=cmd_limit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OverflowError as exc:
        # every command writes its output only after the last value, so
        # an overflow leaves stdout empty
        return _numeric(f"overflow: {exc}")


if __name__ == "__main__":
    sys.exit(main())
