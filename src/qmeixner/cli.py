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
from .pseudorotation import build_U, classical_U, classical_element, element
from .qseries import QContext
from .verify import RelationId, check, default_grid

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_CONVERGED = 1e-11  # matches the verify judge's rounding-noise floor


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


def _sector_keep(trunc: int, beta: int) -> int:
    """Sector reach of the interior block at a given per-mode truncation."""
    na_keep = trunc - math.ceil(trunc / 4)
    nb_max = trunc + beta - 1
    nb_keep = nb_max - math.ceil(nb_max / 4)
    return min(na_keep, nb_keep - beta + 1)


# ---------------------------------------------------------------------------


def cmd_tabulate(args) -> int:
    bad = _negative_size(args, ("nmax", "xmax"))
    if bad:
        return _usage(bad)
    try:
        records = []
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
            for n in range(args.nmax + 1):
                for x in range(args.xmax + 1):
                    records.append({"n": n, "x": x, "value": qmeixner(n, x, params)})
        else:  # classical
            beta = args.beta if args.beta is not None else args.b
            if beta is None:
                return _usage("tabulate --family classical requires --beta or --b")
            c = _resolve_c(args)
            if c is None:
                return _usage("tabulate requires --theta or --c")
            for n in range(args.nmax + 1):
                for x in range(args.xmax + 1):
                    records.append(
                        {"n": n, "x": x, "value": classical_meixner(n, float(x), beta, c)}
                    )
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
        if args.trunc is not None:
            trunc = args.trunc
        else:
            # smallest truncation whose interior block covers the table
            trunc = max(need, 1)
            while _sector_keep(trunc, args.beta) < m:
                trunc += 1
        # the B mode needs beta-1 extra levels to hold the sector offset;
        # sector elements are exact finite sums, so no edge-weight gate here
        t = FockTruncation(max(trunc, 1), max(trunc, 1) + args.beta - 1)
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
    ks = args.k if args.k else ([8, 16, 32] if args.kind == "operator" else [2, 3, 4])
    if any(k < 1 for k in ks):
        return _usage("--k values must be positive integers")
    records = []
    errors = []
    try:
        if args.kind == "poly":
            classical = [
                [classical_meixner(n, float(x), args.beta, args.c) for x in range(args.xmax + 1)]
                for n in range(args.nmax + 1)
            ]
            for k in ks:
                q = 1.0 - 10.0**-k
                ctx = QContext(q=q)
                p = MeixnerParams.from_beta(args.beta, args.c / (1.0 - args.c), ctx)
                err = max(
                    abs(qmeixner(n, x, p) - classical[n][x])
                    for n in range(args.nmax + 1)
                    for x in range(args.xmax + 1)
                )
                errors.append(err)
                records.append({"k": k, "q": q, "max_error": err})
        elif args.kind == "xi":
            theta = math.sinh(args.tau)
            classical = [
                [classical_xi_limit(n, x, args.beta, args.tau) for x in range(args.xmax + 1)]
                for n in range(args.nmax + 1)
            ]
            for k in ks:
                q = 1.0 - 10.0**-k
                mp = MatrixElementParams(theta, args.beta, QContext(q=q))
                err = max(
                    abs(xi(n, x, mp) - classical[n][x])
                    for n in range(args.nmax + 1)
                    for x in range(args.xmax + 1)
                )
                errors.append(err)
                records.append({"k": k, "q": q, "max_error": err})
        else:  # operator: k values are truncation sizes
            classical = [
                [classical_xi_limit(n, x, args.beta, args.tau) for x in range(args.xmax + 1)]
                for n in range(args.nmax + 1)
            ]
            for k in ks:
                t = FockTruncation(k, k + args.beta - 1)
                u = classical_U(args.tau, t)
                err = max(
                    abs(classical_element(u, t, args.beta, n, x) - classical[n][x])
                    for n in range(args.nmax + 1)
                    for x in range(args.xmax + 1)
                )
                errors.append(err)
                records.append({"k": k, "trunc": k, "max_error": err})
    except ValueError as exc:
        return _usage(str(exc))
    except (OutOfBlock, OutOfTruncation, TruncationTooSmall, NonConvergent) as exc:
        return _numeric(str(exc))

    if args.kind == "operator":
        columns = ["k", "trunc", "max_error"]
    else:
        columns = ["k", "q", "max_error"]
    _emit(records, columns, args.format, sys.stdout)
    converged = all(e <= _CONVERGED for e in errors)
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    return EXIT_OK if converged or monotone else EXIT_FAIL


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
