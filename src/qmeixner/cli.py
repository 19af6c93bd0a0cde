"""Command line front end.

Four subcommands:

  tabulate   polynomial value tables (q-deformed or classical family)
  xi         overlap-coefficient matrices, from the closed form and/or
             from the operator product
  verify     run identity checks from the relation registry
  limit      error-vs-k convergence tables for the q -> 1 limits

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage error, 3 numeric/truncation error, 141 (128 + SIGPIPE) when the
reader of stdout closed it early.  Output goes to stdout as CSV
(header row, LF endings) or JSON (one object with a "records" array);
both formats carry identical values, with floats in shortest round-trip
form.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from typing import Callable

from .errors import NonConvergent, OutOfTruncation, PoleHit, ResidualFailure
from .meixner import (
    MatrixElementParams,
    MeixnerParams,
    admissible_c,
    classical_c,
    classical_meixner,
    classical_xi_limit,
    qmeixner,
    theta_squared,
    xi,
)
from .oscillator import FockTruncation
from .pseudorotation import build_U, classical_U, classical_element, element
from .qseries import QContext
from .verify import (
    LIMIT_KS,
    RelationId,
    check_all,
    limit_passes,
    limit_poly_errors,
    limit_q,
    limit_xi_errors,
    limit_xi_theta,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141

# the exit-code table: commands raise, run maps what they raise to a code
_NUMERIC_ERRORS = (NonConvergent, OutOfTruncation, PoleHit, ResidualFailure)


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


def _refuse_non_finite(records: list[dict]) -> None:
    """A table of values never carries NaN or inf: the first non-finite
    cell is a numeric error that names its column, n and x."""
    for rec in records:
        for column, v in rec.items():
            if isinstance(v, float) and not math.isfinite(v):
                raise NonConvergent(
                    f"{column} at (n={rec['n']}, x={rec['x']}) is {v!r}, "
                    "not a finite number"
                )


def _as_option(rule, value):
    """rule(value), its ValueError naming the option --theta, --tau or --k."""
    try:
        return rule(value)
    except ValueError as exc:
        raise ValueError(f"--{exc}") from None


def _resolve_c(args) -> float | None:
    """c and theta are two views of one parameter: c = theta^2."""
    if args.theta is not None:
        return _as_option(theta_squared, args.theta)
    return args.c


def _refuse_negative_sizes(args, names: tuple[str, ...]) -> None:
    """Usage error for the first of the named size options that is negative."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise ValueError(f"--{name} must be >= 0, got {value}")


def _required(value, message: str):
    if value is None:
        raise ValueError(message)
    return value


# ---------------------------------------------------------------------------


def cmd_tabulate(args) -> int:
    _refuse_negative_sizes(args, ("nmax", "xmax"))
    if args.family == "qmeixner":
        _required(args.q, "tabulate --family qmeixner requires --q")
        c = _required(_resolve_c(args), "tabulate requires --theta or --c")
        ctx = QContext(q=args.q)
        if args.beta is not None:
            params = MeixnerParams.from_beta(args.beta, c, ctx)
        else:
            b = _required(args.b, "tabulate --family qmeixner requires --beta or --b")
            params = MeixnerParams.from_b(b, c, ctx)
        value = partial(qmeixner, p=params)
    else:  # classical
        beta = args.beta if args.beta is not None else args.b
        _required(beta, "tabulate --family classical requires --beta or --b")
        c = _required(_resolve_c(args), "tabulate requires --theta or --c")

        def value(n, x):
            return classical_meixner(n, float(x), beta, c)

    records = [
        {"n": n, "x": x, "value": value(n, x)}
        for n in range(args.nmax + 1)
        for x in range(args.xmax + 1)
    ]
    _refuse_non_finite(records)
    _emit(records, ["n", "x", "value"], args.format, sys.stdout)
    return EXIT_OK


def cmd_xi(args) -> int:
    _refuse_negative_sizes(args, ("nmax", "xmax"))
    _required(args.q, "xi requires --q")
    _required(args.beta, "xi requires an integer --beta")
    c = _required(_resolve_c(args), "xi requires --theta or --c")
    theta = args.theta if args.theta is not None else math.sqrt(admissible_c(c))
    mp = MatrixElementParams(theta, args.beta, QContext(q=args.q))

    closed = args.source in ("closed", "both")
    operator = args.source in ("operator", "both")
    if operator:
        # block beta - 1 holds n, x <= T at truncation T, each entry as any
        # larger truncation holds it; the B mode needs beta - 1 extra levels
        trunc = max(args.nmax, args.xmax, 1)
        u = build_U(mp, FockTruncation(trunc, trunc + args.beta - 1))

    if args.source == "both":
        columns = ["n", "x", "closed", "operator", "discrepancy"]
    else:
        columns = ["n", "x", "value"]
    records = []
    for n in range(args.nmax + 1):
        for x in range(args.xmax + 1):
            values = [n, x]
            if closed:
                values.append(xi(n, x, mp))
            if operator:
                values.append(element(u, args.beta, n, x))
            if closed and operator:
                values.append(abs(values[2] - values[3]))
            records.append(dict(zip(columns, values)))
    _refuse_non_finite(records)
    _emit(records, columns, args.format, sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    for theta in args.theta or ():
        _as_option(theta_squared, theta)
    reports = check_all(
        args.relation, tol=args.tol, qs=args.q, betas=args.beta, thetas=args.theta
    )
    records = [
        {
            "relation": report.relation.value,
            "points": len(report.grid),
            "skipped": len(report.skipped),
            "max_residual": report.max_residual,
            "passed": report.passed,
        }
        for report in reports
    ]
    _emit(
        records,
        ["relation", "points", "skipped", "max_residual", "passed"],
        args.format,
        sys.stdout,
    )
    return EXIT_OK if all(report.passed for report in reports) else EXIT_FAIL


def cmd_limit(args) -> int:
    _refuse_negative_sizes(args, ("nmax", "xmax"))
    if args.kind != "poly":
        _as_option(limit_xi_theta if args.kind == "xi" else classical_c, args.tau)
    ks = args.k if args.k else ([8, 16, 32] if args.kind == "operator" else LIMIT_KS)
    if any(k < 1 for k in ks):
        raise ValueError("--k values must be positive integers")
    cells = [(n, x) for n in range(args.nmax + 1) for x in range(args.xmax + 1)]
    if args.kind == "operator":  # k is the truncation size
        exact = [classical_xi_limit(n, x, args.beta, args.tau) for n, x in cells]
        errors = []
        for k in ks:
            t = FockTruncation(k, k + args.beta - 1)
            approx = partial(classical_element, classical_U(args.tau, t), args.beta)
            errors.append(max(abs(approx(n, x) - e) for (n, x), e in zip(cells, exact)))
        column, values = "trunc", ks
    else:
        column, values = "q", [_as_option(limit_q, k) for k in ks]
        errors_at = limit_poly_errors if args.kind == "poly" else limit_xi_errors
        param = args.c if args.kind == "poly" else args.tau
        rows = [errors_at(n, x, args.beta, param, ks)[0] for n, x in cells]
        errors = [max(row[i] for row in rows) for i in range(len(ks))]

    records = [
        {"k": k, column: v, "max_error": e} for k, v, e in zip(ks, values, errors)
    ]
    _emit(records, ["k", column, "max_error"], args.format, sys.stdout)
    return EXIT_OK if limit_passes(errors) else EXIT_FAIL


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
        help=f"poly/xi: q = 1 - 10^-k (default {' '.join(map(str, LIMIT_KS))}); "
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


def run(command: Callable[[], int]) -> int:
    """command()'s exit code, or the code of what it raises after one error
    line on stderr: EXIT_USAGE for a ValueError, EXIT_NUMERIC for a numeric
    refusal, EXIT_PIPE (no message) where the reader closed stdout early.
    The experiment scripts map their refusals through it too."""
    try:
        code = command()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the Python docs' SIGPIPE recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ValueError as exc:
        code, message = EXIT_USAGE, str(exc)
    except OverflowError as exc:
        code, message = EXIT_NUMERIC, f"overflow: {exc}"
    except MemoryError as exc:  # an operator too large to hold, e.g. a large --k
        code, message = EXIT_NUMERIC, f"out of memory: {str(exc) or 'allocation failed'}"
    except _NUMERIC_ERRORS as exc:
        code, message = EXIT_NUMERIC, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # every command writes its output only after the last value, so an
    # error leaves stdout empty
    return run(partial(args.fn, args))


if __name__ == "__main__":
    sys.exit(main())
