"""The four benchmark workloads.

Each workload runs whole rounds of the same operations.  run_round() is the
timed body and returns one (name, result) pair per operation, where result
is an Exception when the operation raised.  check() runs outside the timed
region: it counts operations whose result is an exception or holds a
non-finite value as failed, and lists every other deviation from the
expected output as a problem, which makes the run incorrect.

Inputs are fixed grids; the seed only picks which points are compared with
the high-precision oracle.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np

import layers
import oracle

# Operator elements and closed-form overlaps agree to rounding at q = 0.5
# and to 3e-12 at q = 0.9, N = 40 (measured); the closed form itself is
# within 1.3e-10 of the 60-digit value up to n, x = 40 at q = 0.9,
# theta = 2.  1e-9 absolute is the acceptance suite's dual-path tolerance.
XI_TOL = 1e-9
# Terminating 2phi1 values relative to max(|M|, 1): measured 1.8e-14 at
# q = 0.5 up to n, x = 40 and 3e-14 on the registry grid (n, x <= 8).
M_REL_TOL = 1e-9
# Interior row sums of U^2 are partial sums of orthonormal rows, so they are
# at most 1; rounding of 31 squares adds ~3e-15 and element errors of at
# most 3e-12 add at most 2 sqrt(31) 3e-12 = 3.3e-11.
ROW_TOL = 1e-10
# The registry's own tolerance; 17 identity relations reach it (worst
# measured 1e-11), ortho_variable does not by a documented defect.
IDENTITY_TOL = 1e-9
ORACLE_SAMPLES = 16


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _op(name, fn, *args, **kwargs):
    try:
        return name, fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by check()
        return name, exc


class Workload:
    """Base: one round of operations plus the checks on their results."""

    name = ""
    min_rounds = 1

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(seed)
        self.root = root

    def warm_up(self) -> None:
        """First calls into every layer the round uses, before timing."""

    def run_round(self, tracer):
        """Timed body.  Returns (ops, layer snapshot or None)."""
        if tracer is None:
            return self.body(), None
        tracer.reset()
        tracer.install()
        try:
            ops = self.body()
        finally:
            tracer.uninstall()
        return ops, tracer.snapshot()

    def body(self) -> list:
        raise NotImplementedError

    def check(self, ops, first: bool, full_oracle: bool):
        """Returns (failed operations, problems with the outputs of the
        operations that did not fail, per-layer extras) for one round."""
        raise NotImplementedError


def _interior_block(rot, u, beta):
    """Every element of the interior block of sector beta, read one by one
    through pseudorotation.element as its callers do."""
    cap = u.sector_interior(beta)
    return np.array(
        [[rot.element(u, beta, n, x) for x in range(cap + 1)] for n in range(cap + 1)]
    )


def _failed(name, why) -> None:
    print(f"failed operation {name}: {why}", file=sys.stderr)


def _split_failed(ops, finite_of):
    """Failed-op count plus the ops that ran and gave finite values."""
    failed = 0
    good = {}
    for name, res in ops:
        if isinstance(res, Exception):
            failed += 1
            _failed(name, f"{type(res).__name__}: {res}")
        elif not finite_of(res):
            failed += 1
            _failed(name, "non-finite value")
        else:
            good[name] = res
    return failed, good, []


# ---------------------------------------------------------------------------


class Certify(Workload):
    """check_all() over the 20 registry relations on their default grids."""

    name = "certify"
    QS = (0.4, 0.7, 0.95)
    BETAS = (1, 2, 4)
    THETAS = (0.3, 0.7)
    DEGREES = 9

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import qmeixner.verify

        self.verify = qmeixner.verify
        self.samples = [
            (self.rng.choice(self.QS), self.rng.choice(self.BETAS),
             self.rng.choice(self.THETAS), self.rng.randrange(self.DEGREES),
             self.rng.randrange(self.DEGREES))
            for _ in range(ORACLE_SAMPLES)
        ]

    def warm_up(self):
        v = self.verify
        for rid in v.RelationId:
            # beta = 2 lies inside every relation's domain
            v.check(rid, grid=v.default_grid(rid, betas=(2,))[:1])

    def body(self):
        try:
            reports = self.verify.check_all()
        except Exception as exc:
            return [(rid.value, exc) for rid in self.verify.RelationId]
        return [(r.relation.value, r) for r in reports]

    def check(self, ops, first, full_oracle):
        v = self.verify
        failed, good, problems = _split_failed(
            ops, lambda r: bool(r.grid) and all(_finite(a, b) for a, b in r.residuals)
        )
        if len(ops) != len(v.RelationId):
            problems.append(f"{len(ops)} reports for {len(v.RelationId)} relations")
        for name, rep in good.items():
            rid = v.RelationId(name)
            if rid in v.LIMIT_RELATIONS:
                if not rep.passed:
                    problems.append(f"{name}: limit not monotone")
            elif rid is not v.RelationId.ORTHO_VARIABLE:
                # judged here, not by rep.passed, which lets NaN through
                if not rep.max_residual <= IDENTITY_TOL or rep.failures:
                    problems.append(f"{name}: max residual {rep.max_residual:.3g}")
        extras = {}
        if first or full_oracle:
            problems += self._oracle(extras)
        return failed, problems, extras

    def _oracle(self, extras):
        from qmeixner.meixner import MatrixElementParams, qmeixner, xi
        from qmeixner.qseries import QContext

        problems = []
        worst_xi = 0.0
        for q, beta, theta, n, x in self.samples:
            mp = MatrixElementParams(theta, beta, QContext(q=q))
            m = qmeixner(n, x, mp.meixner_params())
            ref = oracle.meixner(n, x, beta, theta, q)
            if not abs(m - ref) <= M_REL_TOL * max(abs(ref), 1.0):
                problems.append(f"M_{n}({x}) at q={q}, beta={beta}, theta={theta}: "
                                f"{m!r} vs oracle {ref!r}")
            err = abs(xi(n, x, mp) - oracle.xi(n, x, beta, theta, q))
            worst_xi = max(worst_xi, err)
            if not err <= XI_TOL:
                problems.append(f"xi_{n},{x} at q={q}: error {err:.3g}")
        extras["meixner.xi.max_abs_err"] = worst_xi
        return problems


# ---------------------------------------------------------------------------


class Assemble(Workload):
    """Dense U(theta) over a truncation sweep, every interior element read."""

    name = "assemble"
    THETA = 0.3
    CASES = ((0.5, 1), (0.9, 2))  # (q, beta); beta is the sector read
    NS = layers.SWEEP_NS

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import qmeixner.pseudorotation

        self.rot = qmeixner.pseudorotation
        self.closed: dict[str, np.ndarray] = {}
        # (case, truncation, row and column as fractions of the block)
        self.samples = [
            (self.rng.choice(self.CASES), self.rng.choice(self.NS),
             self.rng.random(), self.rng.random())
            for _ in range(ORACLE_SAMPLES)
        ]

    def _params(self, q, beta):
        from qmeixner.meixner import MatrixElementParams
        from qmeixner.qseries import QContext

        return MatrixElementParams(self.THETA, beta, QContext(q=q))

    def warm_up(self):
        # the first multi-threaded BLAS product of this size costs ~0.5 s
        from qmeixner.oscillator import FockTruncation

        u = self.rot.build_U(self._params(0.9, 1), FockTruncation(16, 16))
        self.rot.element(u, 1, 0, 0)

    def body(self):
        from qmeixner.oscillator import FockTruncation

        ops = []
        for q, beta in self.CASES:
            mp = self._params(q, beta)
            for n_cap in self.NS:
                t = FockTruncation(n_cap, n_cap + beta - 1)
                ops.append(_op(f"q={q},N={n_cap}", self._read, mp, t))
        return ops

    def _read(self, mp, t):
        return _interior_block(self.rot, self.rot.build_U(mp, t), mp.beta)

    def check(self, ops, first, full_oracle):
        from qmeixner.meixner import xi

        failed, good, problems = _split_failed(ops, lambda m: bool(np.isfinite(m).all()))
        for q, beta in self.CASES:
            mp = self._params(q, beta)
            for n_cap in self.NS:
                key = f"q={q},N={n_cap}"
                if key not in good:
                    continue
                m = good[key]
                if key not in self.closed:
                    self.closed[key] = np.array(
                        [[xi(n, x, mp) for x in range(m.shape[1])] for n in range(m.shape[0])]
                    )
                diff = np.abs(m - self.closed[key]).max()
                if not diff <= XI_TOL:
                    problems.append(f"{key}: element vs closed form {diff:.3g}")
                excess = (m * m).sum(axis=1).max() - 1.0
                if not excess <= ROW_TOL:
                    problems.append(f"{key}: interior row norm exceeds 1 by {excess:.3g}")
        extras = {}
        if first or full_oracle:
            worst = 0.0
            for (q, beta), n_cap, fn, fx in self.samples:
                key = f"q={q},N={n_cap}"
                if key not in good:
                    continue
                m = good[key]
                n = int(fn * m.shape[0])
                x = int(fx * m.shape[1])
                ref = oracle.xi(n, x, beta, self.THETA, q)
                err_closed = abs(self.closed[key][n, x] - ref)
                worst = max(worst, err_closed)
                err = max(abs(m[n, x] - ref), err_closed)
                if not err <= XI_TOL:
                    problems.append(f"{key}: xi_{n},{x} off the oracle by {err:.3g}")
            extras["meixner.xi.max_abs_err"] = worst
        return failed, problems, extras


# ---------------------------------------------------------------------------


class Identities(Workload):
    """The operator identities of scripts/residual_sweep.py and the
    acceptance suite, at their acceptance tolerances."""

    name = "identities"
    Q = 0.9
    THETA = 0.3
    BETA = 1
    N_CONJ = 24
    N_OSC = 20
    REORDER_ARGS = ((0.3, 0.3), (0.1, 0.1), (0.3, -0.3))
    QBCH_LAMS = (0.3, -0.3, 0.1)
    SPLIT_COEFFS = ((0.3, 0.3), (-0.3, 0.3))
    # residual tolerance per operation kind, as in test_acceptance.py
    TOLS = {"conj": 1e-9, "reorder_big": 1e-9, "reorder_mixed": 1e-9,
            "qbch": 1e-10, "split": 1e-9}

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import qmeixner.oscillator
        import qmeixner.pseudorotation

        self.rot = qmeixner.pseudorotation
        self.osc_mod = qmeixner.oscillator
        # row and column as fractions of the interior block
        self.samples = [(self.rng.random(), self.rng.random()) for _ in range(ORACLE_SAMPLES)]

    def _ctx(self):
        from qmeixner.qseries import QContext

        return QContext(q=self.Q)

    def warm_up(self):
        from qmeixner.meixner import MatrixElementParams

        ctx = self._ctx()
        t = self.osc_mod.FockTruncation(16, 16)
        u = self.rot.build_U(MatrixElementParams(self.THETA, self.BETA, ctx), t)
        self.rot.matrix_qexp_series(0.1 * u.oscillators.a_plus.entries, "big", ctx)

    def body(self):
        from qmeixner.meixner import MatrixElementParams

        rot = self.rot
        ctx = self._ctx()
        q = self.Q
        t = self.osc_mod.FockTruncation(self.N_CONJ, self.N_CONJ + self.BETA - 1)
        ops = []
        _, u = _op("build_U", rot.build_U, MatrixElementParams(self.THETA, self.BETA, ctx), t)
        _, us = _op("build_U_shift", rot.build_U,
                    MatrixElementParams(self.THETA * q**-0.5, self.BETA, ctx), t)
        if isinstance(u, Exception) or isinstance(us, Exception):
            return [("build_U", u), ("build_U_shift", us)]
        ops = [
            _op("build_U", _interior_block, rot, u, self.BETA),
            _op("build_U_shift", _interior_block, rot, us, self.BETA),
        ]
        for fn in (rot.conjugated_lowering, rot.conjugated_raising):
            ops.append(_op(f"conj:{fn.__name__}", lambda f=fn: f(u, us)[1]))
        for fn in (rot.conjugated_lowering_dual, rot.conjugated_raising_dual):
            ops.append(_op(f"conj:{fn.__name__}", lambda f=fn: f(u)[1]))

        osc_t = self.osc_mod.FockTruncation(self.N_OSC, self.N_OSC)
        osc = self.osc_mod.build_oscillators(osc_t, ctx)
        basis = osc.a0.basis
        for a, b in self.REORDER_ARGS:
            ops.append(_op(f"reorder_big:{a},{b}", self._reorder,
                           rot.exp_reorder_big, a, b, osc, ctx, 6))
            ops.append(_op(f"reorder_mixed:{a},{b}", self._reorder,
                           rot.exp_reorder_mixed, a, b, osc, ctx, 4))

        na = basis.na.astype(float)
        nb = basis.nb.astype(float)
        pref = (1.0 - q) * q ** ((nb - na + 1.0) / 2.0)
        k_plus = pref[:, None] * (osc.a_plus.entries @ osc.b_plus.entries)
        diag_na = np.diag(na)
        for kind in ("big", "little"):
            for lam in self.QBCH_LAMS:
                ops.append(_op(f"qbch:{kind},{lam}", self._qbch,
                               k_plus, diag_na, lam, kind, ctx, basis))
        for kind in ("little", "big"):
            for cx, cy in self.SPLIT_COEFFS:
                x = cx * np.diag(q**na)
                y = cy * osc.a_plus.entries
                ops.append(_op(f"split:{kind},{cx},{cy}", self._split, x, y, kind, ctx, basis))
        return ops

    def _reorder(self, fn, a, b, osc, ctx, keep):
        lhs, rhs = fn(a, b, osc, ctx)
        return self.rot.interior_residual(lhs, rhs, osc.a0.basis, keep, keep)

    def _qbch(self, x, y, lam, kind, ctx, basis):
        series = self.rot.qbch_series(x, y, lam, 0.3, kind, ctx)
        direct = self.rot.qbch_conjugate(x, y, lam, 0.3, kind, ctx)
        return self.rot.interior_residual(series, direct, basis, 15, 15)

    def _split(self, x, y, kind, ctx, basis):
        combined, split = self.rot.qexp_split(x, y, kind, ctx)
        return self.rot.interior_residual(combined, split, basis, 15, 15)

    def check(self, ops, first, full_oracle):
        def finite(res):
            if isinstance(res, np.ndarray):
                return bool(np.isfinite(res).all())
            return _finite(res)

        failed, good, problems = _split_failed(ops, finite)
        if len(ops) != 22:
            problems.append(f"{len(ops)} operations ran, 22 expected")
        for name, res in good.items():
            prefix = name.split(":")[0]
            if prefix in self.TOLS and not res <= self.TOLS[prefix]:
                problems.append(f"{name}: residual {res:.3g} > {self.TOLS[prefix]:.0e}")
        if (first or full_oracle) and "build_U" in good:
            m = good["build_U"]
            for fn, fx in self.samples:
                n = int(fn * m.shape[0])
                x = int(fx * m.shape[1])
                err = abs(m[n, x] - oracle.xi(n, x, self.BETA, self.THETA, self.Q))
                if not err <= XI_TOL:
                    problems.append(f"U element ({n}, {x}) off the oracle by {err:.3g}")
        return failed, problems, {}


# ---------------------------------------------------------------------------

def _numbers(out: bytes):
    """Every number in a CSV or JSON table printed by the CLI."""
    text = out.decode()
    if text.startswith("{"):
        for rec in json.loads(text)["records"]:
            yield from (v for v in rec.values() if isinstance(v, float))
        return
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                yield float(cell)
            except ValueError:
                pass


_ENTRY = "import sys; from qmeixner.cli import main; sys.exit(main())"


class Cli(Workload):
    """qmeixner run as a subprocess per invocation, as users run it."""

    name = "cli"
    min_rounds = 2  # the second round proves repeated output byte-identical
    TAB = ("tabulate", "--q", "0.5", "--beta", "2", "--theta", "0.3",
           "--nmax", "40", "--xmax", "40")
    XI = ("xi", "--q", "0.9", "--beta", "1", "--theta", "2.0",
          "--nmax", "40", "--xmax", "40", "--source", "closed")
    XI_BOTH = ("xi", "--q", "0.5", "--beta", "1", "--theta", "0.3",
               "--nmax", "8", "--xmax", "8", "--source", "both")
    VERIFY = ("verify", "--relation", "recurrence", "--relation", "duality",
              "--relation", "backward", "--relation", "genfun_degree")
    INVOCATIONS = (
        ("startup", ("--help",)),
        ("tabulate", TAB),
        ("tabulate", TAB + ("--format", "json")),
        ("xi", XI),
        ("xi", XI + ("--format", "json")),
        ("xi_both", XI_BOTH),
        ("verify", VERIFY),
        ("limit", ("limit", "--kind", "poly")),
        ("limit", ("limit", "--kind", "xi")),
        ("limit", ("limit", "--kind", "operator")),
    )
    CATEGORIES = ("startup", "tabulate", "xi", "xi_both", "verify", "limit")

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.first_out: dict[str, bytes] = {}
        self.samples = [
            (self.rng.randrange(41), self.rng.randrange(41)) for _ in range(ORACLE_SAMPLES)
        ]
        self.trace_file = os.path.join(root, "bench", "out", "cli-child-trace.json")
        self.child_script = os.path.join(root, "bench", "cli_child.py")

    def _run(self, args, traced):
        if traced:
            cmd = [sys.executable, self.child_script, self.trace_file, *args]
        else:
            cmd = [sys.executable, "-c", _ENTRY, *args]
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def warm_up(self):
        self._run(("--help",), traced=False)

    def run_round(self, tracer):
        traced = tracer is not None
        if traced:
            os.makedirs(os.path.dirname(self.trace_file), exist_ok=True)
        ops = []
        seconds = dict.fromkeys(self.CATEGORIES, 0.0)
        snaps = []
        for category, args in self.INVOCATIONS:
            t0 = time.perf_counter()
            name, res = _op(" ".join(args), self._run, args, traced)
            seconds[category] += time.perf_counter() - t0
            ops.append((name, res))
            if traced and not isinstance(res, Exception) and res[0] == 0:
                with open(self.trace_file) as fh:
                    snaps.append(json.load(fh))
        if not traced:
            return ops, None
        snap = layers.merge(snaps)
        snap["cli_seconds"] = seconds
        return ops, snap

    def check(self, ops, first, full_oracle):
        failed = 0
        problems = []
        good = {}
        for name, res in ops:
            if isinstance(res, Exception):
                failed += 1
                _failed(name, f"{type(res).__name__}: {res}")
                continue
            code, out, err = res
            if code != 0:
                failed += 1
                _failed(name, f"exit {code}: {err.decode(errors='replace')[-300:]}")
                continue
            if name != "--help" and not _finite(*_numbers(out)):
                failed += 1
                _failed(name, "non-finite value in the output")
                continue
            if err:
                problems.append(f"{name}: unexpected stderr {err[:200]!r}")
            if name in self.first_out and self.first_out[name] != out:
                problems.append(f"{name}: output differs from the first invocation")
            self.first_out.setdefault(name, out)
            good[name] = out
        extras = {}
        if (first or full_oracle) and len(good) == len(ops):
            try:
                self._check_tables(good, problems, extras, full_oracle)
            except (KeyError, ValueError) as exc:
                problems.append(f"unparseable output: {exc}")
        return failed, problems, extras

    @staticmethod
    def _csv(out: bytes) -> list[dict]:
        return list(csv.DictReader(io.StringIO(out.decode())))

    def _table(self, good, args):
        """(n, x) -> row from the CSV output, after checking that the JSON
        output carries the same values."""
        rows = self._csv(good[" ".join(args)])
        records = json.loads(good[" ".join(args + ("--format", "json"))])["records"]
        table = {}
        for row, rec in zip(rows, records, strict=True):
            parsed = {k: float(v) for k, v in row.items()}
            if parsed != {k: float(v) for k, v in rec.items()}:
                raise ValueError(f"CSV row {row} differs from JSON record {rec}")
            table[int(parsed["n"]), int(parsed["x"])] = parsed
        return table

    def _check_tables(self, good, problems, extras, full_oracle):
        tab = self._table(good, self.TAB)
        xi_tab = self._table(good, self.XI)
        both = {}
        for row in self._csv(good[" ".join(self.XI_BOTH)]):
            parsed = {k: float(v) for k, v in row.items()}
            both[int(parsed["n"]), int(parsed["x"])] = parsed
        for n, x in self.samples:
            ref = oracle.meixner(n, x, 2, 0.3, 0.5)
            val = tab[n, x]["value"]
            if not abs(val - ref) <= M_REL_TOL * max(abs(ref), 1.0):
                problems.append(f"tabulate M_{n}({x}) = {val!r}, oracle {ref!r}")
        points = list(xi_tab) if full_oracle else self.samples
        worst = 0.0
        for n, x in points:
            err = abs(xi_tab[n, x]["value"] - oracle.xi(n, x, 1, 2.0, 0.9))
            worst = max(worst, err)
        if full_oracle:
            for (n, x), row in both.items():
                ref = oracle.xi(n, x, 1, 0.3, 0.5)
                worst = max(worst, abs(row["closed"] - ref), abs(row["operator"] - ref))
        if not worst <= XI_TOL:
            problems.append(f"xi table off the oracle by {worst:.3g}")
        extras["meixner.xi.max_abs_err"] = worst
        for (n, x), row in both.items():
            if not row["discrepancy"] <= XI_TOL:
                problems.append(f"xi --source both discrepancy {row['discrepancy']:.3g} "
                                f"at ({n}, {x})")
        rel_rows = self._csv(good[" ".join(self.VERIFY)])
        if len(rel_rows) != 4:
            problems.append(f"verify printed {len(rel_rows)} relations, 4 expected")
        for row in rel_rows:
            res = float(row["max_residual"])
            if row["passed"] != "true" or not res <= IDENTITY_TOL or int(row["points"]) < 1:
                problems.append(f"verify {row['relation']}: {row}")
        for kind in ("poly", "xi", "operator"):
            errs = [float(r["max_error"]) for r in self._csv(good[f"limit --kind {kind}"])]
            if len(errs) != 3 or not all(b < a for a, b in zip(errs, errs[1:])):
                problems.append(f"limit {kind}: error not decreasing {errs}")


WORKLOADS = {w.name: w for w in (Certify, Assemble, Identities, Cli)}
