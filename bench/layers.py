"""Per-layer counters, recorded from outside the package.

A Tracer replaces selected public functions of the qmeixner modules with
timing wrappers.  Each function is rebound in every qmeixner module that
holds it (the defining module and every module that imported the name), so
calls between modules are seen as well as calls from the benchmark.  Times
are inclusive: a layer's seconds contain the time of the layers it calls.

Counters live in the Tracer; nothing is written until the caller asks for a
snapshot.  uninstall() restores the original functions.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from typing import Callable

# (defining module, function name, counter key); the operator identities
# share one key per family
_TRACED = [
    ("qseries", "basic_hypergeometric", "qseries.basic_hypergeometric"),
    ("qseries", "q_pochhammer_inf", "qseries.q_pochhammer_inf"),
    ("qseries", "q_pochhammer", "qseries.q_pochhammer"),
    ("qseries", "q_binomial", "qseries.q_binomial"),
    ("qseries", "little_qexp", "qseries.little_qexp"),
    ("qseries", "big_qexp", "qseries.big_qexp"),
    ("meixner", "qmeixner", "meixner.qmeixner"),
    ("meixner", "xi", "meixner.xi"),
    ("meixner", "weight", "meixner.weight"),
    ("meixner", "norm_factor", "meixner.norm_factor"),
    ("oscillator", "build_oscillators", "oscillator.build_oscillators"),
    ("oscillator", "sector", "oscillator.sector"),
    ("pseudorotation", "matrix_qexp", "pseudorotation.matrix_qexp"),
    ("pseudorotation", "matrix_qexp_series", "pseudorotation.matrix_qexp_series"),
    ("pseudorotation", "element", "pseudorotation.element"),
    ("pseudorotation", "conjugated_lowering", "pseudorotation.conjugated"),
    ("pseudorotation", "conjugated_raising", "pseudorotation.conjugated"),
    ("pseudorotation", "conjugated_lowering_dual", "pseudorotation.conjugated"),
    ("pseudorotation", "conjugated_raising_dual", "pseudorotation.conjugated"),
    ("pseudorotation", "exp_reorder_big", "pseudorotation.exp_reorder"),
    ("pseudorotation", "exp_reorder_mixed", "pseudorotation.exp_reorder"),
    ("pseudorotation", "exp_reorder_little", "pseudorotation.exp_reorder"),
    ("pseudorotation", "qbch_series", "pseudorotation.qbch"),
    ("pseudorotation", "qbch_conjugate", "pseudorotation.qbch"),
    ("pseudorotation", "qexp_split", "pseudorotation.qexp_split"),
]
# work counted from return values: key -> (counter name, extractor)
EXTRA = {
    "qseries.basic_hypergeometric": ("terms", lambda sv: sv.terms_used),
    "qseries.q_pochhammer_inf": ("factors", lambda sv: sv.terms_used),
}
# the identity families report seconds only; every other key also calls
SECONDS_ONLY = [
    "pseudorotation.conjugated", "pseudorotation.exp_reorder",
    "pseudorotation.qbch", "pseudorotation.qexp_split",
]
CALL_KEYS = [k for k in dict.fromkeys(key for _, _, key in _TRACED) if k not in SECONDS_ONLY]
SWEEP_NS = (16, 24, 32, 40)
RELATIONS = [
    "backward", "forward", "difference", "comp_backward", "comp_forward",
    "recurrence", "ortho_degree", "ortho_variable", "duality", "duality_xi",
    "dual_backward", "dual_forward", "dual_difference", "dual_comp_backward",
    "dual_comp_forward", "dual_recurrence", "genfun_degree", "genfun_variable",
    "limit_poly", "limit_xi",
]
_MB = 1024.0 * 1024.0


class _Stat:
    __slots__ = ("calls", "seconds", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.extra = 0


class Tracer:
    """Counts calls, inclusive seconds and returned work per layer function."""

    def __init__(self) -> None:
        self._stats: dict[str, _Stat] = {}
        self._patched: list[tuple[object, str, Callable]] = []
        self.reset()

    def reset(self) -> None:
        self._stats.clear()
        self.build_times: dict[int, list[float]] = {}
        self.u_bytes = 0
        self.check_seconds: dict[str, float] = {}
        self.check_points = 0
        self.check_qmeixner_calls = 0

    def _stat(self, key: str) -> _Stat:
        st = self._stats.get(key)
        if st is None:
            st = self._stats[key] = _Stat()
        return st

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every loaded qmeixner module."""
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qmeixner" or name.startswith("qmeixner."))
        }
        for modname, fname, key in _TRACED:
            self._rebind(mods, modname, fname, self._timed(key))
        self._rebind(mods, "pseudorotation", "build_U", self._build_u)
        self._rebind(mods, "verify", "check", self._check)

    def _rebind(self, mods, modname, fname, make_wrapper) -> None:
        original = getattr(mods[f"qmeixner.{modname}"], fname)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod in mods.values():
            if getattr(mod, fname, None) is original:
                setattr(mod, fname, wrapper)
                self._patched.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    # -- wrappers --------------------------------------------------------

    def _timed(self, key):
        extract = EXTRA[key][1] if key in EXTRA else None

        def make(fn):
            st = self._stat(key)

            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    st.calls += 1
                    st.seconds += time.perf_counter() - t0
                if extract is not None:
                    st.extra += extract(result)
                return result

            return wrapper

        return make

    def _build_u(self, fn):
        def wrapper(mp, t, *args, **kwargs):
            t0 = time.perf_counter()
            u = fn(mp, t, *args, **kwargs)
            self.build_times.setdefault(t.n_a_max, []).append(time.perf_counter() - t0)
            self.u_bytes = max(self.u_bytes, operator_bytes(u))
            return u

        return wrapper

    def _check(self, fn):
        def wrapper(relation, *args, **kwargs):
            qm = self._stat("meixner.qmeixner")
            calls_before = qm.calls
            t0 = time.perf_counter()
            report = fn(relation, *args, **kwargs)
            name = report.relation.value
            self.check_seconds[name] = (
                self.check_seconds.get(name, 0.0) + time.perf_counter() - t0
            )
            self.check_points += len(report.grid)
            self.check_qmeixner_calls += qm.calls - calls_before
            return report

        return wrapper

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of every counter, mergeable with merge()."""
        return {
            "stats": {k: [s.calls, s.seconds, s.extra] for k, s in self._stats.items()},
            "build_times": {str(n): ts for n, ts in self.build_times.items()},
            "u_bytes": self.u_bytes,
            "check_seconds": dict(self.check_seconds),
            "check_points": self.check_points,
            "check_qmeixner_calls": self.check_qmeixner_calls,
        }


def operator_bytes(u) -> int:
    """Bytes of the arrays a UOperator holds: U, the six ladder matrices and
    the basis index arrays (shared arrays counted once)."""
    seen: dict[int, int] = {}
    mats = [u.matrix] + list(u.oscillators)
    for m in mats:
        for arr in (m.entries, m.basis.na, m.basis.nb):
            seen[id(arr)] = arr.nbytes
    return sum(seen.values())


def merge(snapshots: list[dict]) -> dict:
    """Sum counters of several snapshots (one round's CLI children)."""
    out = {"stats": {}, "build_times": {}, "u_bytes": 0, "check_seconds": {},
           "check_points": 0, "check_qmeixner_calls": 0}
    for snap in snapshots:
        for k, (c, s, e) in snap["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0, 0])
            acc[0] += c
            acc[1] += s
            acc[2] += e
        for n, ts in snap["build_times"].items():
            out["build_times"].setdefault(n, []).extend(ts)
        out["u_bytes"] = max(out["u_bytes"], snap["u_bytes"])
        for k, s in snap["check_seconds"].items():
            out["check_seconds"][k] = out["check_seconds"].get(k, 0.0) + s
        out["check_points"] += snap["check_points"]
        out["check_qmeixner_calls"] += snap["check_qmeixner_calls"]
    return out


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metric values of one traced round, every key present."""
    stats = snap["stats"]
    m: dict[str, float] = {}
    for key in CALL_KEYS:
        calls, secs, extra = stats.get(key, [0, 0.0, 0])
        m[f"{key}.calls"] = calls
        m[f"{key}.s"] = secs
        if key in EXTRA:
            m[f"{key}.{EXTRA[key][0]}"] = extra
    for key in SECONDS_ONLY:
        m[f"{key}.s"] = stats.get(key, [0, 0.0, 0])[1]
    builds = {int(n): statistics.median(ts) for n, ts in snap["build_times"].items()}
    for n in SWEEP_NS:
        m[f"pseudorotation.build_U.N{n}_s"] = builds.get(n, 0.0)
    m["pseudorotation.build_U.exponent"] = scaling_exponent(builds)
    m["pseudorotation.U.mb"] = snap["u_bytes"] / _MB
    for rel in RELATIONS:
        m[f"verify.check.{rel}.s"] = snap["check_seconds"].get(rel, 0.0)
    points = snap["check_points"]
    m["verify.check.points"] = points
    m["verify.qmeixner_per_point"] = (
        snap["check_qmeixner_calls"] / points if points else 0.0
    )
    return m


CLI_CATEGORIES = ("tabulate", "xi", "xi_both", "verify", "limit")


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for key in CALL_KEYS:
        out.append((f"{key}.calls", "count", "lower"))
        out.append((f"{key}.s", "s", "lower"))
        if key in EXTRA:
            out.append((f"{key}.{EXTRA[key][0]}", "count", "lower"))
    out.append(("meixner.xi.max_abs_err", "1", "lower"))
    out += [(f"{key}.s", "s", "lower") for key in SECONDS_ONLY]
    out += [(f"pseudorotation.build_U.N{n}_s", "s", "lower") for n in SWEEP_NS]
    out.append(("pseudorotation.build_U.exponent", "1", "lower"))
    out.append(("pseudorotation.U.mb", "MB", "lower"))
    out += [(f"verify.check.{rel}.s", "s", "lower") for rel in RELATIONS]
    out.append(("verify.check.points", "count", "higher"))
    out.append(("verify.qmeixner_per_point", "calls/point", "lower"))
    out.append(("cli.startup_s", "s", "lower"))
    out += [(f"cli.{cat}.s", "s", "lower") for cat in CLI_CATEGORIES]
    out.append(("trace.wall_s", "s", "lower"))
    out.append(("trace.untraced_wall_s", "s", "lower"))
    out.append(("trace.overhead_pct", "%", "lower"))
    return out


PER_LAYER = _per_layer()


def scaling_exponent(times_by_n: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(N); 0 with fewer than
    two truncations."""
    pts = [(math.log(n), math.log(t)) for n, t in times_by_n.items() if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    if sxx == 0.0:
        return 0.0
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx
