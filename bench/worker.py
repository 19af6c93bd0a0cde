"""One benchmark process: set up, signal readiness, run rounds, check.

Started by run.py with PYTHONPATH pointing at the package sources.  Prints
"ready" once imports and warm-up are done, then one JSON line with the
round measurements.  Nothing else goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import layers
from workloads import WORKLOADS


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the largest CLI child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.root)
    wl.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = layers.Tracer() if args.trace else None
    walls: list[float] = []
    cpus: list[float] = []
    traced_walls: list[float] = []
    traced_layers: list[dict] = []
    extras: dict[str, float] = {}
    oracle_done = False
    attempted = failed = 0
    problems: list[str] = []
    measured = 0.0
    last = 0.0
    rounds = 0
    min_rounds = max(wl.min_rounds, 2 if tracer else 1)
    # a traced run alternates plain and traced rounds, so that the tracing
    # overhead is measured under the same conditions.  No round starts when
    # less than half of one is left, so a run measures --seconds of work
    # give or take half a round.
    while rounds < min_rounds or measured + 0.5 * last < args.seconds:
        use_tracer = tracer if (tracer is not None and rounds % 2 == 1) else None
        c0 = _cpu()
        t0 = time.perf_counter()
        ops, snap = wl.run_round(use_tracer)
        wall = time.perf_counter() - t0
        cpu = _cpu() - c0
        measured += wall
        last = wall
        want_full = use_tracer is not None and not oracle_done
        n_failed, found, extra = wl.check(ops, rounds == 0, want_full)
        if want_full:
            extras.update(extra)
            oracle_done = True
        attempted += len(ops)
        failed += n_failed
        problems += found
        if use_tracer is None:
            walls.append(wall)
            cpus.append(cpu)
        else:
            traced_walls.append(wall)
            traced_layers.append(_round_layers(snap))
        rounds += 1

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        per_round = {
            key: statistics.median(r[key] for r in traced_layers)
            for key in traced_layers[0]
        }
        per_round.update(extras)
        plain = statistics.median(walls)
        traced = statistics.median(traced_walls)
        per_round["trace.wall_s"] = traced
        per_round["trace.untraced_wall_s"] = plain
        per_round["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        # a layer the workload does not reach reads 0
        metrics = {name: per_round.get(name, 0.0) for name, _, _ in layers.PER_LAYER}
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "rounds": rounds,
        "round_walls": walls + traced_walls,
        "metrics": metrics,
    }), flush=True)
    return 0


def _round_layers(snap: dict) -> dict[str, float]:
    m = layers.layer_metrics(snap)
    cli_seconds = snap.get("cli_seconds", {})
    for cat in layers.CLI_CATEGORIES:
        m[f"cli.{cat}.s"] = cli_seconds.get(cat, 0.0)
    m["cli.startup_s"] = cli_seconds.get("startup", 0.0)
    return m


if __name__ == "__main__":
    sys.exit(main())
