"""Layered benchmark for qmeixner.

    python3 bench/run.py --workload <certify|assemble|identities|cli> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ./src, nothing
is installed.  Each run starts fresh worker processes (bench/worker.py):
SETUP_RUNS of them measure set-up time (process start, imports, warm-up up
to the first timed operation) and the last one also runs whole rounds of
the workload for --seconds seconds of measured work and checks every
round's outputs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics
(setup_s, wall_s, cpu_s, peak_rss_mb); --trace 1 reports the per-layer
metrics instead, from a run that alternates plain and traced rounds.  The
same object is written to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
DEADLINE_S = 170.0  # every run ends within 180 s
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def blas_threads() -> int:
    """BLAS threads for every benchmark process: 2, or fewer usable CPUs."""
    return min(2, len(os.sched_getaffinity(0)))


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class WorkerError(Exception):
    pass


def _readline(proc: subprocess.Popen, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise WorkerError("worker did not answer before the deadline")
    return proc.stdout.readline().decode()


def start_worker(args, root: str, env: dict, deadline: float, setup_only: bool):
    """Start a worker and wait for its ready line; returns (proc, setup s)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", root,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root)
    try:
        line = _readline(proc, deadline)
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerError(f"worker failed during set-up (said {line.strip()!r})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out.decode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qmeixner layered benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["certify", "assemble", "identities", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qmeixner", "__init__.py")):
        print("error: run from the qmeixner repository root (src/qmeixner not found)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(root)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                proc, setup = start_worker(args, root, env, deadline, setup_only=True)
                finish(proc, deadline)
                setups.append(setup)
        proc, setup = start_worker(args, root, env, deadline, setup_only=False)
        setups.append(setup)
        lines = finish(proc, deadline).strip().splitlines()
        if not lines:
            raise WorkerError("worker printed no result")
        report = json.loads(lines[-1])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    values = report["metrics"]
    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        values["setup_s"] = statistics.median(setups)
        units = dict(END_TO_END)
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump(dict(result, rounds=report["rounds"], round_walls=report["round_walls"],
                       setups_s=setups), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
