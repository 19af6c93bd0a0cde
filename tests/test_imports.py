"""The import graph: scipy stays off the start-up path of every command but
the classical operator limit, while `import qmeixner` still loads every
qmeixner module (the benchmark's layer tracer finds them in sys.modules)."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import qmeixner
from qmeixner.cli import main

report = {
    "after_import": scipy_modules(),
    "qmeixner_modules": sorted(m for m in sys.modules if m.startswith("qmeixner.")),
    "commands": [],
}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report["commands"].append(
        {"argv": argv, "code": code, "out": out.getvalue(), "scipy": scipy_modules()}
    )
print(json.dumps(report))
"""


def _probe(*commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_other_than_the_operator_limit_never_load_scipy():
    report = _probe(
        ["tabulate", "--q", "0.5", "--beta", "2", "--theta", "0.3",
         "--nmax", "4", "--xmax", "4"],
        ["xi", "--q", "0.5", "--beta", "1", "--theta", "0.3",
         "--nmax", "4", "--xmax", "4", "--source", "both"],
        ["verify", "--relation", "duality"],
    )
    assert report["after_import"] == []
    for command in report["commands"]:
        assert command["code"] == 0, command["argv"]
        assert command["scipy"] == [], command["argv"]
    assert {"qmeixner.oscillator", "qmeixner.pseudorotation"} <= set(
        report["qmeixner_modules"]
    )


def test_operator_limit_still_runs():
    (command,) = _probe(["limit", "--kind", "operator"])["commands"]
    assert command["code"] == 0
    lines = command["out"].splitlines()
    assert lines[0] == "k,trunc,max_error"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["8", "8"], ["16", "16"], ["32", "32"]
    ]
    assert "scipy.linalg" in command["scipy"]
