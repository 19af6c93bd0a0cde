"""The import graph: no command loads scipy, and every command runs where
scipy cannot be imported.  `import qmeixner` and the closed-form commands
load no numpy either; numpy loads on the first operator call.  `import
qmeixner` still loads every qmeixner module (the benchmark's layer tracer
finds them in sys.modules), whose global `np` becomes numpy itself on that
first operator call, and every function the tracer wraps still exists under
its name."""

import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, ROOT)  # for bench.layers
from bench import layers  # noqa: E402

_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def np_is_numpy():
    return {
        name: getattr(qmeixner, name).np is sys.modules.get("numpy")
        for name in ("oscillator", "pseudorotation")
    }

import qmeixner
from qmeixner.cli import main

report = {
    "after_import": scipy_modules(),
    "numpy_after_import": "numpy" in sys.modules,
    "qmeixner_modules": sorted(m for m in sys.modules if m.startswith("qmeixner.")),
    "commands": [],
}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    report["commands"].append(
        {"argv": argv, "code": code, "out": out.getvalue(), "scipy": scipy_modules(),
         "numpy": "numpy" in sys.modules, "np_is_numpy": np_is_numpy()}
    )
print(json.dumps(report))
"""


_TRACER_PROBE = """
import importlib.util, json, sys

import qmeixner

spec = importlib.util.spec_from_file_location("layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)

targets = [(m, f) for m, f, _ in layers._TRACED]
targets += [("pseudorotation", "build_U"), ("verify", "check")]
mods = [m for name, m in sys.modules.items() if name.startswith("qmeixner.")]
originals = {t: getattr(sys.modules["qmeixner." + t[0]], t[1]) for t in targets}

def still_original():
    return sorted(
        f"{mod.__name__}.{f}"
        for (_, f), fn in originals.items()
        for mod in mods
        if getattr(mod, f, None) is fn
    )

tracer = layers.Tracer()
tracer.install()
report = {
    "traced": len(layers._TRACED),
    "targets": sorted(f"{m}.{f}" for m, f in targets),
    "unwrapped": still_original(),
}
tracer.uninstall()
report["restored"] = sorted(
    f"{m}.{f}"
    for (m, f), fn in originals.items()
    if getattr(sys.modules["qmeixner." + m], f) is fn
)
print(json.dumps(report))
"""


def _run(script, arg):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, arg],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _probe(*commands):
    return _run(_PROBE, json.dumps(commands))


_EVERY_COMMAND = (
    ["tabulate", "--q", "0.5", "--beta", "2", "--theta", "0.3",
     "--nmax", "4", "--xmax", "4"],
    ["xi", "--q", "0.5", "--beta", "1", "--theta", "0.3",
     "--nmax", "4", "--xmax", "4", "--source", "both"],
    ["verify", "--relation", "duality"],
    ["limit", "--kind", "poly"],
    ["limit", "--kind", "xi"],
    ["limit", "--kind", "operator"],
)


def test_no_command_loads_scipy():
    report = _probe(*_EVERY_COMMAND)
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
    assert command["scipy"] == []


def test_every_command_runs_without_scipy():
    # None in sys.modules makes every import of scipy raise ImportError
    report = _run("import sys; sys.modules['scipy'] = None\n" + _PROBE,
                  json.dumps(_EVERY_COMMAND))
    for command in report["commands"]:
        assert command["code"] == 0, command["argv"]


def test_import_and_closed_form_commands_never_load_numpy():
    report = _probe(
        ["--help"],
        ["tabulate", "--q", "0.5", "--beta", "2", "--theta", "0.3",
         "--nmax", "4", "--xmax", "4"],
        ["xi", "--q", "0.9", "--beta", "1", "--theta", "2.0",
         "--nmax", "4", "--xmax", "4", "--source", "closed"],
        ["verify"],
        ["limit", "--kind", "poly"],
        ["limit", "--kind", "xi"],
    )
    assert report["numpy_after_import"] is False
    for command in report["commands"]:
        # the whole registry exits 1 on the documented ortho_variable defect
        assert command["code"] == (1 if command["argv"] == ["verify"] else 0)
        assert command["numpy"] is False, command["argv"]


def test_first_operator_call_binds_numpy_itself():
    # after the first use both operator modules hold numpy itself, so their
    # code runs with no stand-in in between
    (command,) = _probe(
        ["xi", "--q", "0.5", "--beta", "1", "--theta", "0.3",
         "--nmax", "4", "--xmax", "4", "--source", "both"],
    )["commands"]
    assert command["code"] == 0
    assert command["numpy"] is True
    assert command["scipy"] == []
    assert command["np_is_numpy"] == {"oscillator": True, "pseudorotation": True}


def test_every_name_the_benchmark_rebinds_exists():
    # the tracer rebinds these names in the package; a removed or renamed
    # one is named here, with no benchmark run
    names = [(m, f) for m, f, _ in layers._TRACED]
    names += [("pseudorotation", "build_U"), ("verify", "check")]
    missing = [
        f"{m}.{f}"
        for m, f in names
        if not callable(getattr(importlib.import_module(f"qmeixner.{m}"), f, None))
    ]
    assert missing == []


def test_what_the_benchmark_reads_from_an_operator_exists():
    # bench/ reads these off an operator by duck typing: the level arrays of
    # its basis (layers.operator_bytes), the sector interior of U, and the
    # basis that interior_residual takes
    from qmeixner.meixner import MatrixElementParams
    from qmeixner.oscillator import FockTruncation, build_oscillators
    from qmeixner.pseudorotation import build_U, interior_residual
    from qmeixner.qseries import QContext

    ctx, t = QContext(q=0.5), FockTruncation(4, 4)
    u = build_U(MatrixElementParams(0.3, 1, ctx), t)
    size = layers.operator_bytes(u)
    assert isinstance(size, int) and size > 0
    assert u.sector_interior(1) == 3
    osc = build_oscillators(t, ctx)
    lhs = osc.a_plus.entries
    assert interior_residual(lhs, lhs.copy(), osc.a0.basis, 2, 2) == 0.0


def test_benchmark_tracer_wraps_every_traced_function():
    # a traced function renamed or removed in the package would otherwise
    # surface only when the benchmark runs with tracing on
    report = _run(_TRACER_PROBE, os.path.join(ROOT, "bench", "layers.py"))
    assert report["traced"] == 25
    assert report["unwrapped"] == []
    assert report["restored"] == report["targets"]
