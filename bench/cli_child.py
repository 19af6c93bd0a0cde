"""Run the qmeixner CLI with per-layer counters installed.

    python3 bench/cli_child.py <trace.json> <qmeixner arguments...>

Behaves like the `qmeixner` console script (same stdout, stderr and exit
code) and writes the layer counters of the invocation to <trace.json>.
"""

import json
import sys

import layers
from qmeixner.cli import main

if __name__ == "__main__":
    out_path = sys.argv[1]
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    sys.exit(code)
