"""Run one ``opemu`` CLI command with layer tracing, then write its spans.

Usage: python3 bench/child.py SPANS_JSON [opemu arguments...]

The traced counterpart of ``python -m opemu.cli ...``: it times the import
of ``opemu.cli`` as a ``cli.import`` span, rebinds the layers' public
functions (see tracing.py), runs ``opemu.cli.main`` and exits with its
code. The benchmark merges the spans under its own span for the command.
"""

import sys
import time

from tracing import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import opemu.cli
    tracer.add("cli.import", start, time.perf_counter())
    tracer.install()
    idx = tracer.open("cli.main")
    try:
        return opemu.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
