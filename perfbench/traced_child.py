"""Run one nmrsim CLI command with the benchmark's tracer installed.

Usage: python -X importtime perfbench/traced_child.py SPANS_FILE [ARG ...]

The ARGs are passed to ``nmrsim.cli.main``.  The spans of the command, and
the ``pauli_matrix`` cache statistics, are written to SPANS_FILE; the exit
code is the command's.
"""

import sys

import nmrsim.cli
from nmrsim.errors import NmrsimError
from nmrsim.tomography import pauli_matrix

from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer(NmrsimError)
    tracer.install()
    try:
        code = nmrsim.cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
    finally:
        info = pauli_matrix.cache_info()
        tracer.counters["pauli_matrix"] = [info.hits, info.misses]
        tracer.dump(sys.argv[1])
    sys.exit(code)
