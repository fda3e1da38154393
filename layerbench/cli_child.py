"""Run one trihopf command under the tracer; used by the traced ``cli`` run.

Usage: python3 layerbench/cli_child.py TRACE_FILE OP_INDEX <trihopf arguments>
Behaves as ``python -m trihopf.cli`` and writes the spans to TRACE_FILE.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from program import load_program  # noqa: E402
from tracer import Tracer  # noqa: E402


def main():
    trace_file, op, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    prog = load_program()
    tracer = Tracer()
    tracer.op = op
    tracer.install(prog)
    try:
        code = prog.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(trace_file)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
