"""Run ``ddperm.cli.main`` under the benchmark's tracer.

    python cli_shim.py SPAN_FILE ARG...

Behaves like ``python -m ddperm ARG...`` (same stdout, stderr and exit
code) and writes the spans of the call to SPAN_FILE as JSON.  The whole
call is one ``cli.main`` span; a resource-cap refusal (exit 2) is
counted on it.
"""

import sys

from tracer import WORK, Tracer, dump

EXIT_CAP = 2


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from ddperm import cli

    tracer.task = 0
    index = tracer.open("cli.main")
    code = None
    try:
        code = cli.main(argv)
    finally:
        tracer.close(index)
        tracer.spans[index][WORK] = {"refusals": int(code == EXIT_CAP)}
        sys.stdout.flush()
        dump(tracer.spans, span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
