"""Run one ``commqual`` CLI command in-process with span tracing.

Usage: python3 traced_cli.py SPANS_JSON COMMAND [ARGS...]

The CLI's stdout, stderr and exit code are its own; the spans go to
SPANS_JSON.  The import of ``commqual.cli`` happens before the ``cli.main``
span, as it does before ``main`` in an untraced run.
"""

import sys

from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from commqual import cli

    code = tracer.wrap("cli.main", cli.main)(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
