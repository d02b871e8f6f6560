"""Run the `mumimo` command line with tracing installed.

    python3 benchmark/traced_cli.py SPANS_FILE ser --threads 2 --out DIR ...

Everything after SPANS_FILE is passed to `mumimo.cli.main` unchanged.  The
spans are written to SPANS_FILE when the command returns, and the process
exits with the command's own exit code.
"""

import json
import os
import sys


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    from mumimo import cli

    tracer = tracing.install(tracing.Tracer(), with_cli=True)
    try:
        code = cli.main(argv)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"spans": tracer.spans, "events": tracer.events}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
