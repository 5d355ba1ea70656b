"""Run one cvbound CLI command with the tracer installed.

Usage: python cli_traced.py SUMMARY_JSON -- <cvbound arguments>

Behaves like ``python -m cvbound.cli <arguments>`` (same output and exit
code) and also writes the tracer summary to SUMMARY_JSON.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SUMMARY_JSON -- <cvbound arguments>")
    import cvbound.cli

    tracer = Tracer()
    tracer.install()
    try:
        return cvbound.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
