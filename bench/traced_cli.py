"""Run one mcbrick CLI command with its layer functions wrapped.

Usage: python3 bench/traced_cli.py SUMMARY_JSON [mcbrick arguments ...]

Exits with the CLI's exit code and writes the per-function summary, the
counters, the tagged spans and the names of missing targets to SUMMARY_JSON.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer, patched


def main(argv):
    summary_path, cli_args = Path(argv[0]), argv[1:]
    from mcbrick import cli

    tracer = Tracer()
    with patched(tracer) as missing:
        code = cli.main(cli_args)
    summary_path.write_text(json.dumps({
        "functions": tracer.summary(),
        "counts": tracer.counts,
        "tagged": tracer.tagged(),
        "missing": missing,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
