"""``python -m nldemix.cli`` with span tracing, for traced cli-onebit runs.

Usage: python perfbench/child.py SPANS_FILE CLI_ARGS...

Runs ``nldemix.cli.main(CLI_ARGS)`` exactly as ``python -m nldemix.cli``
does, records an ``import`` span for ``import nldemix.cli`` and a span per
wrapped call, writes the spans to SPANS_FILE as a JSON list and exits with
main's return code.  The parent runner puts PYTHONPATH=src and the thread
settings in the environment.
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402

import nldemix.cli  # noqa: E402

_imported = time.perf_counter()

import json  # noqa: E402
from dataclasses import asdict  # noqa: E402

from tracer import Span, Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append(Span(0, None, None, "import", "cli", _start, _imported))
    tracer.install(nldemix)
    try:
        code = nldemix.cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in tracer.spans], fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
