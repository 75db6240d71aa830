"""Run one ``tskpabe`` command with the tracer installed.

Usage: ``python3 clitrace.py SPANS_JSON ARGS...``.  Times the import of
``tskpabe.cli``, wraps the program's public functions, runs the command,
writes the import time and per-span self times to SPANS_JSON, and exits
with the command's exit code.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import tskpabe.cli  # noqa: E402

import_s = perf_counter() - t0

import json  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = tskpabe.cli.main(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "self_times": tracer.self_times()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
