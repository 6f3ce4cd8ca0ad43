"""Run one rydex CLI command with the tracer installed.

    PYTHONPATH=src python perfbench/cli_shim.py table I

stdout is the command's own output. The trace (span aggregates,
counters, captured warnings and rydex.vdw log records) goes to stderr
as one line starting with ``perfbench-trace``.
"""

from __future__ import annotations

import json
import sys
import warnings

sys.dont_write_bytecode = True

from tracer import TRACE_MARK, RecordCounter, Tracer  # noqa: E402  (sibling module)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    import rydex.cli

    counter = RecordCounter("rydex.vdw")
    code = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            code = rydex.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        snap = tracer.snapshot()
        snap["warnings"] = len(caught)
        snap["log_records"] = counter.count
        sys.stderr.write(TRACE_MARK + json.dumps(snap) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
