"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python -m perfbench.serve_child SPANS.jsonl serve STORE ...``.
Runs the program's CLI entry point unchanged and, when the server
exits (SIGINT), writes the recorded spans to ``SPANS.jsonl``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    import repro.cli

    from perfbench.layers import SpanRecorder, install

    spans = Path(sys.argv[1])
    recorder = SpanRecorder()
    installation = install(recorder)
    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        installation.remove()
        recorder.export(spans)


if __name__ == "__main__":
    sys.exit(main())
