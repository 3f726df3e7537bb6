"""Traced ``repro serve``: install the span wrappers, then run the server.

Usage: ``python perfbench/launcher.py SPANS_DIR serve [serve options]``.

The wrappers are installed before the server starts, so the process-tier
workers, which fork from this process, inherit them.  When the server exits
(SIGINT drains it), the server's spans are written to
``SPANS_DIR/server-<pid>.json``; each worker appends its spans to
``SPANS_DIR/worker-<pid>.jsonl`` as each task ends.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def main(argv) -> int:
    spans_dir = Path(argv[0])
    rec = spans.Recorder()
    rec.worker_dir = spans_dir
    spans.install(rec)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        rec.dump(spans_dir / f"server-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
