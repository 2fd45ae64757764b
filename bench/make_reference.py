#!/usr/bin/env python3
"""Rewrite bench/reference.json from the workloads' fixed reference items.

    python3 bench/make_reference.py

Run it only when a change to the program is meant to move these values; the
benchmark compares every run against the stored file (relative 1e-9).
"""

import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent

if __name__ == "__main__":
    from run import THREADS
    os.environ.update(THREADS)
    sys.path.insert(0, str(BENCH.parent / "src"))
    from workloads import WORKLOADS, Hooks
    hooks = Hooks()
    with tempfile.TemporaryDirectory() as out:
        doc = {name: cls(0, False, hooks, out).reference() for name, cls in WORKLOADS.items()}
    (BENCH / "reference.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
