"""The repo's benchmark: seven workloads, end-to-end and per-layer metrics,
and a traced stage breakdown.

Run ``python -m benchmarks.harness`` from the repo root (see README.md in
this directory).  Nothing under ``src/`` knows about the harness: every
layer is measured from outside, by timing calls into its public functions
and reading public result/stat objects.
"""

from __future__ import annotations

import sys
from pathlib import Path

HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"

# The program under test is imported from the checkout the harness sits
# in, so the driver's bare ``python3 -m benchmarks.harness`` needs no
# PYTHONPATH.  A directory without ``src/`` is rejected by the CLI.
if SRC_DIR.is_dir() and str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
