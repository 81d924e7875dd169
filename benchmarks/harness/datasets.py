"""The dataset cache: each LUBM(n, seed) is generated once through
``repro.datasets.LUBM`` and kept as an N-Triples file, so workloads start
from bytes on disk (the form users load) and set-up is measured against a
warm cache."""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

from . import HARNESS_DIR

CACHE_DIR = HARNESS_DIR / ".cache"


def _generator_hash() -> str:
    """A change to the generator must not be served stale data."""
    import repro.datasets.lubm as lubm

    return hashlib.sha256(Path(lubm.__file__).read_bytes()).hexdigest()[:12]


def dataset_path(n: int, seed: int) -> Path:
    return CACHE_DIR / f"lubm-n{n}-seed{seed}-{_generator_hash()}.nt"


def prepare(n: int, seed: int) -> tuple[Path, float | None]:
    """Ensure LUBM(n, seed) is cached.  Returns the file and the cold
    generation seconds (``None`` when the cache was already warm — cold
    time is printed by the CLI but is not a metric)."""
    from repro.datasets import LUBM
    from repro.rdf.ntriples import serialize_ntriples

    path = dataset_path(n, seed)
    if path.exists():
        return path, None
    t0 = time.perf_counter()
    text = serialize_ntriples(LUBM(n, seed=seed).data, sort=True)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(text)
    os.replace(scratch, path)
    return path, time.perf_counter() - t0
