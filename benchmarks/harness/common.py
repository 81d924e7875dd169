"""Small shared pieces: the metric record, percentiles, the closure
digest, the machine fingerprint and the GC pause watch."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import REPO_ROOT


@dataclass(frozen=True)
class Metric:
    """One reported number: value, unit and the sample count behind it."""

    value: float
    unit: str
    n: int = 1


Metrics = dict[str, Metric]


@dataclass(frozen=True)
class Check:
    """One output check; a failed check counts as a failed operation."""

    name: str
    ok: bool
    detail: str = ""


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def graph_digest(spo_items: Iterable[tuple]) -> str:
    """Order-independent digest of a triple set given as ``(s, p, o)``
    term tuples (``Graph.spo_items()``): the sum, mod 2**128, of each
    N-Triples line's BLAKE2b hash — stable across processes, so two
    workloads (or two commits) can compare closures by one string."""
    total = 0
    count = 0
    for s, p, o in spo_items:
        line = f"{s.n3()} {p.n3()} {o.n3()}".encode()
        total += int.from_bytes(
            hashlib.blake2b(line, digest_size=16).digest(), "big")
        count += 1
    return f"{count}:{total % (1 << 128):032x}"


def rows_key(rows: Iterable[dict]) -> list[tuple]:
    """A solution multiset as a sorted list, comparable across engines."""
    return sorted(
        tuple(sorted((var.name, term.n3()) for var, term in row.items()))
        for row in rows)


def fingerprint() -> dict[str, str]:
    """The machine and code identity stamped into every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (REPO_ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
    }


class GcWatch:
    """Harness-side GC accounting via ``gc.callbacks``: total pause
    seconds and generation-2 collections while installed."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)
