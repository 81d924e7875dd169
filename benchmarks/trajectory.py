"""Benchmark trajectory — a committed, append-only history of headline numbers.

``BENCH_core.json`` is a *snapshot*: the consolidated numbers from the most
recent bench run (written by ``benchmarks/test_bench_engine.py`` under
``BENCH_CORE_JSON``).  This module distils each snapshot into one dated
summary row — columnar speedup over the compiled engine (``None`` in
snapshots taken after that engine was deleted), columnar throughput, the run store's bytes/triple, the id-native query battery's
speedup, and (when ``BENCH_serving.json`` is present) the serving tier's
best QPS and its p99 — and appends it to ``BENCH_trajectory.json``, so
regressions show up as a kink in a committed series rather than a diff
against a single overwritten file.

CI calls it right after the bench smoke step::

    python benchmarks/trajectory.py --core bench-core-results.json \
        --serving bench-serving-results.json

Appending is idempotent per content: a row identical to the latest entry
(ignoring its date) is skipped, so re-runs on unchanged numbers don't grow
the file.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CORE = _REPO_ROOT / "BENCH_core.json"
DEFAULT_SERVING = _REPO_ROOT / "BENCH_serving.json"
DEFAULT_TRAJECTORY = _REPO_ROOT / "BENCH_trajectory.json"


def summary_row(core: dict, serving: dict | None = None) -> dict:
    """The headline numbers of one core-bench snapshot (plus, when
    given, the serving-bench snapshot's throughput/tail headline).

    Pulls only stable, comparable-across-runs fields; anything missing
    (older snapshot formats, or no serving snapshot) records as ``None``
    rather than failing, so the trajectory survives schema evolution of
    the snapshot files.
    """

    def _get(root: object, *path: str) -> object:
        node = root
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return None
            node = node[key]
        return node

    return {
        "dataset": _get(core, "dataset"),
        "closure_triples": _get(core, "closure_triples"),
        "speedup": _get(core, "speedup"),
        "triples_per_sec": _get(core, "columnar", "triples_per_sec"),
        "bytes_per_triple": _get(
            core, "runstore", "run_store", "bytes_per_triple"),
        "query_speedup": _get(core, "idquery", "speedup"),
        "serving_qps": _get(serving, "headline", "qps"),
        "serving_p99_ms": _get(serving, "headline", "p99_ms"),
    }


def _same_numbers(a: dict, b: dict) -> bool:
    """Row equality ignoring the date stamp."""
    strip = lambda row: {k: v for k, v in row.items() if k != "date"}  # noqa: E731
    return strip(a) == strip(b)


def append_snapshot(
    core_path: Path | str = DEFAULT_CORE,
    trajectory_path: Path | str = DEFAULT_TRAJECTORY,
    date: str | None = None,
    serving_path: Path | str | None = DEFAULT_SERVING,
) -> bool:
    """Append ``core_path``'s summary row to the trajectory file.

    ``serving_path`` contributes the serving headline when the file
    exists (it is optional — bench runs without the serving step still
    produce a row, with the serving fields ``None``).  Returns ``True``
    when a row was appended, ``False`` when the numbers matched the
    latest entry and the file was left alone.  The trajectory file is
    created on first use.
    """
    core = json.loads(Path(core_path).read_text(encoding="utf-8"))
    serving = None
    if serving_path is not None and Path(serving_path).exists():
        serving = json.loads(Path(serving_path).read_text(encoding="utf-8"))
    row = summary_row(core, serving)
    row["date"] = date or _dt.date.today().isoformat()

    trajectory_path = Path(trajectory_path)
    if trajectory_path.exists():
        rows = json.loads(trajectory_path.read_text(encoding="utf-8"))
        if not isinstance(rows, list):
            raise ValueError(
                f"{trajectory_path} must hold a JSON list of rows, "
                f"got {type(rows).__name__}"
            )
    else:
        rows = []

    if rows and _same_numbers(rows[-1], row):
        return False
    rows.append(row)
    trajectory_path.write_text(
        json.dumps(rows, indent=1) + "\n", encoding="utf-8"
    )
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Append BENCH_core.json's headline row to the "
        "committed benchmark trajectory.",
    )
    parser.add_argument("--core", default=str(DEFAULT_CORE),
                        help="core bench snapshot to summarize")
    parser.add_argument("--serving", default=str(DEFAULT_SERVING),
                        help="serving bench snapshot (optional; its "
                        "headline joins the row when the file exists)")
    parser.add_argument("--trajectory", default=str(DEFAULT_TRAJECTORY),
                        help="trajectory file to append to")
    parser.add_argument("--date", default=None,
                        help="row date (YYYY-MM-DD, default: today)")
    args = parser.parse_args(argv)
    appended = append_snapshot(args.core, args.trajectory, date=args.date,
                               serving_path=args.serving)
    verb = "appended to" if appended else "unchanged, skipped"
    print(f"trajectory: {verb} {args.trajectory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
