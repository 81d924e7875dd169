"""Plain-text reporting: one workload's result, the A/A spread table and
the checks that compare workloads with each other."""

from __future__ import annotations

import statistics

from .runner import registered


def _fmt(value: float) -> str:
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:,.4f}".rstrip("0").rstrip(".")
    return f"{value:.4g}"


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows)


def print_result(result: dict) -> None:
    """Every metric by name with its unit, the checks, and — for a traced
    run — the per-layer metrics and the stage breakdown."""
    fp = result["fingerprint"]
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} ({mode}, scale {result['scale']}, "
          f"seed {result['seed']}) ==")
    print(f"  {fp['cpu']} x{fp['nproc']}, python {fp['python']}, "
          f"numpy {fp['numpy']}, git {fp['git_sha']}")
    if result["cold_generation_s"] is not None:
        print(f"  dataset generated cold in "
              f"{result['cold_generation_s']:.2f} s (not a metric)")
    section = "per_layer" if result["trace"] else "end_to_end"
    rows = [["metric", "value", "unit", "n"]]
    for name, m in result[section].items():
        rows.append([name, _fmt(m["value"]), m["unit"], str(m["n"])])
    print(_table(rows))
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        print(f"  [{mark}] {check['name']} ({check['detail']})")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    if result["breakdown"]:
        rows = [["span", "calls", "total_s", "self_s"]]
        for row in result["breakdown"][:25]:
            rows.append([row["name"], str(row["calls"]),
                         f"{row['total_s']:.4f}", f"{row['self_s']:.4f}"])
        print(_table(rows))
        print(f"  spans written to {result['trace_file']}")
    print(flush=True)


def cross_checks(results: list[dict]) -> list[str]:
    """Workloads that close the same dataset must agree: one closure
    digest, and the same join_probes/firings/derived."""
    lines = []
    groups: dict[tuple, list[dict]] = {}
    for r in results:
        if r["digest"] and r["counters"] and not r["trace"]:
            groups.setdefault((r["dataset"], r["seed"]), []).append(r)
    for (dataset, _seed), members in groups.items():
        if len(members) < 2:
            continue
        names = ", ".join(r["workload"] for r in members)
        same = (len({r["digest"] for r in members}) == 1
                and len({tuple(r["counters"]) for r in members}) == 1)
        mark = "ok  " if same else "FAIL"
        lines.append(f"[{mark}] {names}: one closure digest and one set "
                     f"of work counters over {dataset}")
        if not same:
            for r in members:
                r["correct"] = False
    return lines


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles and (q3 - q1) / median, as the driver takes them."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / abs(mid) if mid else 0.0


def print_aa(sets: list[list[dict]], same_seed: bool) -> None:
    """Per end-to-end metric and workload: median, quartiles and spread ÷
    median across the sets, against the registered bound."""
    bounds = {m["name"]: m["bound"] for m in registered()["end_to_end"]}
    rows = [["workload", "metric", "median", "q1", "q3", "spread",
             "bound", ""]]
    for i, first in enumerate(sets[0]):
        runs = [results[i] for results in sets]
        for name, m in first["end_to_end"].items():
            values = [r["end_to_end"][name]["value"] for r in runs]
            if len(values) < 2 or not any(values):
                continue
            mid, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("ok" if rel <= bound / 3 else
                           "wide" if rel <= bound else "TOO WIDE")
            rows.append([first["workload"], name, _fmt(mid), _fmt(q1),
                         _fmt(q3), f"{rel:.3f}",
                         "-" if bound is None else f"{bound:.2f}", verdict])
    print(f"== A/A over {len(sets)} sets "
          f"({'one seed' if same_seed else 'one seed per set'}) ==")
    print(_table(rows))
    if same_seed:
        for i, first in enumerate(sets[0]):
            runs = [results[i] for results in sets]
            same = (len({r["digest"] for r in runs}) == 1
                    and len({str(r["counters"]) for r in runs}) == 1)
            mark = "ok  " if same else "FAIL"
            print(f"  [{mark}] {first['workload']}: digest and exact "
                  "counters repeat across sets")
