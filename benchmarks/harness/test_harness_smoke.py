"""Self-test of the harness at ``--scale smoke``.

Run explicitly (it is not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/harness

Every workload must emit every metric registered in ``BENCHMARK.json``
with its unit, pass all its output checks, repeat its exact counters, and
leave a trace file whose spans nest.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys

import pytest

from . import REPO_ROOT
from .runner import WORKLOADS, contract_line, registered, run_workload

#: Counters that must be bit-identical between two runs of one seed.
EXACT = (
    "datalog.columnar.join_probes", "datalog.columnar.firings",
    "datalog.columnar.derived", "datalog.columnar.iterations",
    "datalog.columnar.rules_dispatched", "rdf.idquery.probes",
    "parallel.messages.sent_tuples", "parallel.messages.sent_bytes",
    "parallel.work_speedup",
)


@functools.lru_cache(maxsize=None)
def _smoke_run(name: str, trace: bool):
    return run_workload(name, seed=0, seconds=None, scale_name="smoke",
                        trace=trace)


def _assert_contract(result, section: str) -> dict:
    line = json.loads(contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    spec = {m["name"]: m["unit"] for m in registered()[section]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == spec
    failing = [check for check in result.checks if not check.ok]
    assert not failing, failing
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    return line["metrics"]


def test_registered_workloads_are_the_harness_workloads():
    spec = registered()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/harness"]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = _smoke_run(name, False)
    metrics = _assert_contract(result, "end_to_end")
    # The driver divides by these: none may be zero.
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert result.end_to_end["failed_share"].value == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_and_nesting_spans(name):
    result = _smoke_run(name, True)
    _assert_contract(result, "per_layer")
    assert "trace.overhead_share" in result.per_layer
    events = json.loads(
        (REPO_ROOT / result.trace_file).read_text())["traceEvents"]
    assert events
    by_id = {e["args"]["id"]: e for e in events}
    slack_us = 1.0
    for event in events:
        assert event["args"]["workload"] == name
        parent = event["args"]["parent"]
        if parent is None:
            continue
        outer = by_id[parent]
        assert outer["ts"] - slack_us <= event["ts"], (outer, event)
        assert (event["ts"] + event["dur"]
                <= outer["ts"] + outer["dur"] + slack_us), (outer, event)


@pytest.mark.parametrize("pair", [("closure_serial", "closure_budgeted"),
                                  ("serve_read", "serve_mixed")])
def test_exact_counters_repeat(pair):
    """Two processes' worth of work on one input read the same counts:
    the common suite's closure and query counters, and (on the serving
    pair) the message counters of two loads of the same cluster."""
    first, second = (
        {n: r.per_layer[n].value for n in EXACT if n in r.per_layer}
        for r in (_smoke_run(name, True) for name in pair))
    assert first == second and len(first) >= 6


def test_driver_command_line():
    """The driver's call, end to end: last stdout line is the result."""
    spec = registered()
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "closure_serial",
         "--seed", "5", "--seconds", "0.5", "--trace", "0",
         "--scale", "smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
