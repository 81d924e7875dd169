"""Run one workload in this process: set-up (repeated), the timed window,
the output checks, and — with tracing on — the traced window, the common
layer probes and the span file."""

from __future__ import annotations

import gc
import json
import tempfile
import time
from dataclasses import dataclass, field

from . import HARNESS_DIR, REPO_ROOT
from .common import (
    Check,
    GcWatch,
    Metric,
    Metrics,
    fingerprint,
    median,
    peak_rss_mb,
)
from .datasets import CACHE_DIR, prepare
from .layers import probe_layers
from .spans import Recorder
from .serving import ServeMixed, ServeRead
from .workloads import (
    SCALES,
    ClosureBudgeted,
    ClosureSerial,
    KbUpdateQuery,
    ParallelGraph,
    ParallelHash,
    RunConfig,
    Window,
    Workload,
)

OUT_DIR = HARNESS_DIR / ".out"

#: The registered workloads, in the order they run and are reported.
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (
        ClosureSerial, ClosureBudgeted, ParallelGraph, ParallelHash,
        KbUpdateQuery, ServeRead, ServeMixed)
}

#: Set-up is repeated this many times and reported as the median.
SETUP_REPEATS = 3


@dataclass
class RunResult:
    workload: str
    seed: int
    scale: str
    #: Cache file name of the input (which LUBM size and seed).
    dataset: str
    trace: bool
    #: Registered uniform metrics plus the workload's named ones.
    end_to_end: Metrics
    per_layer: Metrics
    checks: list[Check]
    attempted: int
    failed: int
    #: Closure digest and exact counters, for cross-workload checks.
    digest: str | None = None
    counters: tuple[int, int, int] | None = None
    breakdown: list[dict] = field(default_factory=list)
    trace_file: str | None = None
    cold_generation_s: float | None = None
    fingerprint: dict[str, str] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_json(self) -> dict:
        def dump(metrics: Metrics) -> dict:
            return {name: {"value": m.value, "unit": m.unit, "n": m.n}
                    for name, m in metrics.items()}

        return {
            "workload": self.workload, "seed": self.seed,
            "scale": self.scale, "dataset": self.dataset,
            "trace": self.trace,
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "end_to_end": dump(self.end_to_end),
            "per_layer": dump(self.per_layer),
            "checks": [vars(check) for check in self.checks],
            "digest": self.digest, "counters": self.counters,
            "breakdown": self.breakdown, "trace_file": self.trace_file,
            "cold_generation_s": self.cold_generation_s,
            "fingerprint": self.fingerprint,
        }


def registered() -> dict:
    """``BENCHMARK.json``: the one list of registered metric names."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def contract_line(result: RunResult) -> str:
    """The last stdout line the driver reads: exactly the registered
    end-to-end metrics (untraced) or per-layer metrics (traced).  A
    per-layer count, ratio or share of a layer the workload never entered
    reads 0."""
    spec = registered()
    if result.trace:
        names, source = spec["per_layer"], result.per_layer
    else:
        names, source = spec["end_to_end"], result.end_to_end
    metrics = {}
    for entry in names:
        metric = source.get(entry["name"], Metric(0, entry["unit"]))
        metrics[entry["name"]] = {"value": metric.value, "unit": metric.unit}
    return json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "metrics": metrics,
    })


def _uniform(window: Window, setup_s: list[float]) -> Metrics:
    """The metrics every workload reports under the same names."""
    return {
        "setup_s": Metric(median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB"),
        "work_per_s": Metric(window.work_per_s, "1/s"),
        "op_p50_ms": Metric(median(window.op_ms), "ms", len(window.op_ms)),
    }


def run_workload(name: str, seed: int, seconds: float | None,
                 scale_name: str, trace: bool) -> RunResult:
    scale = SCALES[scale_name]
    cls = WORKLOADS[name]
    n = cls.dataset_n(scale)
    if seconds is None:
        seconds = scale.seconds
    # Run-store spill files are temporary files: keep them in the checkout.
    spill_dir = CACHE_DIR / "tmp"
    spill_dir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(spill_dir)

    dataset, cold_s = prepare(n, seed)
    workload: Workload = cls(RunConfig(seed, seconds, scale, dataset, n))
    try:
        return _run(workload, scale_name, trace, cold_s)
    finally:
        workload.close()


def _run(workload: Workload, scale_name: str, trace: bool,
         cold_s: float | None) -> RunResult:
    cfg = workload.cfg
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)

    # Untraced window: the end-to-end numbers.  In the traced pass it is
    # the baseline the traced window is compared against, half as long.
    untraced = Recorder(workload.name, enabled=False)
    window_s = cfg.seconds / 2 if trace else cfg.seconds
    gc.collect()
    window = workload.window(window_s, untraced)
    end_to_end = {**_uniform(window, setup_s), **window.metrics}
    attempted, failed = window.attempted, window.failed
    end_to_end["failed_share"] = Metric(
        failed / max(attempted, 1), "share", attempted)

    per_layer: Metrics = {}
    breakdown: list[dict] = []
    trace_file = None
    checks: list[Check] = []
    if trace:
        rec = Recorder(workload.name)
        gc.collect()
        with GcWatch() as gc_watch, rec.span("window"):
            traced = workload.window(window_s, rec)
        attempted += traced.attempted
        failed += traced.failed
        # Fastest operation traced against fastest untraced: the minimum
        # is what GC pauses and a busy host do not move, so the difference
        # is the recorder's own cost.
        baseline = min(window.op_ms)
        per_layer.update(workload.setup_layers)
        per_layer.update(traced.layers)
        per_layer["runtime.gc_pause_s"] = Metric(gc_watch.pause_s, "s")
        per_layer["runtime.gc_gen2_collections"] = Metric(
            gc_watch.gen2, "count")
        per_layer["trace.overhead_share"] = Metric(
            (min(traced.op_ms) - baseline) / baseline, "share",
            len(traced.op_ms))
        checks += workload.checks()
        with rec.span("layers"):
            own = workload.layers(rec)
            # The common suite runs on a heap free of the workload's
            # products, so its stage times compare across workloads.
            workload.close()
            gc.collect()
            common, replay_checks = probe_layers(
                cfg.dataset.read_text(), workload.ontology, cfg.n,
                cfg.seed, rec)
            checks += replay_checks
            # A workload's own reading of a layer wins over the common
            # suite's (e.g. closure_budgeted's own run store).
            per_layer = {**common, **per_layer, **own}
        breakdown = rec.breakdown()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{workload.name}-seed{cfg.seed}.json"
        rec.write_chrome_trace(path)
        trace_file = str(path.relative_to(REPO_ROOT))
    else:
        checks += workload.checks()

    bad = sum(not check.ok for check in checks)
    return RunResult(
        workload=workload.name, seed=cfg.seed, scale=scale_name,
        dataset=cfg.dataset.stem, trace=trace,
        end_to_end=end_to_end, per_layer=per_layer, checks=checks,
        attempted=attempted + len(checks), failed=failed + bad,
        digest=getattr(workload, "digest", None),
        counters=getattr(workload, "counters", None),
        breakdown=breakdown, trace_file=trace_file,
        cold_generation_s=cold_s, fingerprint=fingerprint())
