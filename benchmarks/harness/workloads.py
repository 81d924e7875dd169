"""The workload base and the five batch workloads (closure, parallel,
update); the two serving workloads are in :mod:`.serving`.

Each workload builds its state in :meth:`Workload.setup` (timed as
``setup_s``, repeated, against a warm dataset cache), measures inside
:meth:`Workload.window` by calling only product entry points, and checks
its outputs in :meth:`Workload.checks`.  ``--seed`` feeds the LUBM
generator and every operation schedule; the program sees only the
generated inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

from repro.datalog.ast import Atom
from repro.datasets.lubm import UB, LUBMGenerator, lubm_ontology
from repro.owl.compiler import compile_ontology
from repro.owl.kb import MaterializedKB
from repro.parallel.driver import ParallelReasoner, ParallelRunResult
from repro.partitioning.data_generic import default_vocabulary, partition_data
from repro.partitioning.metrics import (
    compute_data_metrics,
    output_replication,
)
from repro.partitioning.policies import (
    GraphPartitioningPolicy,
    HashPartitioningPolicy,
)
from repro.rdf.graph import Graph
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.terms import Variable
from repro.rdf.triple import Triple

from .common import (
    Check,
    Metric,
    Metrics,
    graph_digest,
    median,
    rate,
)
from .layers import fresh_student, replay_closure, run_budget_bytes
from .spans import Recorder


@dataclass(frozen=True)
class Scale:
    """Input sizes (LUBM universities) and open-loop rates of one scale."""

    closure_n: int
    parallel_n: int
    update_n: int
    serve_n: int
    #: Window seconds when ``--seconds`` is not given.
    seconds: float
    #: Offered load of the open-loop phases, requests per second.  Fixed
    #: per scale (about half the closed-loop rate measured when the scale
    #: was sized), so two commits always see the same offered load.
    read_rate: float
    mixed_rate: float


SCALES: dict[str, Scale] = {
    "smoke": Scale(4, 4, 4, 4, 0.4, 400.0, 150.0),
    "small": Scale(32, 16, 16, 8, 8.0, 600.0, 150.0),
    "paper": Scale(700, 64, 32, 16, 60.0, 600.0, 150.0),
}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    seconds: float
    scale: Scale
    dataset: Path
    n: int


@dataclass
class Window:
    """What one timed window produced."""

    #: The workload's named end-to-end metrics.
    metrics: Metrics
    #: Latencies of the workload's headline operation, milliseconds.
    op_ms: list[float]
    #: The workload's headline rate (work units per second).
    work_per_s: float
    attempted: int
    failed: int = 0
    #: Per-layer numbers read off the same window (traced pass only).
    layers: Metrics = field(default_factory=dict)


def engine_store(kb: MaterializedKB):
    """The id store behind a columnar ``MaterializedKB``.

    The one private read in the harness: the KB exposes no accessor for
    its engine's store, and ``store_bytes_per_triple`` and the spill
    checks are about exactly that object."""
    return kb._engine._mirror  # noqa: SLF001


class Workload:
    name: ClassVar[str]
    why: ClassVar[str]
    #: Which ``Scale`` field sizes this workload's LUBM input.
    size_field: ClassVar[str]

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self.ontology = lubm_ontology()
        #: Per-layer numbers observed during set-up (traced pass).
        self.setup_layers: Metrics = {}

    @classmethod
    def dataset_n(cls, scale: Scale) -> int:
        return getattr(scale, cls.size_field)

    def setup(self) -> None:
        raise NotImplementedError

    def window(self, seconds: float, rec: Recorder) -> Window:
        raise NotImplementedError

    def checks(self) -> list[Check]:
        raise NotImplementedError

    def layers(self, rec: Recorder) -> Metrics:
        """Workload-specific per-layer metrics (traced pass)."""
        return {}

    def close(self) -> None:
        """Stop what the workload started and drop what it built."""
        self.kb = self.graph = self.result = self.closure = None

    # -- shared pieces ------------------------------------------------------

    def _read_graph(self) -> Graph:
        return Graph(parse_ntriples(self.cfg.dataset.read_text()))

    def _serial_oracle(self, graph: Graph):
        """A serial closure of ``graph`` through the stage replay — the
        reference every closure workload's output is compared against."""
        rules = compile_ontology(self.ontology).rules
        return replay_closure(graph, rules, Recorder(self.name, enabled=False))


def random_student(serial: int, rng: np.random.Generator,
                   generator: LUBMGenerator) -> list[Triple]:
    """A fresh student placed in a seeded-random department and course."""
    return fresh_student(
        serial,
        university=int(rng.integers(generator.universities)),
        department=int(rng.integers(generator.departments_per_university)),
        course=int(rng.integers(generator.faculty_per_department)))


def _repeat(seconds: float, rec: Recorder, span: str,
            op: Callable[[], object]) -> tuple[list[float], object]:
    """Run ``op`` back to back until ``seconds`` have passed (finishing
    the repetition in flight).  Returns per-repetition seconds and the
    last result."""
    times: list[float] = []
    start = time.perf_counter()
    result = None
    while True:
        result = None  # release the previous product before building anew
        t0 = time.perf_counter()
        with rec.span(span):
            result = op()
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return times, result


# ---------------------------------------------------------------------------
# closure_serial / closure_budgeted
# ---------------------------------------------------------------------------


class ClosureSerial(Workload):
    name = "closure_serial"
    why = ("single-node load path users pay: N-Triples parse, Graph, "
           "dictionary, columnar fixpoint and dense id store do all the "
           "work; parallel.* and serving.* none")

    size_field = "closure_n"

    def setup(self) -> None:
        self.text = self.cfg.dataset.read_text()
        # A warm-up pass of the input stages, so the first timed load does
        # not pay the parser's and Graph's one-time costs.
        Graph(parse_ntriples(self.text))

    def _load(self, rec: Recorder) -> MaterializedKB:
        with rec.span("rdf.ntriples.parse_ntriples"):
            triples = list(parse_ntriples(self.text))
        with rec.span("rdf.graph.Graph"):
            graph = Graph(triples)
        with rec.span("owl.kb.MaterializedKB"):
            kb = MaterializedKB(self.ontology, engine="columnar")
        with rec.span("owl.kb.MaterializedKB.bulk_load"):
            kb.bulk_load(graph)
        return kb

    def window(self, seconds: float, rec: Recorder) -> Window:
        self.sizes: set[int] = set()
        self.kb = None  # an earlier window's product must not weigh on GC

        def load() -> MaterializedKB:
            kb = self._load(rec)
            self.sizes.add(kb.size)
            return kb

        times, self.kb = _repeat(seconds, rec, "closure_serial.load", load)
        return _closure_window(self.kb, times)

    def checks(self) -> list[Check]:
        return _closure_checks(self, self.kb, self.kb.base_graph)


class ClosureBudgeted(Workload):
    name = "closure_budgeted"
    why = ("same engine over the run store under a memory budget: "
           "seal/merge/spill/decode cache do the probing, the dense store "
           "only the tail; shows a dense-store gain that costs this one")

    size_field = "closure_n"

    def setup(self) -> None:
        self.graph = self._read_graph()
        self.budget = run_budget_bytes(self.cfg.n)

    def window(self, seconds: float, rec: Recorder) -> Window:
        self.sizes = set()
        self.kb = None  # an earlier window's product must not weigh on GC

        def load() -> MaterializedKB:
            kb = MaterializedKB(
                self.ontology, engine="columnar", store="run",
                memory_budget_bytes=self.budget)
            with rec.span("owl.kb.MaterializedKB.bulk_load"):
                kb.bulk_load(self.graph)
            self.sizes.add(kb.size)
            return kb

        times, self.kb = _repeat(seconds, rec, "closure_budgeted.load", load)
        return _closure_window(self.kb, times)

    def checks(self) -> list[Check]:
        stats = engine_store(self.kb).store_stats()
        return _closure_checks(self, self.kb, self.graph) + [
            Check("run store spilled under the budget", stats["spills"] > 0,
                  f"{stats['spills']} spills"),
            Check("resident bytes stay within the budget",
                  stats["in_ram_bytes"] <= self.budget,
                  f"{stats['in_ram_bytes']} <= {self.budget}"),
        ]

    def layers(self, rec: Recorder) -> Metrics:
        # This workload's own store, not the common suite's replay store.
        stats = engine_store(self.kb).store_stats()
        out = {f"rdf.runstore.{name}": Metric(stats[name], "count")
               for name in ("seals", "merges", "spills")}
        out.update({f"rdf.runstore.{name}": Metric(stats[name], "B")
                    for name in ("in_ram_bytes", "payload_bytes",
                                 "cache_bytes_used")})
        return out


def _closure_window(kb: MaterializedKB, times: list[float]) -> Window:
    per_s = rate(kb.size, median(times))
    store = engine_store(kb)
    return Window(
        metrics={
            "closure_triples_per_s": Metric(per_s, "1/s", len(times)),
            # IdGraph: column buffers plus cached views; RunStore: its
            # accounted resident bytes (``in_ram_bytes``).
            "store_bytes_per_triple": Metric(
                store.memory_bytes() / len(store), "B"),
        },
        op_ms=[t * 1e3 for t in times], work_per_s=per_s,
        attempted=len(times))


def _closure_checks(
    workload: Workload, kb: MaterializedKB, base: Graph
) -> list[Check]:
    oracle = workload._serial_oracle(base)
    stats = kb.total_stats
    workload.digest = graph_digest(kb.graph.spo_items())
    workload.counters = (stats.join_probes, stats.firings, stats.derived)
    return [
        Check("closure equals the serial stage replay's",
              workload.digest == oracle.digest(), workload.digest),
        Check("join_probes/firings/derived equal the replay's",
              workload.counters == oracle.counters(),
              f"{workload.counters}"),
        Check("every repetition closed to the same size",
              len(workload.sizes) == 1, f"{sorted(workload.sizes)}"),
    ]


# ---------------------------------------------------------------------------
# parallel_graph / parallel_hash
# ---------------------------------------------------------------------------


class ParallelGraph(Workload):
    name = "parallel_graph"
    why = ("the paper's headline configuration (k=4, graph partitioning): "
           "graphpart/partitioning dominate, the exchange is small")
    k = 4

    size_field = "parallel_n"

    def policy(self):
        return GraphPartitioningPolicy(seed=self.cfg.seed)

    def setup(self) -> None:
        self.graph = self._read_graph()

    def _reasoner(self) -> ParallelReasoner:
        return ParallelReasoner(
            self.ontology, k=self.k, engine="columnar", encode_wire=True,
            policy=self.policy())

    def _closure(self, result: ParallelRunResult, schema: Graph):
        """The instance closure: the run's union minus the replicated
        schema triples (what ``MaterializedKB.bulk_load`` keeps)."""
        return [t for t in result.graph.spo_items()
                if not schema.contains_spo(*t)]

    def window(self, seconds: float, rec: Recorder) -> Window:
        self.result = self.closure = None  # as in ClosureSerial.window
        runs: list[ParallelRunResult] = []

        def materialize() -> ParallelRunResult:
            reasoner = self._reasoner()
            self.schema = reasoner.compiled.schema
            result = reasoner.materialize(self.graph)
            if rec.enabled:
                # Keep each run's measurements, not its graphs and workers.
                runs.append(ParallelRunResult(
                    Graph(), result.stats, result.approach))
            return result

        times, self.result = _repeat(
            seconds, rec, "parallel.driver.ParallelReasoner.materialize",
            materialize)
        self.closure = self._closure(self.result, self.schema)
        per_s = rate(len(self.closure), median(times))
        window = Window(
            metrics={"closure_triples_per_s": Metric(
                per_s, "1/s", len(times))},
            op_ms=[t * 1e3 for t in times], work_per_s=per_s,
            attempted=len(times))
        if rec.enabled:
            # The breakdown of the median repetition: one consistent run,
            # so its parts add up to its window.
            middle = int(np.argsort(times)[len(times) // 2])
            window.layers = parallel_run_layers(runs[middle], times[middle])
        return window

    def checks(self) -> list[Check]:
        oracle = self._serial_oracle(self.graph)
        self.digest = graph_digest(self.closure)
        self.counters = oracle.counters()
        return [Check("parallel closure equals a serial closure of the "
                      "same input", self.digest == oracle.digest(),
                      self.digest)]

    def layers(self, rec: Recorder) -> Metrics:
        out: Metrics = {}
        vocabulary = default_vocabulary(self.graph)
        vocabulary |= self.schema.resources()
        t0 = time.perf_counter()
        with rec.span("partitioning.partition_data", k=self.k):
            parts = partition_data(self.graph, self.policy(), self.k,
                                   strip_schema=False, vocabulary=vocabulary)
        partition_s = time.perf_counter() - t0
        out["partitioning.partition_s"] = Metric(partition_s, "s")
        out["partitioning.partition_triples_per_s"] = Metric(
            rate(len(self.graph), partition_s), "1/s")
        t0 = time.perf_counter()
        with rec.span("graphpart.policy.build", k=self.k):
            self.policy().build(self.graph, self.k,
                                vocabulary=frozenset(vocabulary))
        build_s = time.perf_counter() - t0
        out["graphpart.build_s"] = Metric(build_s, "s")
        out["graphpart.build_triples_per_s"] = Metric(
            rate(len(self.graph), build_s), "1/s")
        quality = compute_data_metrics(parts, self.graph)
        out["partitioning.bal"] = Metric(quality.bal, "count")
        out["partitioning.IR"] = Metric(quality.input_replication, "ratio")
        out["partitioning.OR"] = Metric(
            output_replication(self.result.node_outputs), "ratio")
        t0 = time.perf_counter()
        with rec.span("parallel.worker.output_graph", workers=self.k):
            for worker in self.result.workers:
                worker.output_graph()
        out["parallel.worker.output_graph_s"] = Metric(
            time.perf_counter() - t0, "s")
        return out


class ParallelHash(ParallelGraph):
    name = "parallel_hash"
    why = ("same runtime, streaming hash partitioner, about 8x the "
           "exchange: routing/messages/receive path and aggregation "
           "dominate, graphpart does nothing; separates a partitioner "
           "gain from an exchange gain")

    def policy(self):
        return HashPartitioningPolicy()


def parallel_run_layers(result: ParallelRunResult, seconds: float) -> Metrics:
    """The driver/worker/message breakdown of one run that took
    ``seconds`` from outside, read from ``ParallelRunResult.stats``."""
    stats = result.stats
    reasoning_sum = sum(stats.reasoning_time_per_node())
    reasoning_max = sum(
        max(s.reasoning_time for s in round_) for round_ in stats.rounds)
    work = stats.work_per_node()
    named = stats.partition_time + stats.aggregation_time + reasoning_sum
    return {
        "parallel.driver.window_s": Metric(seconds, "s"),
        "parallel.driver.partition_s": Metric(stats.partition_time, "s"),
        "parallel.driver.aggregation_s": Metric(stats.aggregation_time, "s"),
        "parallel.driver.other_s": Metric(seconds - named, "s"),
        "parallel.driver.rounds": Metric(stats.num_rounds, "count"),
        "parallel.worker.reasoning_s_sum": Metric(reasoning_sum, "s"),
        "parallel.worker.reasoning_s_max": Metric(reasoning_max, "s"),
        "parallel.driver.partition_share": Metric(
            stats.partition_time / seconds, "share"),
        "parallel.driver.aggregation_share": Metric(
            stats.aggregation_time / seconds, "share"),
        "parallel.driver.other_share": Metric(
            (seconds - named) / seconds, "share"),
        "parallel.worker.reasoning_share": Metric(
            reasoning_sum / seconds, "share"),
        "parallel.messages.sent_tuples": Metric(
            stats.total_tuples_communicated(), "count"),
        "parallel.messages.sent_bytes": Metric(
            sum(sent for sent, _recv in stats.bytes_per_node()), "B"),
        "parallel.work_speedup": Metric(
            sum(work) / max(work) if max(work) else 0.0, "ratio"),
    }


# ---------------------------------------------------------------------------
# kb_update_query
# ---------------------------------------------------------------------------


class KbUpdateQuery(Workload):
    name = "kb_update_query"
    why = ("single-node write path (id-space DRed, row deletion, term "
           "replay) and the read that follows a write (id-index mirror "
           "rebuild); uses the stores as writes beside closure_*'s bulk "
           "inserts")
    #: Share of the window spent on 1-entity cycles; the rest runs the
    #: 64-entity cycles behind ``update_triples_per_s``.
    small_share = 0.7
    big_batch = 64

    size_field = "update_n"

    def __init__(self, cfg: RunConfig) -> None:
        super().__init__(cfg)
        self._serial = 0
        self._rng = np.random.default_rng(cfg.seed)
        self._generator = LUBMGenerator(universities=cfg.n)
        self.start_digest: str | None = None

    def setup(self) -> None:
        graph = self._read_graph()
        self.kb = MaterializedKB(self.ontology, engine="columnar")
        self.kb.bulk_load(graph)
        self.kb.id_index().current()

    def _batch(self, entities: int) -> list[Triple]:
        out: list[Triple] = []
        for _ in range(entities):
            self._serial += 1
            out += random_student(self._serial, self._rng, self._generator)
        return out

    def _cycle(self, batch: list[Triple], rec: Recorder,
               t: dict[str, list[float]]) -> int:
        """add → lookup → remove → lookup.  Returns failed operations (a
        read that does not see the write it follows)."""
        kb, failed = self.kb, 0
        lookup = [Atom(batch[0].s, UB.takesCourse, Variable("c"))]
        for verb, expect in (("add", 1), ("remove", 0)):
            t0 = time.perf_counter()
            with rec.span(f"owl.kb.MaterializedKB.apply.{verb}",
                          triples=len(batch)):
                if verb == "add":
                    kb.apply(adds=batch)
                else:
                    kb.apply(removes=batch)
            t[verb].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            with rec.span("rdf.idquery.IdIndex.execute"):
                rows = kb.id_index().execute(lookup)
            t["read"].append(time.perf_counter() - t0)
            failed += len(rows) != expect
        return failed

    def window(self, seconds: float, rec: Recorder) -> Window:
        if self.start_digest is None:
            self.start_digest = graph_digest(self.kb.graph.spo_items())
        small: dict[str, list[float]] = {"add": [], "remove": [], "read": []}
        big: dict[str, list[float]] = {"add": [], "remove": [], "read": []}
        cycle_ms: list[float] = []
        failed = 0
        start = time.perf_counter()
        with rec.span("kb_update_query.small_cycles"):
            while time.perf_counter() - start < seconds * self.small_share:
                t0 = time.perf_counter()
                failed += self._cycle(self._batch(1), rec, small)
                cycle_ms.append((time.perf_counter() - t0) * 1e3)
        with rec.span("kb_update_query.big_cycles", entities=self.big_batch):
            while len(big["add"]) < 2 or time.perf_counter() - start < seconds:
                failed += self._cycle(self._batch(self.big_batch), rec, big)
        cycles = len(cycle_ms) + len(big["add"])
        updated = 2 * 3 * self.big_batch * len(big["add"])
        per_s = rate(updated, sum(big["add"]) + sum(big["remove"]))
        return Window(
            metrics={
                "add_p50_ms": Metric(
                    median(small["add"]) * 1e3, "ms", len(small["add"])),
                "remove_p50_ms": Metric(
                    median(small["remove"]) * 1e3, "ms", len(small["remove"])),
                "read_after_write_p50_ms": Metric(
                    median(small["read"]) * 1e3, "ms", len(small["read"])),
                "update_triples_per_s": Metric(per_s, "1/s", len(big["add"])),
            },
            op_ms=cycle_ms, work_per_s=per_s,
            attempted=4 * cycles, failed=failed)

    def checks(self) -> list[Check]:
        self.digest = graph_digest(self.kb.graph.spo_items())
        return [Check(
            "KB ends with the digest it started with (every add retracted)",
            self.digest == self.start_digest, self.digest)]
