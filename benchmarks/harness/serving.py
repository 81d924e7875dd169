"""The two serving workloads and their load generators: a closed loop
(one client, next request when the previous completes) and an open loop
(requests on a fixed schedule, timed from the moment each was due)."""

from __future__ import annotations

import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.datalog.ast import Atom
from repro.datasets.lubm import UB, LUBMGenerator
from repro.datasets.lubm_queries import LUBM_QUERIES
from repro.owl.vocabulary import RDF
from repro.rdf.terms import Variable
from repro.rdf.triple import Triple
from repro.serving.server import KBServer, ServerOverloadedError

from .common import (
    Check,
    Metric,
    Metrics,
    graph_digest,
    median,
    percentile,
    rate,
    rows_key,
)
from .layers import fresh_student
from .spans import Recorder
from .workloads import (
    RunConfig,
    Window,
    Workload,
    parallel_run_layers,
    random_student,
)


_X, _C = Variable("x"), Variable("c")

#: Lookup templates: which entity kind parameterizes each, and its BGP.
_TEMPLATES: tuple[tuple[str, Callable[[object], tuple[Atom, ...]]], ...] = (
    ("course", lambda e: (Atom(_X, RDF.type, UB.GraduateStudent),
                          Atom(_X, UB.takesCourse, e))),          # Q1
    ("faculty", lambda e: (Atom(_X, RDF.type, UB.Publication),
                           Atom(_X, UB.publicationAuthor, e))),   # Q3
    ("department", lambda e: (Atom(_X, RDF.type, UB.Professor),
                              Atom(_X, UB.worksFor, e))),         # Q4
    ("department", lambda e: (Atom(_X, RDF.type, UB.Person),
                              Atom(_X, UB.memberOf, e))),         # Q5
    ("course", lambda e: (Atom(_X, RDF.type, UB.Student),
                          Atom(_X, UB.takesCourse, e))),          # Q10
    ("faculty", lambda e: (Atom(_X, UB.advisor, e),)),
    ("student", lambda e: (Atom(e, UB.takesCourse, _C),)),
)


class LookupMix:
    """Seeded generator of lookup requests: a uniformly drawn template
    whose entity is drawn Zipf(1.1) over that kind's population, so a few
    departments, teachers, courses and students take most of the traffic
    (the property the serving caches depend on)."""

    def __init__(self, n: int, seed: int) -> None:
        gen = LUBMGenerator(universities=n)
        depts = gen.departments_per_university
        faculty = gen.faculty_per_department
        students = gen.students_per_faculty * faculty
        entity = LUBMGenerator.entity_uri

        def names(per_dept: int, fmt: str) -> list:
            return [entity(u, f"Department{d}/" + fmt.format(i))
                    for u in range(n) for d in range(depts)
                    for i in range(per_dept)]

        self._pools = {
            "department": [entity(u, f"Department{d}")
                           for u in range(n) for d in range(depts)],
            "faculty": names(faculty, "Faculty{}"),
            "course": names(faculty, "Course{}_0"),
            "student": names(students, "Student{}"),
        }
        self.rng = np.random.default_rng(seed)
        # Which entity is popular is itself drawn from the seed.
        for pool in self._pools.values():
            self.rng.shuffle(pool)
        self._weights = {}
        for kind, pool in self._pools.items():
            w = 1.0 / np.arange(1, len(pool) + 1) ** 1.1
            self._weights[kind] = w / w.sum()

    def draw(self, count: int) -> list[tuple[Atom, ...]]:
        templates = self.rng.integers(len(_TEMPLATES), size=count)
        picks = {kind: iter(self.rng.choice(
                     len(pool), size=count, p=self._weights[kind]))
                 for kind, pool in self._pools.items()}
        out = []
        for template in templates:
            kind, build = _TEMPLATES[template]
            out.append(build(self._pools[kind][next(picks[kind])]))
        return out


@dataclass
class Op:
    """One scheduled request: a read (BGP) or a write (adds/removes)."""

    kind: str  # "read" | "add" | "remove"
    patterns: tuple[Atom, ...] = ()
    triples: tuple[Triple, ...] = ()


@dataclass
class LoopResult:
    latency_ms: dict[str, list[float]]
    late_ms: list[float]
    seconds: float
    attempted: int
    failed: int
    #: Completion times, seconds from the loop's start (closed loop).
    done_at: list[float] = field(default_factory=list)

    def sliced_rate(self, slice_s: float = 0.25) -> float:
        """Median completions per second over ``slice_s`` slices: a pause
        (a GC generation-2 collection, a preempted core) lands in one
        slice instead of lowering the whole phase's rate."""
        slices = max(1, int(self.seconds / slice_s))
        counts, _edges = np.histogram(
            self.done_at, bins=slices, range=(0.0, slices * slice_s))
        return median(counts / slice_s)


def _submit(server: KBServer, op: Op) -> Future:
    if op.kind == "read":
        return server.submit(op.patterns)
    if op.kind == "add":
        return server.submit_apply(adds=op.triples)
    return server.submit_apply(removes=op.triples)


def closed_loop(server: KBServer, ops: Sequence[Op], seconds: float,
                rec: Recorder, span: str, min_ops: int = 0) -> LoopResult:
    """One client: the next request goes out when the previous one
    completes.  Stops after ``seconds`` and at least ``min_ops`` requests
    (or when ``ops`` run out)."""
    latency: dict[str, list[float]] = {"read": [], "add": [], "remove": []}
    done_at: list[float] = []
    failed = attempted = 0
    start = time.perf_counter()
    with rec.span(span):
        for op in ops:
            t0 = time.perf_counter()
            if t0 - start >= seconds and attempted >= min_ops:
                break
            attempted += 1
            try:
                _submit(server, op).result(timeout=60)
            except Exception:  # noqa: BLE001 — any failure is a failed op
                failed += 1
                continue
            end = time.perf_counter()
            latency[op.kind].append((end - t0) * 1e3)
            done_at.append(end - start)
    return LoopResult(latency, [], time.perf_counter() - start,
                      attempted, failed, done_at)


def open_loop(server: KBServer, ops: Sequence[Op], rate_per_s: float,
              rec: Recorder, span: str) -> LoopResult:
    """Requests go out on a fixed schedule whether or not earlier ones
    completed; each is timed from the moment it was *due*, so a stall
    counts against every request queued behind it.  One generator thread
    submits; completion is observed by done-callbacks on the futures."""
    latency: dict[str, list[float]] = {"read": [], "add": [], "remove": []}
    late_ms: list[float] = []
    failures: list[BaseException] = []
    futures: list[Future] = []

    with rec.span(span, rate=rate_per_s, requests=len(ops)):
        parent = rec.current()

        def done(future: Future, due: float, kind: str) -> None:
            end = time.perf_counter()
            error = future.exception()
            if error is not None:
                failures.append(error)
                return
            latency[kind].append((end - due) * 1e3)
            rec.add(f"serving.server.{kind}", due, end, parent)

        start = time.perf_counter() + 0.005
        for i, op in enumerate(ops):
            due = start + i / rate_per_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late_ms.append((time.perf_counter() - due) * 1e3)
            try:
                future = _submit(server, op)
            except ServerOverloadedError as refused:
                failures.append(refused)
                continue
            future.add_done_callback(
                lambda f, due=due, kind=op.kind: done(f, due, kind))
            futures.append(future)
        _done, pending = wait(futures, timeout=120)
    return LoopResult(latency, late_ms, time.perf_counter() - start,
                      len(ops), len(failures) + len(pending))


class ServeRead(Workload):
    name = "serve_read"
    why = ("read-only serving, cache-hit-heavy (Zipf lookups): server "
           "batching, per-worker union, join_pattern and decode dominate; "
           "no write path")
    capacity = 256
    warmup_lookups = 200

    size_field = "serve_n"

    def __init__(self, cfg: RunConfig) -> None:
        super().__init__(cfg)
        self.server: KBServer | None = None
        self.mix = LookupMix(cfg.n, cfg.seed)
        self.battery = [q.parse().bgp for q in LUBM_QUERIES]
        self.warmup = self.mix.draw(self.warmup_lookups)

    def setup(self) -> None:
        self.close()
        graph = self._read_graph()
        t0 = time.perf_counter()
        self.server = KBServer.load(
            self.ontology, graph, k=2, capacity=self.capacity)
        self.setup_layers["serving.server.load_s"] = Metric(
            time.perf_counter() - t0, "s")
        t0 = time.perf_counter()
        for query in self.battery:
            self.server.query(query)
        self.setup_layers["serving.server.battery_cold_s"] = Metric(
            time.perf_counter() - t0, "s")
        for patterns in self.warmup:
            self.server.query(patterns)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        super().close()

    # -- phases -------------------------------------------------------------

    def _battery_passes(self, seconds: float, rec: Recorder):
        """Warm closed-loop passes over the 14 queries; per-query and
        per-pass seconds."""
        server = self.server
        assert server is not None
        per_query: list[list[float]] = [[] for _ in self.battery]
        passes: list[float] = []
        start = time.perf_counter()
        with rec.span("serve.battery"):
            while len(passes) < 3 or time.perf_counter() - start < seconds:
                t_pass = time.perf_counter()
                for i, query in enumerate(self.battery):
                    t0 = time.perf_counter()
                    with rec.span(f"serving.server.query.Q{i + 1}"):
                        server.query(query)
                    per_query[i].append(time.perf_counter() - t0)
                passes.append(time.perf_counter() - t_pass)
        return per_query, passes

    def window(self, seconds: float, rec: Recorder) -> Window:
        server = self.server
        assert server is not None
        before = server.stats
        per_query, passes = self._battery_passes(0.3 * seconds, rec)
        reads = [Op("read", patterns=p)
                 for p in self.mix.draw(int(0.3 * seconds * 6000))]
        closed = closed_loop(server, reads, 0.3 * seconds, rec,
                             "serving.loadgen.closed_loop")
        rate_per_s = self.cfg.scale.read_rate
        opened = open_loop(
            server,
            [Op("read", patterns=p)
             for p in self.mix.draw(int(0.4 * seconds * rate_per_s))],
            rate_per_s, rec, "serving.loadgen.open_loop")
        qps = closed.sliced_rate()
        latency = opened.latency_ms["read"]
        window = Window(
            metrics={
                "battery_s": Metric(median(passes), "s", len(passes)),
                "saturation_qps": Metric(
                    qps, "1/s", len(closed.latency_ms["read"])),
                "query_p50_ms": Metric(median(latency), "ms", len(latency)),
                "query_p99_ms": Metric(
                    percentile(latency, 99), "ms", len(latency)),
            },
            op_ms=[t * 1e3 for t in passes], work_per_s=qps,
            attempted=(14 * len(passes) + closed.attempted
                       + opened.attempted),
            failed=closed.failed + opened.failed)
        if rec.enabled:
            window.layers = _serving_layers(server, before, opened)
            for i, times in enumerate(per_query):
                window.layers[f"serving.server.q{i + 1}_ms"] = Metric(
                    median(times) * 1e3, "ms", len(times))
        return window

    # -- checks -------------------------------------------------------------

    def checks(self) -> list[Check]:
        server = self.server
        assert server is not None
        index = server.kb.id_index()
        wrong = [
            LUBM_QUERIES[i].name for i, query in enumerate(self.battery)
            if rows_key(server.query(query)) != rows_key(index.execute(query))
        ]
        sample = {patterns: None for patterns in self.warmup[:60]}
        bad_lookups = sum(
            rows_key(server.query(p)) != rows_key(index.execute(p))
            for p in sample)
        self.digest = graph_digest(server.kb.graph.spo_items())
        return [
            Check("every battery answer from KBServer.query equals "
                  "kb.id_index()'s row multiset", not wrong, f"{wrong}"),
            Check("sampled lookups equal kb.id_index()'s rows",
                  bad_lookups == 0, f"{bad_lookups} of {len(sample)} differ"),
        ]

    def layers(self, rec: Recorder) -> Metrics:
        return _resident_cluster_layers(self, rec)


class ServeMixed(ServeRead):
    name = "serve_mixed"
    why = ("writes beside reads: each write bumps store versions so the "
           "version-keyed caches miss, and removals block the reads queued "
           "behind them; a cache or batching gain on serve_read must not "
           "cost this one")
    #: One request in ``write_every`` is a write, alternating the add of a
    #: fresh student and the removal of the oldest one added.
    write_every = 50
    #: One read in ``heavy_every`` is LUBM Q2 or Q8 instead of a lookup.
    heavy_every = 100

    def __init__(self, cfg: RunConfig) -> None:
        super().__init__(cfg)
        self._serial = 0
        self._generator = LUBMGenerator(universities=cfg.n)
        self._heavy = [LUBM_QUERIES[1].parse().bgp.patterns,
                       LUBM_QUERIES[7].parse().bgp.patterns]
        self.start_digest: str | None = None

    def _ops(self, count: int) -> list[Op]:
        """The mixed schedule: lookups, a heavy query now and then, and a
        write every ``write_every`` requests.  Every schedule starts with
        no fresh student in the KB (the previous one's were retracted)."""
        lookups = iter(self.mix.draw(count))
        live: list[tuple[Triple, ...]] = []
        ops: list[Op] = []
        for i in range(1, count + 1):
            if i % self.write_every == 0:
                if not live:
                    self._serial += 1
                    live.append(tuple(random_student(
                        self._serial, self.mix.rng, self._generator)))
                    ops.append(Op("add", triples=live[0]))
                else:
                    ops.append(Op("remove", triples=live.pop()))
            elif i % self.heavy_every == 0:
                ops.append(Op("read", patterns=self._heavy[
                    (i // self.heavy_every) % 2]))
            else:
                ops.append(Op("read", patterns=next(lookups)))
        return ops

    def _retract_live(self, scheduled: Sequence[Op], issued: int) -> int:
        """Retract every fresh student still in the KB, so the KB ends as
        it started.  ``issued`` is how many of ``scheduled`` ran (a closed
        loop may stop early).  Returns failed retractions."""
        server = self.server
        assert server is not None
        added, failed = [], 0
        for op in scheduled[:issued]:
            if op.kind == "add":
                added.append(op.triples)
            elif op.kind == "remove":
                added.remove(op.triples)
        for batch in added:
            try:
                server.apply(removes=batch)
            except Exception:  # noqa: BLE001 — counted, not raised
                failed += 1
        return failed

    def window(self, seconds: float, rec: Recorder) -> Window:
        server = self.server
        assert server is not None
        if self.start_digest is None:
            self.start_digest = graph_digest(server.kb.graph.spo_items())
        before = server.stats
        ops = self._ops(max(int(0.6 * seconds * 6000), 4 * self.write_every))
        # At least four writes, so even the shortest window sees removals.
        closed = closed_loop(server, ops, 0.6 * seconds, rec,
                             "serving.loadgen.closed_loop",
                             min_ops=4 * self.write_every)
        failed = self._retract_live(ops, closed.attempted)
        rate_per_s = self.cfg.scale.mixed_rate
        ops = self._ops(int(0.4 * seconds * rate_per_s))
        opened = open_loop(server, ops, rate_per_s, rec,
                           "serving.loadgen.open_loop")
        failed += self._retract_live(ops, len(ops))
        completed = sum(len(v) for v in closed.latency_ms.values())
        ops_per_s = rate(completed, closed.seconds)
        reads = opened.latency_ms["read"]
        # Write latencies come from the closed loop: service time, free of
        # the queueing an open-loop arrival can add.
        adds, removes = closed.latency_ms["add"], closed.latency_ms["remove"]
        window = Window(
            metrics={
                "mixed_ops_per_s": Metric(ops_per_s, "1/s", completed),
                "query_p50_ms": Metric(median(reads), "ms", len(reads)),
                "query_p99_ms": Metric(
                    percentile(reads, 99), "ms", len(reads)),
                "add_p50_ms": Metric(median(adds), "ms", len(adds)),
                "remove_p50_ms": Metric(median(removes), "ms", len(removes)),
            },
            op_ms=removes, work_per_s=ops_per_s,
            attempted=closed.attempted + opened.attempted,
            failed=closed.failed + opened.failed + failed)
        if rec.enabled:
            window.layers = _serving_layers(server, before, opened)
        return window

    def checks(self) -> list[Check]:
        out = super().checks()
        return out + [Check(
            "KB ends with the digest it started with (every add "
            "retracted)", self.digest == self.start_digest, self.digest)]


def _serving_layers(server: KBServer, before, opened: LoopResult) -> Metrics:
    """``ServingStats`` deltas over one window plus generator lateness."""
    after = server.stats
    hits = after.cache_hits - before.cache_hits
    misses = after.cache_misses - before.cache_misses
    return {
        "serving.server.cache_hit_rate": Metric(
            rate(hits, hits + misses), "ratio", hits + misses),
        "serving.server.batches": Metric(
            after.batches - before.batches, "count"),
        "serving.server.rejected": Metric(
            after.rejected - before.rejected, "count"),
        "serving.loadgen.late_p99_ms": Metric(
            percentile(opened.late_ms, 99), "ms", len(opened.late_ms)),
    }


def _resident_cluster_layers(workload: ServeRead, rec: Recorder) -> Metrics:
    """Per-layer numbers of the cluster behind a server: its load's
    parallel breakdown, then — with the server closed, so nothing else
    touches the stores — the write and read primitives called directly."""
    server = workload.server
    assert server is not None
    kb = server.kb
    run = kb.last_parallel_run
    out = parallel_run_layers(
        run, workload.setup_layers["serving.server.load_s"].value)
    workload.close()
    workers = run.workers
    probe = [Atom(_X, RDF.type, UB.Student),
             Atom(_X, UB.takesCourse, _C),
             Atom(_X, UB.memberOf, _C)]
    times = []
    with rec.span("parallel.worker.answer_pattern", workers=len(workers)):
        for _ in range(5):
            for pattern in probe:
                t0 = time.perf_counter()
                for worker in workers:
                    worker.answer_pattern(pattern)
                times.append(time.perf_counter() - t0)
    out["parallel.worker.answer_pattern_ms"] = Metric(
        median(times) * 1e3, "ms", len(times))
    add_s, remove_s, delta_s = [], [], []
    with rec.span("datalog.incremental.dred_term", cycles=5):
        for serial in range(5):
            batch = fresh_student(20_000_000 + serial)
            t0 = time.perf_counter()
            added = list(kb.apply(adds=batch).added)
            add_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for worker in workers:
                worker.apply_closure_delta(added, ())
                worker.apply_closure_delta((), added)
            delta_s.append((time.perf_counter() - t0) / len(workers))
            t0 = time.perf_counter()
            kb.apply(removes=batch)
            remove_s.append(time.perf_counter() - t0)
    out["datalog.incremental.dred_term_add_s"] = Metric(
        median(add_s), "s", len(add_s))
    out["datalog.incremental.dred_term_remove_s"] = Metric(
        median(remove_s), "s", len(remove_s))
    out["parallel.worker.apply_closure_delta_ms"] = Metric(
        median(delta_s) * 1e3, "ms", len(delta_s))
    return out
