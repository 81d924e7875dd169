"""The resident KB server: queries answered from partition workers that
never shut down.

Shape of the system:

* **one serve thread** owns all mutable state — worker stores, the
  coordinator :class:`~repro.parallel.query.GatherDictionary`, the result
  caches.  Client threads only enqueue requests and wait on futures, so
  reads and writes are serialized without per-store locking;
* **admission control** — the request queue is bounded; a full queue
  rejects *immediately* with the typed :class:`ServerOverloadedError`
  instead of building an unbounded backlog (the client owns the retry
  policy);
* **request batching** — the serve thread drains up to ``batch_size``
  queued requests per wakeup and answers them back-to-back, so a burst
  amortizes the per-wakeup overhead and back-to-back repeats of the same
  pattern hit the caches while they are hottest;
* **version-keyed caches** — each worker's per-pattern answers are cached
  against the worker store's monotone row-set version
  (:attr:`~repro.parallel.worker.PartitionWorker.store_version`).  The
  write path (:meth:`KBServer.apply`) runs DRed on the authoritative
  :class:`~repro.owl.kb.MaterializedKB` and pushes the *net* closure
  delta into the worker stores, which bumps their versions — the caches
  invalidate by key mismatch, never by explicit flush (the contract the
  ST300 dataflow verifier checks declaratively).

The serving scatter deliberately skips the distributed engine's semi-join
pruning: an *unconstrained* per-pattern answer is reusable across every
query that mentions the pattern, a semi-join-pruned one is not, and with
workers in-process the "shipping" a semi-join would save is a memcpy.
"""

from __future__ import annotations

import queue
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.datalog.ast import Atom, Bindings
from repro.datalog.join import order_patterns
from repro.owl.kb import ApplyResult, MaterializedKB
from repro.parallel.query import GatherDictionary
from repro.parallel.worker import PartitionWorker
from repro.rdf.graph import Graph
from repro.rdf.idquery import join_pattern
from repro.rdf.idstore import IdGraph
from repro.rdf.query import BGPQuery
from repro.rdf.terms import Term, Variable
from repro.rdf.triple import Triple


class ServerClosedError(RuntimeError):
    """Request submitted to (or still queued in) a closed server."""


class ServerOverloadedError(RuntimeError):
    """Typed admission-control rejection: the bounded request queue is
    full.  Carries the configured capacity so clients can implement
    informed backoff."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        super().__init__(
            f"serving queue full (capacity {capacity}); retry later")


@dataclass(frozen=True)
class _PatternAnswer:
    """One worker's full answer for one pattern, already canonicalized
    into the coordinator id space (directly unionable)."""

    s: np.ndarray
    p: np.ndarray
    o: np.ndarray
    probes: int
    payload_bytes: int


class WorkerResultCache:
    """Per-worker pattern-result cache, keyed on the store version.

    Each entry records the worker-store version it was computed at;
    :meth:`lookup` treats a version mismatch as a miss, so a write that
    bumps the store version invalidates every prior entry for that worker
    without any explicit flush.  Bounded LRU: the least recently used
    pattern falls out first.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = maxsize
        #: pattern -> (store version at compute time, cached answer).
        self._entries: OrderedDict[Atom, tuple[int, _PatternAnswer]] = (
            OrderedDict())
        self.hits = 0
        self.misses = 0

    def lookup(self, pattern: Atom, version: int) -> _PatternAnswer | None:
        entry = self._entries.get(pattern)
        if entry is None or entry[0] != version:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(pattern)
        return entry[1]

    def store(
        self, pattern: Atom, version: int, answer: _PatternAnswer
    ) -> None:
        entries = self._entries
        entries[pattern] = (version, answer)
        entries.move_to_end(pattern)
        while len(entries) > self._maxsize:
            entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class ServingStats:
    """Lifetime counters of one server."""

    served: int
    rejected: int
    applied: int
    batches: int
    cache_hits: int
    cache_misses: int

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class _QueryRequest:
    patterns: tuple[Atom, ...]
    future: Future


@dataclass
class _ApplyRequest:
    adds: tuple[Triple, ...]
    removes: tuple[Triple, ...]
    future: Future


class KBServer:
    """A materialized KB kept resident and served concurrently.

    ``workers`` are the partition workers of a finished
    parallel run (``ParallelRunResult.workers`` from the BSP driver or
    ``AsyncRunResult.workers`` from the in-process async runtime) — their
    columnar stores *are* the serving replicas.  Without workers the
    server answers from ``kb.id_index()`` — the KB's own id store.

    ``kb`` stays the authority for updates: :meth:`apply` runs
    delete-and-rederive there (id-space DRed on the KB's store, on the
    serve thread) and propagates the net closure delta to the worker
    stores.  One server per worker set — the server owns the
    workers' query-session state.
    """

    def __init__(
        self,
        kb: MaterializedKB,
        workers: Sequence[PartitionWorker] | None = None,
        *,
        capacity: int = 64,
        batch_size: int = 8,
        cache_size: int = 256,
        poll_interval: float = 0.02,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self._kb = kb
        if workers:
            worker_list = list(workers)
            self._workers: list[PartitionWorker] | None = worker_list
            self._gather: GatherDictionary | None = GatherDictionary(
                worker_list[0].dictionary.base)
            # The server holds one long-lived query session per worker:
            # delta-dictionary entries ship once per server lifetime and
            # cached answers stay decodable forever after.
            for w in worker_list:
                w.begin_query_session()
            self._caches = [
                WorkerResultCache(cache_size) for _ in worker_list]
        else:
            self._workers = None
            self._gather = None
            self._caches = []
        self._capacity = capacity
        self._batch_size = batch_size
        self._poll_interval = poll_interval
        self._queue: queue.Queue[_QueryRequest | _ApplyRequest] = (
            queue.Queue(maxsize=capacity))
        self._served = 0
        self._applied = 0
        self._batches = 0
        self._rejected = 0
        self._reject_lock = threading.Lock()
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._serve_loop, name="kbserver", daemon=True)
        self._thread.start()

    # -- construction ------------------------------------------------------------

    @classmethod
    def load(
        cls,
        ontology: Graph,
        data: Graph,
        k: int = 2,
        backend: str = "bsp",
        approach: str = "data",
        **options: int | float,
    ) -> "KBServer":
        """Materialize ``data`` on a ``k``-node cluster and serve it.  ``backend`` picks the runtime that builds the closure
        — ``"bsp"`` (synchronous rounds) or ``"async"`` (the supervised
        round-free runtime); both leave their partition workers resident
        for the read path.  Remaining keyword options go to the server
        constructor."""
        kb = MaterializedKB(ontology)
        kb.bulk_load(data, parallel_k=k, approach=approach,  # type: ignore[arg-type]
                     backend=backend)
        run = kb.last_parallel_run
        workers = list(run.workers) if run is not None else []
        return cls(kb, workers=workers or None, **options)  # type: ignore[arg-type]

    # -- client surface ----------------------------------------------------------

    def submit(self, query: BGPQuery | Sequence[Atom]) -> "Future[list[Bindings]]":
        """Enqueue a BGP query; returns a future resolving to its
        solution mappings.  Raises :class:`ServerOverloadedError` when
        the bounded queue is full and :class:`ServerClosedError` after
        :meth:`close`."""
        patterns = tuple(
            query.patterns if isinstance(query, BGPQuery) else query)
        if not patterns:
            raise ValueError("a query needs at least one pattern")
        for pat in patterns:
            if not isinstance(pat, Atom):
                raise TypeError(f"pattern must be an Atom, got {pat!r}")
        future: Future[list[Bindings]] = Future()
        self._enqueue(_QueryRequest(patterns, future))
        return future

    def query(
        self,
        query: BGPQuery | Sequence[Atom],
        timeout: float | None = 30.0,
    ) -> list[Bindings]:
        """Blocking :meth:`submit`: the solution mappings, term-decoded."""
        return self.submit(query).result(timeout)

    def submit_apply(
        self,
        adds: Iterable[Triple] = (),
        removes: Iterable[Triple] = (),
    ) -> "Future[ApplyResult]":
        """Enqueue an update.  Writes ride the same serialized queue as
        reads, so a client never observes a half-propagated delta."""
        future: Future[ApplyResult] = Future()
        self._enqueue(_ApplyRequest(tuple(adds), tuple(removes), future))
        return future

    def apply(
        self,
        adds: Iterable[Triple] = (),
        removes: Iterable[Triple] = (),
        timeout: float | None = 120.0,
    ) -> ApplyResult:
        """Blocking :meth:`submit_apply`: DRed on the authoritative KB,
        then net-delta propagation into every worker store (bumping their
        versions — which is what invalidates the result caches)."""
        return self.submit_apply(adds, removes).result(timeout)

    @property
    def stats(self) -> ServingStats:
        return ServingStats(
            served=self._served,
            rejected=self._rejected,
            applied=self._applied,
            batches=self._batches,
            cache_hits=sum(c.hits for c in self._caches),
            cache_misses=sum(c.misses for c in self._caches),
        )

    @property
    def kb(self) -> MaterializedKB:
        return self._kb

    def close(self, timeout: float = 10.0) -> None:
        """Stop serving: already-queued requests complete, later submits
        raise :class:`ServerClosedError`."""
        self._closing.set()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "KBServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- serve loop --------------------------------------------------------------

    def _enqueue(self, request: _QueryRequest | _ApplyRequest) -> None:
        if self._closing.is_set():
            raise ServerClosedError("server is closed")
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            with self._reject_lock:
                self._rejected += 1
            raise ServerOverloadedError(self._capacity) from None

    def _serve_loop(self) -> None:
        while True:
            try:
                head = self._queue.get(timeout=self._poll_interval)
            except queue.Empty:
                if self._closing.is_set():
                    break
                continue
            batch: list[_QueryRequest | _ApplyRequest] = [head]
            while len(batch) < self._batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self._batches += 1
            for request in batch:
                self._handle(request)
        # Late stragglers that raced close(): fail them typed, not silent.
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            request.future.set_exception(
                ServerClosedError("server closed before the request ran"))

    def _handle(self, request: _QueryRequest | _ApplyRequest) -> None:
        try:
            if isinstance(request, _ApplyRequest):
                result: object = self._do_apply(
                    request.adds, request.removes)
                self._applied += 1
            else:
                result = self._do_query(request.patterns)
                self._served += 1
        except Exception as exc:  # noqa: BLE001 — delivered to the caller
            request.future.set_exception(exc)
            return
        request.future.set_result(result)

    # -- evaluation --------------------------------------------------------------

    def _do_query(self, patterns: tuple[Atom, ...]) -> list[Bindings]:
        if self._workers is None:
            return self._kb.id_index().execute(list(patterns))
        gather = self._gather
        assert gather is not None
        env: dict[Variable, np.ndarray] = {}
        n_env = 1
        for pattern in order_patterns(patterns):
            if n_env == 0:
                break
            union = IdGraph()
            for i, worker in enumerate(self._workers):
                answer = self._pattern_answer(i, worker, pattern)
                union.add_rows(answer.s, answer.p, answer.o)
            env, n_env, _probes = join_pattern(
                union, pattern, env, n_env, gather.get)
        decoded: Mapping[Variable, list[Term]] = {
            var: gather.decode_many(col) for var, col in env.items()
        }
        return [
            {var: terms[i] for var, terms in decoded.items()}
            for i in range(n_env)
        ]

    def _pattern_answer(
        self, i: int, worker: PartitionWorker, pattern: Atom
    ) -> _PatternAnswer:
        gather = self._gather
        assert gather is not None
        version = worker.store_version
        answer = self._caches[i].lookup(pattern, version)
        if answer is None:
            batch, probes = worker.answer_pattern(pattern)
            gather.apply_delta(batch.delta)
            answer = _PatternAnswer(
                s=gather.canonical_ids(batch.s_ids),
                p=gather.canonical_ids(batch.p_ids),
                o=gather.canonical_ids(batch.o_ids),
                probes=probes,
                payload_bytes=batch.payload_bytes(),
            )
            self._caches[i].store(pattern, version, answer)
        return answer

    # -- the write path ----------------------------------------------------------

    def _do_apply(
        self, adds: tuple[Triple, ...], removes: tuple[Triple, ...]
    ) -> ApplyResult:
        result = self._kb.apply(adds=adds, removes=removes)
        if self._workers is not None:
            removed = list(result.removed)
            if removed:
                # A removed closure row may be replicated anywhere (any
                # node that derived or received it), so every worker
                # drops its copies.
                for worker in self._workers:
                    worker.apply_closure_delta((), removed)
            added = list(result.added)
            if added:
                # Union-read semantics only need each new row on one
                # node; round-robin keeps the stores balanced.
                k = len(self._workers)
                for j, worker in enumerate(self._workers):
                    worker.apply_closure_delta(added[j::k], ())
        return result

    def __repr__(self) -> str:
        mode = (f"{len(self._workers)} workers" if self._workers
                else "serial index")
        return (f"<KBServer {mode} kb={len(self._kb)} "
                f"served={self._served} rejected={self._rejected}>")
