"""Distributed BGP query answering over a partitioned, materialized KB.

The paper stops at materialization; a deployed system must also *answer
queries* against the partition layout it just built, without first paying
the aggregation step (shipping every partition's output to one node).
This module adds that read path:

* **scatter** — each triple pattern of the query is matched at every
  partition locally (an index lookup against the partition's closed
  graph);
* **gather** — the per-pattern solution sets are unioned at the
  coordinator and joined there.

Correctness: after Algorithm 3 terminates, every closure triple exists on
at least one partition (its deriving node keeps it), so the union of local
matches for a pattern equals the centralized match set, and the
coordinator-side join over complete pattern relations is exact.  No
cross-partition join shipping is needed — the price is that the
coordinator joins (small) pattern relations rather than pushing joins
down, the standard federated-BGP baseline.

Two scatter implementations share that shape, and one gather: the
coordinator joins the gathered relations with
:func:`~repro.rdf.idquery.join_pattern`, in
:func:`~repro.datalog.join.order_patterns` order.

* **partition graphs** (``DistributedQueryEngine(partitions)``) —
  partitions are plain :class:`Graph` objects; local matching is the
  per-triple index walk, and the coordinator encodes the gathered triples
  into one id space;
* **id-native fast path** (``DistributedQueryEngine.from_workers``) —
  partitions are resident :class:`PartitionWorker` stores.
  Patterns run in join order with *semi-join pruning*: the coordinator
  ships the ids already bound by earlier patterns, so a partition only
  returns rows that can still join.  Results come back as
  :class:`~repro.parallel.messages.EncodedBatch` int64 payloads (24 B per
  row plus ship-once delta-dictionary entries), reconciled into one
  coordinator id space by :class:`GatherDictionary`.

Accounting mirrors the reasoning runtime: per-partition probe counts and
shipped-solution counts feed the same :class:`CostModel` machinery; on
the id wire path the *measured* encoded payload bytes replace the
80-bytes-per-N-Triples-line estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.datalog.ast import Atom, Bindings
from repro.datalog.join import order_patterns
from repro.parallel.costmodel import CostModel
from repro.rdf.dictionary import TermDictionary, encode_rows
from repro.rdf.graph import Graph
from repro.rdf.idquery import join_pattern
from repro.rdf.idstore import IdGraph
from repro.rdf.query import BGPQuery
from repro.rdf.terms import Term, Variable
from repro.rdf.triple import Triple

if TYPE_CHECKING:
    from repro.parallel.worker import PartitionWorker


@dataclass
class DistributedQueryStats:
    """Work/traffic accounting for one distributed query."""

    patterns: int = 0
    #: per-partition index probes during the scatter phase
    probes_per_partition: list[int] = field(default_factory=list)
    #: triples shipped to the coordinator, per pattern
    shipped_per_pattern: list[int] = field(default_factory=list)
    #: measured id-wire payload per pattern (``EncodedBatch`` bytes summed
    #: over partitions); empty on the term-level scatter path, which never
    #: serializes
    payload_bytes_per_pattern: list[int] = field(default_factory=list)
    solutions: int = 0

    @property
    def total_shipped(self) -> int:
        return sum(self.shipped_per_pattern)

    @property
    def total_payload_bytes(self) -> int:
        """Measured gather traffic (0 when nothing was wire-encoded)."""
        return sum(self.payload_bytes_per_pattern)

    def modeled_gather_time(self, cost_model: CostModel,
                            bytes_per_solution: int | None = None) -> float:
        """Seconds to ship the scatter results under a cost model (one
        message per partition per pattern).

        The id wire path records real encoded payload sizes and those are
        used directly.  The term-level path never serializes, so its
        traffic is estimated at ``bytes_per_solution`` per shipped triple
        (default ~80 B, a typical N-Triples line); passing an explicit
        ``bytes_per_solution`` forces the estimate on either path.
        """
        messages = len(self.probes_per_partition) * self.patterns
        if bytes_per_solution is None and self.payload_bytes_per_pattern:
            return cost_model.transfer_time(self.total_payload_bytes,
                                            messages)
        per = 80 if bytes_per_solution is None else bytes_per_solution
        return cost_model.transfer_time(self.total_shipped * per, messages)


class GatherDictionary:
    """The coordinator's id space for gathered worker answers.

    Base-stripe ids (``< base_size``) are shared cluster-wide and map to
    themselves.  Above the base, each worker minted its own private
    stripe, and two workers can hold *different* ids for the same runtime
    term — joining gathered columns raw would miss term-equal rows.  This
    dictionary reconciles them: the first id seen for a term becomes its
    canonical coordinator id, and :meth:`canonical_ids` rewrites every
    gathered column into that space before it touches the join.

    Satisfies :class:`~repro.rdf.idquery.SupportsQueryDictionary`, so the
    coordinator join runs the same vectorized kernel as a local query.
    """

    def __init__(self, base: TermDictionary) -> None:
        self.base = base
        self._base_size = len(base)
        #: term -> canonical id for non-base terms.
        self._term_to_id: dict[Term, int] = {}
        #: canonical id -> term for non-base ids.
        self._term_by_id: dict[int, Term] = {}
        #: any seen worker id -> canonical id.
        self._canon: dict[int, int] = {}

    @property
    def base_size(self) -> int:
        return self._base_size

    def apply_delta(self, entries: Sequence[tuple[int, Term]]) -> None:
        """Register worker-shipped ``(id, term)`` pairs.  First id seen
        for a term wins; later ids for the same term become aliases."""
        for tid, term in entries:
            if tid in self._canon:
                continue
            canonical = self._term_to_id.setdefault(term, tid)
            self._canon[tid] = canonical
            if canonical == tid:
                self._term_by_id[tid] = term

    def canonical_ids(self, ids: np.ndarray) -> np.ndarray:
        """Rewrite a gathered id column into canonical coordinator ids
        (base ids pass through)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0 or int(ids.max(initial=0)) < self._base_size:
            return ids
        canon = self._canon
        base_size = self._base_size
        return np.asarray(
            [i if i < base_size else canon[i] for i in ids.tolist()],
            dtype=np.int64,
        )

    def get(self, term: Term) -> int | None:
        tid = self.base.get(term)
        if tid is None:
            tid = self._term_to_id.get(term)
        return tid

    def decode(self, tid: int) -> Term:
        if tid < self._base_size:
            return self.base.decode(tid)
        return self._term_by_id[tid]

    def decode_many(self, ids: np.ndarray) -> list[Term]:
        decode = self.base.decode
        by_id = self._term_by_id
        base_size = self._base_size
        return [
            decode(i) if i < base_size else by_id[i]
            for i in np.asarray(ids, dtype=np.int64).tolist()
        ]

    def __len__(self) -> int:
        return self._base_size + len(self._term_by_id)


class DistributedQueryEngine:
    """Answer BGP queries over a list of partition graphs.

    >>> from repro.rdf import Graph, URI
    >>> from repro.rdf.terms import Variable
    >>> from repro.datalog.ast import Atom
    >>> parts = [Graph(), Graph()]
    >>> _ = parts[0].add_spo(URI("ex:a"), URI("ex:p"), URI("ex:b"))
    >>> _ = parts[1].add_spo(URI("ex:b"), URI("ex:p"), URI("ex:c"))
    >>> engine = DistributedQueryEngine(parts)
    >>> x, y, z = Variable("x"), Variable("y"), Variable("z")
    >>> rows, stats = engine.execute(
    ...     BGPQuery([Atom(x, URI("ex:p"), y), Atom(y, URI("ex:p"), z)]))
    >>> len(rows)  # the join spans the two partitions
    1
    """

    def __init__(
        self,
        partitions: Sequence[Graph] = (),
        *,
        workers: "Sequence[PartitionWorker] | None" = None,
    ) -> None:
        if workers is not None:
            if partitions:
                raise ValueError("pass partitions or workers, not both")
            worker_list = list(workers)
            if not worker_list:
                raise ValueError("need at least one worker")
            self.workers: list[PartitionWorker] | None = worker_list
            self.partitions: list[Graph] = []
            return
        if not partitions:
            raise ValueError("need at least one partition")
        self.workers = None
        self.partitions = list(partitions)

    @classmethod
    def from_workers(
        cls, workers: "Sequence[PartitionWorker]"
    ) -> "DistributedQueryEngine":
        """An engine on the id-native fast path: resident
        :class:`~repro.parallel.worker.PartitionWorker` stores answer
        patterns directly (semi-join pruned, id-encoded wire)."""
        return cls(workers=workers)

    # -- scatter ---------------------------------------------------------------

    def _scatter(
        self,
        pattern: Atom,
        dictionary: TermDictionary,
        stats: DistributedQueryStats,
    ) -> IdGraph:
        """Union of local matches for one pattern, id-encoded through the
        coordinator's ``dictionary`` (deduplicated — a triple replicated
        on two partitions must count once)."""
        s, p, o = (None if isinstance(t, Variable) else t for t in pattern)
        rows: list[Triple] = []
        shipped = 0
        for i, partition in enumerate(self.partitions):
            local = list(partition.match(s, p, o))
            rows += local
            stats.probes_per_partition[i] += len(local)
            shipped += len(local)
        stats.shipped_per_pattern.append(shipped)
        union = IdGraph()
        union.add_rows(*encode_rows(dictionary, rows))
        return union

    # -- public API ---------------------------------------------------------------

    def _execute_ids(
        self, query: BGPQuery, bindings: Bindings | None
    ) -> tuple[list[Bindings], DistributedQueryStats]:
        """The id-native scatter/gather: patterns run in join order so
        each scatter ships the semi-join sets bound by the previous ones,
        and partitions return only rows that can still join."""
        workers = self.workers
        assert workers is not None
        stats = DistributedQueryStats(
            patterns=len(query.patterns),
            probes_per_partition=[0] * len(workers),
        )
        gather = GatherDictionary(workers[0].dictionary.base)
        for w in workers:
            w.begin_query_session()
        #: Per worker: non-base ids whose (id, term) entry already shipped
        #: with a semi-join set this query (the coordinator-to-worker
        #: mirror of the workers' ship-once delta bookkeeping).
        shipped_terms: list[set[int]] = [set() for _ in workers]

        env: dict[Variable, np.ndarray] = {}
        n_env = 1
        if bindings:
            for var, term in bindings.items():
                tid = gather.get(term)
                if tid is None:
                    # Not in the cluster's base dictionary: no partition
                    # input mentions the term, and the coordinator has no
                    # id to ship for it.  (Closure-minted terms become
                    # addressable only after a pattern gathers them.)
                    raise ValueError(
                        f"seed binding {term!r} is outside the cluster's "
                        "base dictionary; the id-native path cannot ship "
                        "it — bind via a query pattern instead")
                env[var] = np.asarray([tid], dtype=np.int64)

        base_size = gather.base_size
        for pattern in order_patterns(query.patterns, env):
            if n_env == 0:
                # Semi-join pruning at its strongest: an earlier pattern
                # emptied the solution table, so nothing is scattered.
                stats.shipped_per_pattern.append(0)
                stats.payload_bytes_per_pattern.append(0)
                continue
            bound_sets: dict[int, np.ndarray] = {}
            for pos, term in enumerate(pattern):
                if isinstance(term, Variable) and term in env:
                    bound_sets[pos] = np.unique(env[term])
            needed = [ids[ids >= base_size] for ids in bound_sets.values()]
            nonbase = (np.unique(np.concatenate(needed)) if needed
                       else np.empty(0, dtype=np.int64))
            union = IdGraph()
            shipped = 0
            payload = 0
            for i, w in enumerate(workers):
                entries = [
                    (tid, gather.decode(tid))
                    for tid in nonbase.tolist()
                    if tid not in shipped_terms[i]
                ]
                shipped_terms[i].update(tid for tid, _term in entries)
                batch, probes = w.answer_pattern(
                    pattern, bound_ids=bound_sets or None, delta=entries)
                stats.probes_per_partition[i] += probes
                shipped += len(batch)
                payload += batch.payload_bytes()
                gather.apply_delta(batch.delta)
                union.add_rows(
                    gather.canonical_ids(batch.s_ids),
                    gather.canonical_ids(batch.p_ids),
                    gather.canonical_ids(batch.o_ids),
                )
            stats.shipped_per_pattern.append(shipped)
            stats.payload_bytes_per_pattern.append(payload)
            env, n_env, _probes = join_pattern(
                union, pattern, env, n_env, gather.get)
        stats.solutions = n_env
        return _decode(env, n_env, gather.decode_many), stats

    def execute(
        self, query: BGPQuery, bindings: Bindings | None = None
    ) -> tuple[list[Bindings], DistributedQueryStats]:
        """All solution mappings plus the scatter/gather accounting."""
        if self.workers is not None:
            return self._execute_ids(query, bindings)
        stats = DistributedQueryStats(
            patterns=len(query.patterns),
            probes_per_partition=[0] * len(self.partitions),
        )
        # Scatter every pattern, then join the complete relations at the
        # coordinator with the one join step — each pattern against its
        # own gathered relation.
        dictionary = TermDictionary()
        gathered = {
            pattern: self._scatter(pattern, dictionary, stats)
            for pattern in query.patterns
        }
        env = {var: np.asarray([dictionary.encode(term)], dtype=np.int64)
               for var, term in (bindings or {}).items()}
        n_env = 1
        for pattern in order_patterns(query.patterns, env):
            env, n_env, _probes = join_pattern(
                gathered[pattern], pattern, env, n_env, dictionary.get)
        stats.solutions = n_env
        return _decode(env, n_env, dictionary.decode_many), stats

    def select(
        self, query: BGPQuery, *variables: Variable
    ) -> list[tuple[Term, ...]]:
        rows, _ = self.execute(query)
        if not variables:
            variables = tuple(sorted(query.variables(), key=lambda v: v.name))
        return sorted({tuple(b[v] for v in variables) for b in rows})

    def ask(self, query: BGPQuery) -> bool:
        rows, _ = self.execute(query)
        return bool(rows)


def _decode(
    env: dict[Variable, np.ndarray],
    n: int,
    decode_many: Callable[[np.ndarray], list[Term]],
) -> list[Bindings]:
    """The ``n`` solutions of an id environment, as term bindings."""
    decoded = {var: decode_many(col) for var, col in env.items()}
    return [{var: terms[i] for var, terms in decoded.items()}
            for i in range(n)]
