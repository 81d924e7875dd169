"""One partition's node loop (the per-node body of Algorithm 3).

A worker owns its base tuples (plus the full schema), its rule set (the
complete compiled set for data partitioning, a subset for rule
partitioning), and a router.  Two entry points:

* :meth:`PartitionWorker.bootstrap` — the first round: run the local
  reasoner to fixpoint over the base tuples.
* :meth:`PartitionWorker.step` — a subsequent round: ingest tuples received
  from other nodes, resume the fixpoint with them as the delta.

Both return a :class:`RoundResult` carrying the outgoing batches (already
routed and de-duplicated — a tuple is sent to a given destination at most
once per worker lifetime) and the measured reasoning time/work for the
round, which the simulated cluster turns into timelines.

Reasoning strategies (mirrors :class:`repro.owl.reasoner.HorstReasoner`):
``forward`` runs semi-naive throughout; ``backward`` runs the Jena-style
per-resource SLD materialization for the bootstrap round — the
super-linear-cost path Section VI analyzes — then semi-naive for the
incremental rounds (the hybrid shape of Jena's engine; incoming deltas are
small, so the bootstrap dominates, as in the paper's Fig 2 where reasoning
time dwarfs IO).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from repro.datalog.ast import Atom, Rule
from repro.datalog.backward import materialize_backward
from repro.datalog.columnar import ColumnarEngine, Columns
from repro.datalog.engine import EngineStats, SemiNaiveEngine
from repro.parallel.faults import maybe_crash
from repro.parallel.messages import EncodedBatch, Message, RemovalBatch, TupleBatch
from repro.parallel.routing import Router
from repro.rdf.dictionary import (
    PartitionDictionary,
    decode_rows,
    encode_rows,
    lookup_rows,
)
from repro.rdf.graph import Graph
from repro.rdf.idstore import IdGraph, member_mask
from repro.rdf.runstore import RunStore
from repro.rdf.terms import Term, Variable
from repro.rdf.triple import Triple
from repro.util.timing import Stopwatch

Strategy = Literal["forward", "backward"]

#: Pseudo-destination for coordinator-bound query answers.  Shares the
#: per-destination ship-once delta-dictionary bookkeeping with real peers
#: but can never collide with a node id (the same convention as
#: master-originated batches, which use ``sender=-1``).
QUERY_DEST = -1


def _concat_columns(parts: Sequence[Columns]) -> Columns:
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )


@dataclass
class RoundResult:
    """What one node did in one round."""

    node_id: int
    round_no: int
    outgoing: list[Message]
    derived: int
    received: int
    reasoning_time: float
    work: int

    @property
    def sent_tuples(self) -> int:
        return sum(len(b) for b in self.outgoing)


class PartitionWorker:
    """One node of the parallel system.

    >>> from repro.parallel.routing import BroadcastRouter
    >>> from repro.datalog.parser import parse_rules
    >>> from repro.rdf import Graph, URI, Triple
    >>> rules = parse_rules('''@prefix ex: <ex:>
    ... [t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]''')
    >>> g = Graph([Triple(URI("ex:1"), URI("ex:p"), URI("ex:2"))])
    >>> w = PartitionWorker(0, g, rules, BroadcastRouter(2))
    >>> result = w.bootstrap()
    >>> result.derived
    0
    """

    def __init__(
        self,
        node_id: int,
        base: Graph,
        rules: Sequence[Rule],
        router: Router,
        strategy: Strategy = "forward",
        schema: Graph | None = None,
        forward_received: bool = False,
        compile_rules: bool = True,
        dictionary: PartitionDictionary | None = None,
        epoch: int = 0,
        engine: str | None = None,
        store: str | None = None,
        memory_budget_bytes: int | None = None,
        sanitize: bool | None = None,
    ) -> None:
        self.node_id = node_id
        #: Incarnation number: 0 for the original worker, bumped each time
        #: supervision re-runs this node after a failure.  Consumed by the
        #: wire protocol (stale-message filtering) and the fault-injection
        #: point (replacements are immune to the injected crash).
        self.epoch = epoch
        #: Step calls so far — the deterministic trigger counter for the
        #: env-configured crash injection (see repro.parallel.faults).
        self._steps = 0
        self.graph = base.copy()
        if schema is not None:
            # Schema triples are replicated to every node (Algorithm 1
            # strips them from the partitioned data; rules are compiled so
            # they are rarely needed, but user rule sets may reference them).
            self.graph.update(iter(schema))
        self.rules = tuple(rules)
        #: Id-native columnar mode: the partition's KB lives as int64
        #: columns in an :class:`IdGraph` keyed by the partition
        #: dictionary.  Received ``EncodedBatch`` rows are canonicalized,
        #: deduplicated, reasoned over and routed without materializing a
        #: single ``Term``/``Triple`` object — decode happens once, at
        #: output gather.  Requires the id wire protocol (a dictionary)
        #: and the forward strategy.
        self.id_native = (
            engine == "columnar"
            and dictionary is not None
            and strategy == "forward"
        )
        #: Columnar store choice: "dense" (IdGraph) or "run" — the
        #: memory-budgeted compressed :class:`RunStore`; ``None`` derives
        #: it from whether a budget was given.  Recorded on the worker so
        #: supervision can rebuild adopted incarnations with the same
        #: storage and budget.
        # Imported lazily: the repro.analysis package imports repro.datalog.
        from repro.analysis.sanitize import make_store, store_kind

        self.store = store_kind(store, memory_budget_bytes)
        self.memory_budget_bytes = memory_budget_bytes
        #: Runtime-sanitizer switch (tri-state; None defers to
        #: REPRO_SANITIZE).  Recorded so supervision rebuilds adopted
        #: incarnations with the same checking.
        self.sanitize = sanitize
        if self.id_native:
            assert dictionary is not None
            self.engine = None
            self._columnar: ColumnarEngine | None = ColumnarEngine(
                self.rules, dictionary)
            self._idgraph: IdGraph | RunStore | None = make_store(
                self.store,
                capacity=len(self.graph),
                memory_budget_bytes=memory_budget_bytes,
                sanitize=sanitize,
                label=f"worker{node_id}-store",
                seed=node_id,
            )
            s_arr, p_arr, o_arr = encode_rows(
                dictionary, self.graph.spo_items())
            self._idgraph.add_rows(s_arr, p_arr, o_arr)
            #: The asserted rows (base partition + schema) in id space —
            #: DRed's rederivation keeps asserted-but-also-derivable rows
            #: alive from this set; user retractions remove from it.
            self._base_rows: IdGraph | None = IdGraph(capacity=len(s_arr))
            self._base_rows.add_rows(s_arr, p_arr, o_arr)
            #: Rows marked by the overdeletion phase but not yet
            #: physically deleted (see :meth:`finalize_removals`).
            self._overdeleted: IdGraph | None = IdGraph()
        else:
            #: Every partition runs the compiled kernels by default — the
            #: per-partition fixpoint is the hottest path in Algorithms 1-3.
            self.engine = SemiNaiveEngine(
                self.rules, compile_rules=compile_rules, engine=engine,
                store=store if engine == "columnar" else None,
                memory_budget_bytes=(
                    memory_budget_bytes if engine == "columnar" else None),
                sanitize=sanitize)
            self._columnar = None
            self._idgraph = None
            self._base_rows = None
            self._overdeleted = None
        #: Cumulative six-field engine counters across all rounds — what
        #: the driver merges into a KB's totals (the backward bootstrap
        #: reports only its scalar ``work``; its SLD counters are not
        #: semi-naive-comparable and stay out of this).
        self.engine_stats = EngineStats()
        self.router = router
        self.strategy: Strategy = strategy
        #: Re-route tuples received from peers (dedup-guarded).  Off for
        #: static partitioning (the sender already reached every owner);
        #: required when ownership can change mid-run (dynamic
        #: rebalancing), where an in-flight tuple may land on a node that
        #: is no longer the owner and must be forwarded onward.
        self.forward_received = forward_received
        self.round_no = 0
        #: When a dictionary is supplied the worker speaks the id-encoded
        #: wire protocol: fresh tuples are encoded once at the routing
        #: boundary, the sent-dedup and (where the router supports it)
        #: destination lookups key on int id-triples, and outgoing batches
        #: are :class:`EncodedBatch` rows plus a per-destination
        #: delta-dictionary of newly minted terms.
        self.dictionary = dictionary
        if dictionary is not None:
            bind = getattr(router, "bind_dictionary", None)
            if bind is not None and getattr(router, "_subject_owner", None) is None:
                bind(dictionary)
        #: Tuples already sent (to anyone) — each tuple is routed once.
        #: Term triples, or id rows when the dictionary is active.
        self._sent: set = set()
        #: Per destination: non-base ids whose delta entry already shipped.
        self._known_by_dest: dict[int, set[int]] = {}

    # -- rounds --------------------------------------------------------------

    def bootstrap(self) -> RoundResult:
        """Round 0: local fixpoint over the base tuples."""
        watch = Stopwatch()
        if self.id_native:
            assert self._columnar is not None and self._idgraph is not None
            fixpoint = self._columnar.run(self._idgraph)
            self.engine_stats.merge(fixpoint.stats)
            reasoning_time = watch.elapsed()
            return self._finish_round_rows(
                fixpoint.inferred, received=0,
                reasoning_time=reasoning_time, work=fixpoint.stats.work)
        if self.strategy == "backward":
            materialized, stats = materialize_backward(self.graph, self.rules)
            fresh = [t for t in materialized if t not in self.graph]
            self.graph = materialized
            work = stats.work
        else:
            assert self.engine is not None
            result = self.engine.run(self.graph)
            self.engine_stats.merge(result.stats)
            fresh = list(result.inferred)
            work = result.stats.work
        reasoning_time = watch.elapsed()
        return self._finish_round(fresh, received=0,
                                  reasoning_time=reasoning_time, work=work)

    def step(self, incoming: Iterable[Message]) -> RoundResult:
        """One communication round: ingest received batches (term-level or
        id-encoded), resume the fixpoint with them as the delta."""
        self._steps += 1
        maybe_crash(self.node_id, self.epoch, self._steps)
        if self.id_native:
            return self._step_rows(incoming)
        received: list[Triple] = []
        for batch in incoming:
            if isinstance(batch, RemovalBatch):
                raise RuntimeError(
                    "removal batches require an id-native columnar worker "
                    "(engine='columnar' with the id wire protocol)"
                )
            if isinstance(batch, EncodedBatch):
                if self.dictionary is None:
                    raise RuntimeError(
                        "received an EncodedBatch but this worker has no "
                        "dictionary to decode it"
                    )
                triples: Iterable[Triple] = batch.decode(self.dictionary)
            else:
                triples = batch.triples
            for t in triples:
                if t not in self.graph:
                    received.append(t)
        watch = Stopwatch()
        if received:
            result = self.engine.run(self.graph, delta=received)
            self.engine_stats.merge(result.stats)
            fresh = list(result.inferred)
            work = result.stats.work
        else:
            fresh = []
            work = 0
        reasoning_time = watch.elapsed()
        # With static ownership the sender already routed received tuples
        # to every owner, so only locally derived tuples are routed.  Under
        # dynamic rebalancing ownership may have moved since the sender
        # routed, so received tuples re-enter routing (dedup keeps this
        # from looping).
        routable = list(fresh)
        if self.forward_received:
            routable.extend(received)
        return self._finish_round(fresh, received=len(received),
                                  reasoning_time=reasoning_time, work=work,
                                  routable=routable)

    def _finish_round(
        self, fresh: Sequence[Triple], received: int,
        reasoning_time: float, work: int,
        routable: Sequence[Triple] | None = None,
    ) -> RoundResult:
        to_route = routable if routable is not None else fresh
        if self.dictionary is not None:
            batches: list[Message] = self._route_encoded(to_route)
        else:
            outgoing_map: dict[int, list[Triple]] = {}
            for t in to_route:
                if t in self._sent:
                    continue
                dests = self.router.destinations(self.node_id, t)
                if dests:
                    self._sent.add(t)
                    for d in dests:
                        outgoing_map.setdefault(d, []).append(t)
            batches = [
                TupleBatch.make(self.node_id, dest, self.round_no, triples)
                for dest, triples in sorted(outgoing_map.items())
            ]
        result = RoundResult(
            node_id=self.node_id,
            round_no=self.round_no,
            outgoing=batches,
            derived=len(fresh),
            received=received,
            reasoning_time=reasoning_time,
            work=work,
        )
        self.round_no += 1
        return result

    def _route_encoded(self, triples: Sequence[Triple]) -> list[Message]:
        """Id-encoded routing: each fresh tuple is encoded exactly once;
        dedup and (for owner-table routers) destination lookups are int
        probes; a term's serialization ships to a given peer at most once,
        in the batch's delta-dictionary."""
        d = self.dictionary
        assert d is not None
        enc = d.encode
        base_size = d.base_size
        by_id = (
            self.router.destinations_by_id
            if getattr(self.router, "_subject_owner", None) is not None
            else None
        )
        rows_by_dest: dict[int, list[tuple[int, int, int]]] = {}
        delta_by_dest: dict[int, list[tuple[int, Term]]] = {}
        for t in triples:
            row = (enc(t.s), enc(t.p), enc(t.o))
            if row in self._sent:
                continue
            if by_id is not None:
                dests = by_id(self.node_id, row[0], row[2], t)
            else:
                dests = self.router.destinations(self.node_id, t)
            if not dests:
                continue
            self._sent.add(row)
            for dest in dests:
                rows_by_dest.setdefault(dest, []).append(row)
                if row[0] >= base_size or row[1] >= base_size or row[2] >= base_size:
                    known = self._known_by_dest.setdefault(dest, set())
                    for tid, term in zip(row, t):
                        if tid >= base_size and tid not in known:
                            known.add(tid)
                            delta_by_dest.setdefault(dest, []).append((tid, term))
        return [
            EncodedBatch.make(
                self.node_id, dest, self.round_no, rows,
                delta_by_dest.get(dest, ()),
            )
            for dest, rows in sorted(rows_by_dest.items())
        ]

    # -- id-native rounds -------------------------------------------------------

    def _step_rows(self, incoming: Iterable[Message]) -> RoundResult:
        """Id-native :meth:`step`: batches land as id columns, are
        canonicalized (two peers may have minted different ids for the same
        runtime term), membership-filtered against the columnar store, and
        fed to the columnar fixpoint — no term objects anywhere.

        The ``received`` count keeps the term path's semantics exactly:
        each incoming row is tested against the *pre-step* store, so a row
        arriving in two batches in the same round is counted twice, as the
        term path's per-triple graph test does.
        """
        d = self.dictionary
        idg = self._idgraph
        columnar = self._columnar
        assert d is not None and idg is not None and columnar is not None
        parts: list[Columns] = []
        removals: list[RemovalBatch] = []
        received = 0
        for batch in incoming:
            if isinstance(batch, RemovalBatch):
                removals.append(batch)
                continue
            if isinstance(batch, EncodedBatch):
                if batch.delta:
                    d.apply_delta(batch.delta)
                s = d.canonical_ids(batch.s_ids)
                p = d.canonical_ids(batch.p_ids)
                o = d.canonical_ids(batch.o_ids)
            else:
                triples = batch.triples
                s = d.encode_many(t.s for t in triples)
                p = d.encode_many(t.p for t in triples)
                o = d.encode_many(t.o for t in triples)
            if len(s) == 0:
                continue
            keep = ~idg.contains_rows(s, p, o)
            fresh_count = int(keep.sum())
            if fresh_count:
                parts.append((s[keep], p[keep], o[keep]))
                received += fresh_count
        watch = Stopwatch()
        extra: list[Message] = []
        work = 0
        if removals:
            extra, taken, od_work = self._ingest_removals(removals)
            received += taken
            work += od_work
        if parts:
            delta = _concat_columns(parts)
            fixpoint = columnar.run(idg, delta)
            self.engine_stats.merge(fixpoint.stats)
            fresh = fixpoint.inferred
            work += fixpoint.stats.work
        else:
            delta = None
            empty = np.empty(0, dtype=np.int64)
            fresh = (empty, empty, empty)
        reasoning_time = watch.elapsed()
        routable = fresh
        if self.forward_received and delta is not None:
            routable = _concat_columns([fresh, delta])
        return self._finish_round_rows(fresh, received=received,
                                       reasoning_time=reasoning_time,
                                       work=work, routable=routable,
                                       extra_outgoing=extra)

    def _finish_round_rows(
        self, fresh: Columns, received: int,
        reasoning_time: float, work: int,
        routable: Columns | None = None,
        extra_outgoing: list[Message] | None = None,
    ) -> RoundResult:
        rows = routable if routable is not None else fresh
        outgoing = self._route_rows(rows)
        if extra_outgoing:
            outgoing = extra_outgoing + outgoing
        result = RoundResult(
            node_id=self.node_id,
            round_no=self.round_no,
            outgoing=outgoing,
            derived=len(fresh[0]),
            received=received,
            reasoning_time=reasoning_time,
            work=work,
        )
        self.round_no += 1
        return result

    def _route_rows(self, rows: Columns) -> list[Message]:
        """Id-native routing: the hot path is two int dict probes per row
        (:meth:`DataPartitionRouter.destinations_by_id_cached`); a row's
        terms are decoded only on a cold cache (a term first seen this
        round) or for a router with no id tables at all."""
        d = self.dictionary
        assert d is not None
        base_size = d.base_size
        router = self.router
        warm = getattr(router, "_subject_owner", None) is not None
        cached = getattr(router, "destinations_by_id_cached", None) if warm else None
        by_id = getattr(router, "destinations_by_id", None) if warm else None
        rows_by_dest: dict[int, list[tuple[int, int, int]]] = {}
        delta_by_dest: dict[int, list[tuple[int, Term]]] = {}
        sent = self._sent
        for s, p, o in zip(rows[0].tolist(), rows[1].tolist(), rows[2].tolist()):
            row = (s, p, o)
            if row in sent:
                continue
            dests = cached(self.node_id, s, o) if cached is not None else None
            if dests is None:
                t = Triple(d.decode(s), d.decode(p), d.decode(o))
                if by_id is not None:
                    dests = by_id(self.node_id, s, o, t)
                else:
                    dests = router.destinations(self.node_id, t)
            if not dests:
                continue
            sent.add(row)
            for dest in dests:
                rows_by_dest.setdefault(dest, []).append(row)
                if s >= base_size or p >= base_size or o >= base_size:
                    known = self._known_by_dest.setdefault(dest, set())
                    for tid in row:
                        if tid >= base_size and tid not in known:
                            known.add(tid)
                            delta_by_dest.setdefault(dest, []).append(
                                (tid, d.decode(tid)))
        return [
            EncodedBatch.make(
                self.node_id, dest, self.round_no, dest_rows,
                delta_by_dest.get(dest, ()),
            )
            for dest, dest_rows in sorted(rows_by_dest.items())
        ]

    # -- distributed query answering (id-native only) ----------------------------

    def begin_query_session(self) -> None:
        """Reset the ship-once delta bookkeeping for coordinator-bound
        query answers.  Each :class:`~repro.parallel.query.
        DistributedQueryEngine` gather starts from a blank coordinator
        dictionary, so the first answers of a session must re-ship every
        non-base result id's term."""
        self._known_by_dest.pop(QUERY_DEST, None)

    def answer_pattern(
        self,
        pattern: Atom,
        bound_ids: Mapping[int, np.ndarray] | None = None,
        delta: Sequence[tuple[int, Term]] = (),
    ) -> tuple[EncodedBatch, int]:
        """Local matches for one triple pattern, as an id-encoded batch —
        the scatter half of the distributed query fast path.

        ``delta`` registers coordinator-shipped ``(id, term)`` pairs so
        the ``bound_ids`` semi-join sets (pattern position -> candidate
        ids in the coordinator's space) translate into this worker's id
        space.  The smallest set is pushed *into* the index probe — one
        batched range lookup over its candidates — and the rest filter
        the surfaced rows by sorted-set membership, so only rows that can
        still join at the coordinator are shipped back.  Result ids
        outside the base stripe travel with a delta-dictionary entry at
        most once per query session (:meth:`begin_query_session`).

        Returns ``(batch, probes)``: ``probes`` counts the candidate rows
        the index surfaced before any filtering, the same work unit the
        term-level scatter reports.
        """
        if not self.id_native:
            raise RuntimeError(
                "answer_pattern requires an id-native columnar worker "
                "(engine='columnar' with the id wire protocol)")
        d = self.dictionary
        idg = self._idgraph
        assert d is not None and idg is not None
        if delta:
            d.apply_delta(delta)
        empty = np.empty(0, dtype=np.int64)

        def batch_of(s: np.ndarray, p: np.ndarray, o: np.ndarray,
                     probes: int) -> tuple[EncodedBatch, int]:
            out_delta: list[tuple[int, Term]] = []
            base_size = d.base_size
            nonbase = np.concatenate(
                [s[s >= base_size], p[p >= base_size], o[o >= base_size]])
            if len(nonbase):
                known = self._known_by_dest.setdefault(QUERY_DEST, set())
                for tid in np.unique(nonbase).tolist():
                    if tid not in known:
                        known.add(tid)
                        out_delta.append((tid, d.decode(tid)))
            return (
                EncodedBatch(self.node_id, QUERY_DEST, self.round_no,
                             s, p, o, tuple(out_delta)),
                probes,
            )

        # Constant positions: a term this partition's dictionary has
        # never seen cannot occur in its store.
        const_items: list[tuple[int, int]] = []
        var_first: dict[Variable, int] = {}
        dup_checks: list[tuple[int, int]] = []
        for pos, term in enumerate(pattern):
            if isinstance(term, Variable):
                if term in var_first:
                    dup_checks.append((pos, var_first[term]))
                else:
                    var_first[term] = pos
            else:
                tid = d.get(term)
                if tid is None:
                    return batch_of(empty, empty, empty, 0)
                const_items.append((pos, tid))

        # Semi-join sets, translated to local ids.  Sets stay sorted
        # (np.unique) for the membership filter below.
        sets: dict[int, np.ndarray] = {}
        for pos, ids in (bound_ids or {}).items():
            sets[pos] = np.unique(
                d.canonical_ids(np.asarray(ids, dtype=np.int64)))

        if sets:
            anchor_pos = min(sets, key=lambda pos: len(sets[pos]))
            anchor = sets.pop(anchor_pos)
            if len(anchor) == 0:
                return batch_of(empty, empty, empty, 0)
            items = [(anchor_pos, anchor)] + [
                (pos, np.full(len(anchor), tid, dtype=np.int64))
                for pos, tid in const_items
            ]
        elif const_items:
            items = [(pos, np.asarray([tid], dtype=np.int64))
                     for pos, tid in const_items]
        else:
            items = []

        if items:
            items.sort(key=lambda item: item[0])
            vals, reps = idg.probe(
                tuple(pos for pos, _col in items),
                tuple(col for _pos, col in items),
            )
            probes = len(reps)
        else:
            vals = idg.columns()
            probes = len(vals[0])
        if len(vals[0]) and (sets or dup_checks):
            mask = np.ones(len(vals[0]), dtype=bool)
            for pos, members in sets.items():
                mask &= member_mask(members, vals[pos])
            for pos, first in dup_checks:
                mask &= vals[pos] == vals[first]
            vals = (vals[0][mask], vals[1][mask], vals[2][mask])
        return batch_of(vals[0], vals[1], vals[2], probes)

    @property
    def store_version(self) -> int:
        """The columnar store's monotone row-set version (id-native only)
        — the serving tier's result-cache key: it moves exactly when the
        store's logical row set changes."""
        if self._idgraph is None:
            raise RuntimeError("store_version requires an id-native worker")
        return self._idgraph.version

    def apply_closure_delta(
        self,
        adds: Iterable[Triple] = (),
        removes: Iterable[Triple] = (),
    ) -> tuple[int, int]:
        """Edit the local closure store directly (the serving tier's
        update propagation: the coordinator runs DRed over the
        authoritative KB and pushes the *net* closure delta here).

        ``adds`` are encoded (minting local ids as needed) and inserted;
        ``removes`` are looked up without minting — a term this worker's
        dictionary has never seen cannot occur in its store, so such rows
        are skipped.  Returns ``(rows added, rows removed)``; the store's
        version counter moves iff the row set changed, which is what
        invalidates version-keyed result caches.
        """
        if not self.id_native:
            raise RuntimeError(
                "apply_closure_delta requires an id-native columnar worker")
        d = self.dictionary
        idg = self._idgraph
        assert d is not None and idg is not None
        removed = idg.delete_rows(
            *lookup_rows(d, ((t.s, t.p, t.o) for t in removes)))
        fresh = idg.add_rows(
            *encode_rows(d, ((t.s, t.p, t.o) for t in adds)))
        return len(fresh[0]), removed

    # -- distributed DRed (id-native only) --------------------------------------

    def _ingest_removals(
        self, batches: Sequence[RemovalBatch]
    ) -> tuple[list[Message], int, int]:
        """DRed phase 1, this node's share: canonicalize the received
        removal rows, drop user-retracted rows from the asserted base,
        run the overdeletion fixpoint against the **unmutated** local
        store (nothing is physically deleted until
        :meth:`finalize_removals`), and broadcast the locally discovered
        cascade to every peer.  Overdeletions travel by *broadcast*, not
        ownership: a derived row's replicas may live on any node that
        ever derived or received it, and all of them must mark it.
        Receiver-side dedup (rows already in the local overdeleted set
        are dropped) makes the echo converge.

        Returns ``(outgoing broadcasts, rows newly marked from the
        batches, overdeletion work)``.
        """
        d = self.dictionary
        idg = self._idgraph
        columnar = self._columnar
        over = self._overdeleted
        if not self.id_native:
            raise RuntimeError(
                "removal batches require an id-native columnar worker "
                "(engine='columnar' with the id wire protocol)"
            )
        assert (d is not None and idg is not None and columnar is not None
                and over is not None and self._base_rows is not None)
        from repro.datalog import incremental

        parts: list[Columns] = []
        taken = 0
        for batch in batches:
            if batch.delta:
                d.apply_delta(batch.delta)
            s = d.canonical_ids(batch.s_ids)
            p = d.canonical_ids(batch.p_ids)
            o = d.canonical_ids(batch.o_ids)
            if len(s) == 0:
                continue
            if batch.retract_base:
                self._base_rows.delete_rows(s, p, o)
            fresh = idg.contains_rows(s, p, o) & ~over.contains_rows(s, p, o)
            taken += int(fresh.sum())
            parts.append((s, p, o))
        if not parts:
            return [], 0, 0
        seed = _concat_columns(parts)
        stats = EngineStats()
        cascade = incremental.overdelete_id(columnar, idg, seed, over, stats)
        self.engine_stats.merge(stats)
        return self._broadcast_removals(cascade), taken, stats.work

    def _broadcast_removals(self, rows: Columns) -> list[Message]:
        """One :class:`RemovalBatch` per peer (``retract_base=False`` —
        a propagated cascade never touches anyone's asserted base).  The
        delta-dictionary bookkeeping mirrors :meth:`_route_rows`: a peer
        may be told to delete a row whose terms it has never decoded."""
        if len(rows[0]) == 0:
            return []
        d = self.dictionary
        assert d is not None
        base_size = d.base_size
        k = getattr(self.router, "k", None)
        assert k is not None, "removal broadcast needs a router with .k"
        row_list = list(zip(rows[0].tolist(), rows[1].tolist(),
                            rows[2].tolist()))
        out: list[Message] = []
        for dest in range(k):
            if dest == self.node_id:
                continue
            delta: list[tuple[int, Term]] = []
            known = self._known_by_dest.setdefault(dest, set())
            for row in row_list:
                for tid in row:
                    if tid >= base_size and tid not in known:
                        known.add(tid)
                        delta.append((tid, d.decode(tid)))
            out.append(RemovalBatch.from_columns(
                self.node_id, dest, self.round_no, rows, delta))
        return out

    def finalize_removals(self) -> RoundResult:
        """DRed phases 2-4, this node's share — called by the master
        once the cluster-wide overdeletion has reached quiescence (the
        counting ledger drained with no removal batch in flight):

        * physically delete the overdeleted rows from the local store;
        * evict them from the sent-dedup — every peer deleted its copy
          too, so a row restored here must be allowed to re-ship;
        * rederive survivors (still-asserted rows, one-step derivable
          rows) from the local remnant and re-close over them;
        * route the restored rows exactly like fresh derivations — the
          subsequent normal drain restores the cross-node closure the
          same way the original fixpoint built it.
        """
        idg = self._idgraph
        columnar = self._columnar
        over = self._overdeleted
        if not self.id_native:
            raise RuntimeError(
                "finalize_removals requires an id-native columnar worker")
        assert (idg is not None and columnar is not None and over is not None
                and self._base_rows is not None)
        from repro.datalog import incremental

        watch = Stopwatch()
        empty = np.empty(0, dtype=np.int64)
        fresh: Columns = (empty, empty, empty)
        stats = EngineStats()
        if len(over):
            o_s, o_p, o_o = over.columns()
            sent = self._sent
            for row in zip(o_s.tolist(), o_p.tolist(), o_o.tolist()):
                sent.discard(row)
            seed = incremental.rederive_id(
                columnar, idg, over, self._base_rows, stats)
            if len(seed):
                fixpoint = columnar.run(idg, delta=seed.columns())
                stats.merge(fixpoint.stats)
                fresh = _concat_columns([seed.columns(), fixpoint.inferred])
            self._overdeleted = IdGraph()
            self.engine_stats.merge(stats)
        reasoning_time = watch.elapsed()
        return self._finish_round_rows(
            fresh, received=0, reasoning_time=reasoning_time,
            work=stats.work)

    # -- results ---------------------------------------------------------------

    def output_graph(self) -> Graph:
        """This node's final KB (base + received + inferred).  The
        id-native worker decodes its columnar store here — the single
        id -> term materialization point of a run."""
        if self.id_native:
            assert self.dictionary is not None and self._idgraph is not None
            return Graph(
                decode_rows(self.dictionary, *self._idgraph.columns()))
        return self.graph
