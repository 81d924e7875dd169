"""One partition's node loop (the per-node body of Algorithm 3).

A worker owns its base tuples, its rule set (the complete compiled set
for data partitioning, a subset for rule partitioning), and a router.
Two entry points:

* :meth:`PartitionWorker.bootstrap` — the first round: run the local
  reasoner to fixpoint over the base tuples.
* :meth:`PartitionWorker.step` — a subsequent round: ingest tuples received
  from other nodes, resume the fixpoint with them as the delta.

Both return a :class:`RoundResult` carrying the outgoing batches (already
routed and de-duplicated — a tuple is sent to a given destination at most
once per worker lifetime) and the measured reasoning time/work for the
round, which the simulated cluster turns into timelines.

The partition's KB lives as int64 columns in an id store keyed by the
worker's :class:`~repro.rdf.dictionary.PartitionDictionary`; batches in
and out are :class:`~repro.parallel.messages.EncodedBatch` rows.  Received
rows are canonicalized, deduplicated, reasoned over and routed without
materializing a ``Term``/``Triple`` object — terms appear only where a
router has no id table for a row, and in :meth:`PartitionWorker.
output_graph`, the decoded view.

Reasoning strategies (mirrors :class:`repro.owl.reasoner.HorstReasoner`):
``forward`` runs the columnar semi-naive fixpoint throughout; ``backward``
runs the Jena-style per-resource SLD materialization for the bootstrap
round — the super-linear-cost path Section VI analyzes — then the
columnar fixpoint for the incremental rounds (the hybrid shape of Jena's
engine; incoming deltas are small, so the bootstrap dominates, as in the
paper's Fig 2 where reasoning time dwarfs IO).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from repro.datalog import incremental
from repro.datalog.ast import Atom, Rule
from repro.datalog.backward import materialize_backward
from repro.datalog.columnar import ColumnarEngine, Columns
from repro.datalog.engine import EngineStats
from repro.datalog.join import compile_atom, extend
from repro.parallel.faults import maybe_crash
from repro.parallel.messages import EncodedBatch, Message, RemovalBatch
from repro.parallel.routing import Router
from repro.rdf.dictionary import (
    PartitionDictionary,
    decode_rows,
    encode_rows,
    lookup_rows,
)
from repro.rdf.graph import Graph
from repro.rdf.idstore import IdGraph, concat_columns, member_mask
from repro.rdf.runstore import RunStore
from repro.rdf.stores import make_store
from repro.rdf.terms import Term, Variable
from repro.rdf.triple import Triple
from repro.util.timing import Stopwatch

Strategy = Literal["forward", "backward"]

#: Pseudo-destination for coordinator-bound query answers.  Shares the
#: per-destination ship-once delta-dictionary bookkeeping with real peers
#: but can never collide with a node id (the same convention as
#: master-originated batches, which use ``sender=-1``).
QUERY_DEST = -1


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

    ``dictionary`` is this node's stripe over the cluster's shared base
    dictionary — required, because ids are what workers exchange: a
    private per-worker dictionary would be silently wrong the moment two
    workers traded a row.

    >>> from repro.parallel.routing import BroadcastRouter
    >>> from repro.datalog.parser import parse_rules
    >>> from repro.rdf import Graph, URI, Triple
    >>> from repro.rdf.dictionary import PartitionDictionary, TermDictionary
    >>> rules = parse_rules('''@prefix ex: <ex:>
    ... [t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]''')
    >>> g = Graph([Triple(URI("ex:1"), URI("ex:p"), URI("ex:2"))])
    >>> d = PartitionDictionary(TermDictionary(), 0, 2)
    >>> w = PartitionWorker(0, g, rules, BroadcastRouter(2), d)
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
        dictionary: PartitionDictionary,
        strategy: Strategy = "forward",
        epoch: int = 0,
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
        self.rules = tuple(rules)
        #: Fresh rows are routed by id: the sent-dedup and (where the
        #: router supports it) destination lookups key on int id-triples,
        #: and a term minted here ships to a given peer once, in a batch's
        #: delta-dictionary.
        self.dictionary = dictionary
        self._columnar = ColumnarEngine(self.rules, dictionary)
        #: ``store``: "dense" (IdGraph) or "run" — the memory-budgeted
        #: compressed :class:`RunStore`; ``None`` derives it from whether
        #: a budget was given.  ``sanitize`` (None defers to
        #: REPRO_SANITIZE) selects the runtime-checked subclasses.
        self._idgraph: IdGraph | RunStore = make_store(
            store,
            capacity=len(base),
            memory_budget_bytes=memory_budget_bytes,
            sanitize=sanitize,
            label=f"worker{node_id}-store",
            seed=node_id,
        )
        s_arr, p_arr, o_arr = encode_rows(dictionary, base.spo_items())
        self._idgraph.add_rows(s_arr, p_arr, o_arr)
        #: The asserted rows (the base partition) in id space — DRed's
        #: rederivation keeps asserted-but-also-derivable rows alive from
        #: this set; user retractions remove from it.
        self._base_rows = IdGraph(capacity=len(s_arr))
        self._base_rows.add_rows(s_arr, p_arr, o_arr)
        #: Rows marked by the overdeletion phase but not yet physically
        #: deleted (see :meth:`finalize_removals`).
        self._overdeleted = IdGraph()
        #: Cumulative six-field engine counters across all rounds — what
        #: the driver merges into a KB's totals (the backward bootstrap
        #: reports only its scalar ``work``; its SLD counters are not
        #: semi-naive-comparable and stay out of this).
        self.engine_stats = EngineStats()
        self.router = router
        self.strategy: Strategy = strategy
        self.round_no = 0
        bind = getattr(router, "bind_dictionary", None)
        if bind is not None and getattr(router, "_subject_owner", None) is None:
            bind(dictionary)
        #: Id rows already sent (to anyone) — each row is routed once.
        self._sent: set[tuple[int, int, int]] = set()
        #: Per destination: non-base ids whose delta entry already shipped.
        self._known_by_dest: dict[int, set[int]] = {}

    # -- rounds --------------------------------------------------------------

    def bootstrap(self) -> RoundResult:
        """Round 0: local fixpoint over the base tuples."""
        watch = Stopwatch()
        if self.strategy == "backward":
            # A detour through terms, until ROADMAP item 7 ports
            # datalog/backward.py onto the id store: the SLD driver walks
            # a term Graph, so decode, materialize, encode what is new.
            materialized, stats = materialize_backward(
                self.output_graph(), self.rules)
            fresh = self._idgraph.add_rows(
                *encode_rows(self.dictionary, materialized.spo_items()))
            work = stats.work
        else:
            fixpoint = self._columnar.run(self._idgraph)
            self.engine_stats.merge(fixpoint.stats)
            fresh = fixpoint.inferred
            work = fixpoint.stats.work
        return self._finish_round(fresh, received=0,
                                  reasoning_time=watch.elapsed(), work=work)

    def step(self, incoming: Iterable[Message]) -> RoundResult:
        """One communication round: batches land as id columns, are
        canonicalized (two peers may have minted different ids for the same
        runtime term), membership-filtered against the store, and fed to
        the columnar fixpoint as the delta — no term objects anywhere.

        Each incoming row is tested against the *pre-step* store, so a row
        arriving in two batches in the same round counts twice in
        ``received``.  The sender already routed received rows to every
        owner, so only locally derived rows are routed onward.
        """
        self._steps += 1
        maybe_crash(self.node_id, self.epoch, self._steps)
        d = self.dictionary
        idg = self._idgraph
        parts: list[Columns] = []
        removals: list[RemovalBatch] = []
        received = 0
        for batch in incoming:
            # RemovalBatch first: isinstance matches its parent too.
            if isinstance(batch, RemovalBatch):
                removals.append(batch)
                continue
            if batch.delta:
                d.apply_delta(batch.delta)
            s = d.canonical_ids(batch.s_ids)
            p = d.canonical_ids(batch.p_ids)
            o = d.canonical_ids(batch.o_ids)
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
        fresh: Columns = concat_columns([])
        if parts:
            fixpoint = self._columnar.run(idg, concat_columns(parts))
            self.engine_stats.merge(fixpoint.stats)
            fresh = fixpoint.inferred
            work += fixpoint.stats.work
        return self._finish_round(fresh, received=received,
                                  reasoning_time=watch.elapsed(),
                                  work=work, extra_outgoing=extra)

    def _finish_round(
        self, fresh: Columns, received: int,
        reasoning_time: float, work: int,
        extra_outgoing: Sequence[Message] = (),
    ) -> RoundResult:
        result = RoundResult(
            node_id=self.node_id,
            round_no=self.round_no,
            outgoing=[*extra_outgoing, *self._route(fresh)],
            derived=len(fresh[0]),
            received=received,
            reasoning_time=reasoning_time,
            work=work,
        )
        self.round_no += 1
        return result

    def _route(self, rows: Columns) -> list[Message]:
        """Route fresh rows: the hot path is two int dict probes per row
        (:meth:`DataPartitionRouter.destinations_by_id_cached`); a row's
        terms are decoded only on a cold cache (a term first seen this
        round) or for a router with no id tables at all."""
        d = self.dictionary
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

    # -- distributed query answering ---------------------------------------------

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
        d = self.dictionary
        idg = self._idgraph
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

        # Semi-join sets, translated to local ids.  Sets stay sorted
        # (np.unique) for the membership filter below.
        sets: dict[int, np.ndarray] = {}
        for pos, ids in (bound_ids or {}).items():
            sets[pos] = np.unique(
                d.canonical_ids(np.asarray(ids, dtype=np.int64)))
        # The smallest set is the anchor: a one-column environment the
        # join step pushes into the index probe.
        env: dict[Variable, np.ndarray] = {}
        n_env = 1
        terms = tuple(pattern)
        if sets:
            anchor_pos = min(sets, key=lambda pos: len(sets[pos]))
            anchor_var = terms[anchor_pos]
            if not isinstance(anchor_var, Variable):
                raise ValueError(
                    f"semi-join set at constant position {anchor_pos} "
                    f"of {pattern!r}")
            env[anchor_var] = sets.pop(anchor_pos)
            n_env = len(env[anchor_var])
        # A constant this partition's dictionary has never seen cannot
        # occur in its store.
        compiled = compile_atom(pattern, env, d.get)
        if compiled is None or n_env == 0:
            return batch_of(empty, empty, empty, 0)
        env, n, probes = extend(idg, compiled, env, n_env)
        const = dict(compiled.consts)
        cols = [
            env[t] if isinstance(t, Variable)
            else np.full(n, const[pos], dtype=np.int64)
            for pos, t in enumerate(terms)
        ]
        if n and sets:
            mask = np.ones(n, dtype=bool)
            for pos, members in sets.items():
                mask &= member_mask(members, cols[pos])
            cols = [col[mask] for col in cols]
        return batch_of(cols[0], cols[1], cols[2], probes)

    @property
    def store_version(self) -> int:
        """The store's monotone row-set version — the serving tier's
        result-cache key: it moves exactly when the store's logical row
        set changes."""
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
        d = self.dictionary
        idg = self._idgraph
        removed = idg.delete_rows(
            *lookup_rows(d, ((t.s, t.p, t.o) for t in removes)))
        fresh = idg.add_rows(
            *encode_rows(d, ((t.s, t.p, t.o) for t in adds)))
        return len(fresh[0]), removed

    # -- distributed DRed --------------------------------------------------------

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
        seed = concat_columns(parts)
        stats = EngineStats()
        cascade = incremental.overdelete_id(columnar, idg, seed, over, stats)
        self.engine_stats.merge(stats)
        return self._broadcast_removals(cascade), taken, stats.work

    def _broadcast_removals(self, rows: Columns) -> list[Message]:
        """One :class:`RemovalBatch` per peer (``retract_base=False`` —
        a propagated cascade never touches anyone's asserted base).  The
        delta-dictionary bookkeeping mirrors :meth:`_route`: a peer
        may be told to delete a row whose terms it has never decoded."""
        if len(rows[0]) == 0:
            return []
        d = self.dictionary
        base_size = d.base_size
        k = self.router.k
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
                fresh = concat_columns([seed.columns(), fixpoint.inferred])
            self._overdeleted = IdGraph()
            self.engine_stats.merge(stats)
        return self._finish_round(
            fresh, received=0, reasoning_time=watch.elapsed(),
            work=stats.work)

    # -- results ---------------------------------------------------------------

    def output_rows(self) -> Columns:
        """This node's final KB (base + received + inferred) as the
        store's id columns, in this worker's dictionary — what the
        driver's aggregation gathers."""
        return self._idgraph.columns()

    def output_graph(self) -> Graph:
        """:meth:`output_rows` decoded into a term :class:`Graph` — a
        fresh snapshot per call; no executor is on this path."""
        return Graph(decode_rows(self.dictionary, *self.output_rows()))
