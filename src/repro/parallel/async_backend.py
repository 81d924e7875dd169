"""Asynchronous, round-free execution of Algorithm 3 over the id-encoded
wire protocol.

The lock-step backends (:mod:`repro.parallel.driver`,
:mod:`repro.parallel.mp_backend`) advance all workers through global
rounds: nobody starts round n+1 until everyone finished round n, and the
barrier itself is the termination test.  Following the dynamic-data-
exchange design (Ajileye et al.), this module removes the barrier: a
worker reasons over each batch *as it arrives*, interleaving freely with
its peers, and the master detects global quiescence with Safra-style
sent/received counting (:class:`repro.parallel.termination.CountingTermination`)
instead of a barrier.

Everything on the wire is id-encoded: the master builds one base
:class:`~repro.rdf.dictionary.TermDictionary` over the input KB, each
worker extends it through a private :class:`~repro.rdf.dictionary.PartitionDictionary`
stripe, and batches travel as flat int64 ``(s, p, o)`` rows plus a
once-per-peer delta-dictionary for newly minted terms
(:class:`~repro.parallel.messages.EncodedBatch`).

Two executors share the protocol:

* :func:`run_async_inprocess` — workers as in-process objects, deliveries
  drained from one pending pool.  ``delivery="shuffle"`` pops that pool in
  seeded-random order, deliberately reordering message arrival — the
  deterministic vehicle for proving termination is delivery-order
  independent.  A :class:`~repro.parallel.faults.FaultPlan` can kill or
  freeze workers and drop/duplicate/delay batches deterministically.
* :func:`run_multiprocess_async` — one OS process per partition.  The
  master relays each produced batch the moment it arrives; workers block
  on their inbox, not on a round barrier.

Both executors are *supervised* (:mod:`repro.parallel.supervisor`): a
crashed, killed, or frozen worker surfaces as a typed
:class:`~repro.parallel.supervisor.WorkerFailure` instead of a silent
hang, and under ``degrade="recover"`` the master re-runs the lost node's
partition — from its input triples plus the replay of every batch the
master ever relayed to it (the counting-termination ledger records
exactly that) — on a fresh worker incarnation with a bumped *epoch*.
Epochs stamp every worker-originated message so stale messages from a
dead incarnation can never corrupt the ledger, and each incarnation mints
dictionary ids in its own stripe so a replacement can never re-issue an
id the dead worker already shipped for a different term.

Both executors are differentially tested against the serial fixpoint and
the lock-step oracle, with and without injected faults.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from dataclasses import dataclass
from typing import Sequence

from repro.datalog.ast import Rule
from repro.parallel.aggregate import RunOutput, encode_outputs, gather_rows
from repro.parallel.comm import ChannelPool
from repro.parallel.faults import FaultPlan
from repro.parallel.messages import (
    Adopt,
    Deliver,
    EncodedBatch,
    Finish,
    Heartbeat,
    OutputMsg,
    Produced,
    RemovalBatch,
    Stop,
)
from repro.parallel.routing import DataPartitionRouter, Router, RulePartitionRouter
from repro.parallel.stats import AsyncRunStats
from repro.parallel.supervisor import (
    ProcessSupervisor,
    SupervisionPolicy,
    WorkerFailure,
    parent_alive,
)
from repro.parallel.termination import CountingTermination
from repro.parallel.worker import PartitionWorker
from repro.rdf.dictionary import (
    PartitionDictionary,
    TermDictionary,
    lookup_rows,
)
from repro.rdf.graph import Graph
from repro.rdf.idstore import IdGraph
from repro.rdf.stores import sanitize_enabled
from repro.rdf.terms import Term, Variable
from repro.rdf.triple import Triple


def build_base_dictionary(
    partitions: Sequence[Graph],
    extra: Sequence[Graph] = (),
    rules: Sequence[Rule] = (),
) -> TermDictionary:
    """The shared base stripe: every term the master can see at setup,
    encoded once.  Pass the rule base too — rule atoms are the only other
    source of ground terms (head constants like class URIs), and seeding
    them means delta-dictionary traffic only carries terms that genuinely
    first exist at runtime."""
    d = TermDictionary()
    enc = d.encode
    for g in list(partitions) + list(extra):
        for t in g:
            enc(t.s)
            enc(t.p)
            enc(t.o)
    for r in rules:
        for atom in (*r.body, r.head):
            for term in atom:
                if not isinstance(term, Variable):
                    enc(term)
    return d


def _all_rules(
    rules_per_node: Sequence[Sequence[Rule]],
    rule_sets: Sequence[Sequence[Rule]] | None,
) -> list[Rule]:
    out: list[Rule] = []
    for rs in list(rules_per_node) + list(rule_sets or []):
        out.extend(rs)
    return out


def _make_router(
    router_kind: str,
    owner_table: dict | None,
    k: int,
    rule_sets: Sequence[Sequence[Rule]] | None,
) -> Router:
    if router_kind == "data":
        from repro.partitioning.base import TableOwner

        return DataPartitionRouter(TableOwner(k, owner_table or {}))
    return RulePartitionRouter(rule_sets or [])


class AsyncRunResult(RunOutput):
    """Output of an asynchronous run: the unioned KB (id rows, ``graph``
    decoded on first read — see :class:`~repro.parallel.aggregate.
    RunOutput`) plus wire accounting."""

    def __init__(
        self,
        dictionary: TermDictionary,
        store: IdGraph,
        stats: AsyncRunStats,
        det: CountingTermination,
        workers: Sequence[PartitionWorker] = (),
    ) -> None:
        super().__init__(None, dictionary, store, workers)
        self.stats = stats
        #: Final sent/consumed counters (exposed for the termination tests).
        self.forwarded = list(det.forwarded)
        self.consumed = list(det.consumed)


# -- in-process executor ------------------------------------------------------


def run_async_inprocess(
    partitions: Sequence[Graph],
    rules_per_node: Sequence[Sequence[Rule]],
    router_kind: str,
    owner_table: dict | None = None,
    rule_sets: Sequence[Sequence[Rule]] | None = None,
    schema_graphs: Sequence[Graph] = (),
    delivery: str = "fifo",
    seed: int = 0,
    max_messages: int = 1_000_000,
    seed_rule_terms: bool = True,
    faults: FaultPlan | None = None,
    degrade: str = "abort",
    max_retries: int = 2,
    store: str | None = None,
    memory_budget_bytes: int | None = None,
    sanitize: bool | None = None,
) -> AsyncRunResult:
    """Round-free run with in-process workers and controllable delivery.

    ``schema_graphs`` are the replicated schema triples: no worker holds
    them, they seed the base dictionary and join the result's rows.

    ``seed_rule_terms=True`` (default) puts the rule base's ground terms
    into the base dictionary, so delta messages carry only runtime-fresh
    terms; the delta round-trip tests pass ``False`` to force every rule
    constant through the delta path.

    ``delivery`` picks which *channel* — a (sender, dest) pair — delivers
    its oldest pending message next: ``"fifo"`` always the globally oldest
    send, ``"lifo"`` the newest channel activity first, ``"shuffle"`` a
    seeded-random channel each step.  Within a channel, order is always
    preserved: the wire protocol (like the ``multiprocessing`` queues and
    any MPI transport it stands in for) assumes FIFO channels — a delta-
    dictionary entry must not arrive after a row that needs it — while
    arrival order *across* channels is adversarial.  All delivery orders
    must (and do) reach the same fixpoint; the shuffle mode is the
    out-of-order test harness.

    ``faults`` schedules deterministic failures
    (:class:`~repro.parallel.faults.FaultPlan`): killed and frozen
    workers stall the counting ledger and surface as
    :class:`~repro.parallel.supervisor.WorkerFailure`; with
    ``degrade="recover"`` the executor re-runs the node from its input
    partition plus the replay of its relay ledger (at most
    ``max_retries`` recovery events per run).  Dropped batches are
    retransmitted from the same ledger; duplicated and delayed batches
    must be absorbed by receiver-side dedup and channel-FIFO alone.
    """
    if delivery not in ("fifo", "lifo", "shuffle"):
        raise ValueError(f"unknown delivery order {delivery!r}")
    if degrade not in ("abort", "recover"):
        raise ValueError(f'degrade must be "abort" or "recover", got {degrade!r}')
    k = len(partitions)
    if len(rules_per_node) != k:
        raise ValueError("rules_per_node must match partitions")
    plan = faults or FaultPlan()
    base = build_base_dictionary(
        partitions,
        extra=schema_graphs,
        rules=_all_rules(rules_per_node, rule_sets) if seed_rule_terms else (),
    )
    router = _make_router(router_kind, owner_table, k, rule_sets)
    # Each incarnation mints ids in its own stripe: worker i at epoch e
    # uses stripe i + e*k of k*(max_retries+1), so a replacement can never
    # re-issue an id its dead predecessor already shipped.
    stripes = k * (max_retries + 1)
    workers = [
        PartitionWorker(
            node_id=i,
            base=partitions[i],
            rules=rules_per_node[i],
            router=router,
            dictionary=PartitionDictionary(base, i, stripes),
            store=store,
            memory_budget_bytes=memory_budget_bytes,
            sanitize=sanitize,
        )
        for i in range(k)
    ]

    stats = AsyncRunStats(k=k)
    det = CountingTermination(k)
    rng = None
    if delivery == "shuffle":
        import random

        rng = random.Random(seed)
    pool = ChannelPool(delivery, rng)

    epoch = [0] * k
    alive = [True] * k
    frozen = [False] * k
    node_delivered = [0] * k
    #: Every batch ever forwarded to each node, in relay order — the
    #: ledger recovery replays and drop-retransmission draws from.
    relay_log: list[list] = [[] for _ in range(k)]
    channel_seq: dict[tuple[int, int], int] = {}
    #: Channel -> deliver nothing from it until `delivered` passes this.
    held: dict[tuple[int, int], int] = {}
    #: Dropped-by-fault batches awaiting ledger retransmission.
    lost: list = []
    delivered = 0
    retries_used = 0

    def _emit(batches) -> None:
        for b in batches:
            key = (b.sender, b.dest)
            seq = channel_seq.get(key, 0)
            channel_seq[key] = seq + 1
            det.record_forward(b.dest)
            stats.record_batch(b)
            relay_log[b.dest].append(b)
            fault = plan.channel_fault(key, seq)
            if fault is None:
                pool.emit(b)
            elif fault.action == "drop":
                lost.append(b)
            elif fault.action == "duplicate":
                # Two genuine wire copies: both counted, both consumed.
                pool.emit(b)
                det.record_forward(b.dest)
                stats.record_batch(b)
                relay_log[b.dest].append(b)
                pool.emit(b)
            else:  # delay: hold the whole channel, preserving its FIFO
                held[key] = delivered + max(0, fault.delay)
                pool.emit(b)

    def _eligible(key: tuple[int, int]) -> bool:
        dest = key[1]
        return alive[dest] and not frozen[dest] and held.get(key, 0) <= delivered

    def _revive(node: int) -> None:
        epoch[node] += 1
        alive[node] = True
        frozen[node] = False
        pool.discard_dest(node)
        lost[:] = [b for b in lost if b.dest != node]
        det.reset_node(node)
        replacement = PartitionWorker(
            node_id=node,
            base=partitions[node],
            rules=rules_per_node[node],
            router=router,
            dictionary=PartitionDictionary(
                base, node + epoch[node] * k, stripes
            ),
            epoch=epoch[node],
            store=store,
            memory_budget_bytes=memory_budget_bytes,
            sanitize=sanitize,
        )
        workers[node] = replacement
        boot = replacement.bootstrap()
        det.mark_bootstrapped(node)
        _emit(boot.outgoing)
        # Ledger replay: everything the master ever forwarded to this
        # node, in the original per-sender order (FIFO channels hold, so
        # delta-dictionary entries still precede the rows that need them).
        for b in list(relay_log[node]):
            det.record_forward(node)
            stats.retransmitted += 1
            result = replacement.step([b])
            det.record_delivery(node)
            _emit(result.outgoing)

    for w in workers:
        _emit(w.bootstrap().outgoing)
        det.mark_bootstrapped(w.node_id)

    while not det.quiescent():
        if delivered >= max_messages:
            raise RuntimeError(f"no termination after {max_messages} messages")
        batch = pool.pop_next(_eligible)
        if batch is None:
            if held:
                # Only held (delayed) channels remain deliverable: the
                # delay has run its course, release them.
                held.clear()
                continue
            redelivered = False
            for b in list(lost):
                if alive[b.dest] and not frozen[b.dest]:
                    # The ledger noticed forwarded > consumed; retransmit.
                    lost.remove(b)
                    stats.retransmitted += 1
                    pool.emit(b)
                    redelivered = True
            if redelivered:
                continue
            failed = [
                i for i in range(k) if not alive[i] or frozen[i]
            ]
            if not failed:  # pragma: no cover - invariant check
                raise RuntimeError("pool stalled but counters disagree")
            reason = "killed" if any(not alive[i] for i in failed) else "frozen"
            failure = WorkerFailure(
                failed,
                reason,
                forwarded=[det.forwarded[i] for i in failed],
                consumed=[det.consumed[i] for i in failed],
                epoch=max(epoch[i] for i in failed),
            )
            stats.record_failure(failure.record())
            if degrade != "recover" or retries_used >= max_retries:
                raise failure
            retries_used += 1
            stats.retries += 1
            for node in failed:
                _revive(node)
            continue
        dest = batch.dest
        if epoch[dest] == 0 and plan.kill_after.get(dest) == node_delivered[dest]:
            # Crash mid-processing: the message is consumed off the wire
            # but never acknowledged — exactly a worker dying in step().
            alive[dest] = False
            continue
        if epoch[dest] == 0 and plan.freeze_after.get(dest) == node_delivered[dest]:
            # Wedged, not dead: the message stays pending at channel head.
            frozen[dest] = True
            pool.push_front(batch)
            continue
        node_delivered[dest] += 1
        delivered += 1
        result = workers[dest].step([batch])
        det.record_delivery(dest)
        _emit(result.outgoing)

    _post_run_checks(det, workers, sanitize)
    dictionary, rows = gather_rows(workers, *schema_graphs)
    return AsyncRunResult(dictionary, rows, stats, det, workers)


def _post_run_checks(det, workers, sanitize) -> None:
    """With the sanitizer enabled, audit the run's end state: the Safra
    counting ledger must conserve (forwarded == consumed everywhere) and
    the workers' dictionary stripes must be pairwise disjoint — an id
    minted by two incarnations would silently merge unrelated terms."""
    if not sanitize_enabled(sanitize):
        return
    from repro.analysis.sanitize import check_ledger, check_stripe_disjointness

    check_ledger(det)
    check_stripe_disjointness([w.dictionary for w in workers])


# -- incremental (DRed) executor ----------------------------------------------


def run_apply_inprocess(
    partitions: Sequence[Graph],
    rules_per_node: Sequence[Sequence[Rule]],
    router_kind: str,
    adds: Sequence[Triple] = (),
    removes: Sequence[Triple] = (),
    owner_table: dict | None = None,
    rule_sets: Sequence[Sequence[Rule]] | None = None,
    schema_graphs: Sequence[Graph] = (),
    delivery: str = "fifo",
    seed: int = 0,
    max_messages: int = 1_000_000,
    store: str | None = None,
    memory_budget_bytes: int | None = None,
    sanitize: bool | None = None,
) -> AsyncRunResult:
    """Distributed delete-and-rederive over the id wire protocol.

    Materializes the partitions' closure, then maintains it under
    ``(adds, removes)`` with the DRed phases run cluster-wide:

    1. the master broadcasts the user retractions to *every* node as
       :class:`~repro.parallel.messages.RemovalBatch` rows
       (``retract_base=True``) — a row's replicas may live anywhere;
    2. each node runs its local overdeletion against its unmutated
       store and rebroadcasts the discovered cascade; the counting
       ledger detects quiescence exactly as for forward batches;
    3. every node finalizes — physical deletion, sent-dedup eviction,
       local rederivation and re-closure — and the restored rows drain
       through normal forward routing;
    4. the additions are broadcast and drained as an ordinary
       incremental load.

    Removal rows and their delta dictionaries travel the same wire as
    derivations, in the same per-node dictionary stripes.  Additions are
    broadcast rather than owner-routed — with rule partitioning every
    node holds the full data set, and with data partitioning the extra
    replicas only cost memory, never correctness (receiver dedup).

    Returns the final maintained KB (union of node outputs), equal to
    re-closing ``(base ∖ removes) ∪ adds`` from scratch.
    """
    if delivery not in ("fifo", "lifo", "shuffle"):
        raise ValueError(f"unknown delivery order {delivery!r}")
    k = len(partitions)
    if len(rules_per_node) != k:
        raise ValueError("rules_per_node must match partitions")
    adds = list(adds)
    removes = list(removes)
    base = build_base_dictionary(
        partitions,
        extra=[Graph(adds), Graph(removes), *schema_graphs],
        rules=_all_rules(rules_per_node, rule_sets),
    )
    router = _make_router(router_kind, owner_table, k, rule_sets)
    workers = [
        PartitionWorker(
            node_id=i,
            base=partitions[i],
            rules=rules_per_node[i],
            router=router,
            dictionary=PartitionDictionary(base, i, k),
            store=store,
            memory_budget_bytes=memory_budget_bytes,
            sanitize=sanitize,
        )
        for i in range(k)
    ]
    stats = AsyncRunStats(k=k)
    det = CountingTermination(k)
    rng = None
    if delivery == "shuffle":
        import random

        rng = random.Random(seed)
    pool = ChannelPool(delivery, rng)
    delivered = 0

    def _emit(batches) -> None:
        for b in batches:
            det.record_forward(b.dest)
            stats.record_batch(b)
            pool.emit(b)

    def _drain() -> None:
        nonlocal delivered
        while not det.quiescent():
            if delivered >= max_messages:
                raise RuntimeError(
                    f"no termination after {max_messages} messages")
            batch = pool.pop_next()
            if batch is None:  # pragma: no cover - invariant check
                raise RuntimeError("pool stalled but counters disagree")
            delivered += 1
            result = workers[batch.dest].step([batch])
            det.record_delivery(batch.dest)
            _emit(result.outgoing)

    # Initial closure.
    for w in workers:
        _emit(w.bootstrap().outgoing)
        det.mark_bootstrapped(w.node_id)
    _drain()

    # Overdeletion: broadcast the retractions, drain to quiescence,
    # then finalize every node and drain the restoration traffic.
    if removes:
        cols = lookup_rows(base, removes)
        _emit([
            RemovalBatch.from_columns(-1, dest, 0, cols, retract_base=True)
            for dest in range(k)
        ])
        _drain()
        for w in workers:
            _emit(w.finalize_removals().outgoing)
        _drain()

    # Additions: an ordinary incremental load.
    if adds:
        cols = lookup_rows(base, adds)
        _emit([
            EncodedBatch(-1, dest, 0, cols[0], cols[1], cols[2])
            for dest in range(k)
        ])
        _drain()

    _post_run_checks(det, workers, sanitize)
    dictionary, rows = gather_rows(workers, *schema_graphs)
    return AsyncRunResult(dictionary, rows, stats, det, workers)


# -- multiprocess executor ----------------------------------------------------


@dataclass
class _AsyncNodeConfig:
    """Everything one async worker process needs (picklable, spawn-safe)."""

    node_id: int
    k: int
    #: Total dictionary stripe count (k * (max_retries + 1)): worker i at
    #: epoch e mints in stripe i + e*k, so no incarnation ever reuses ids.
    stripes: int
    base_triples: list[Triple]
    rules: list[Rule]
    router_kind: str
    owner_table: dict | None
    rule_sets: list[list[Rule]] | None
    base_terms: list[Term]
    #: Store choice ("dense" / "run") and per-worker resident
    #: cap — adopted incarnations rebuild with the same budget.
    store: str | None = None
    memory_budget_bytes: int | None = None
    #: Runtime invariant checks (:mod:`repro.analysis.sanitize`) for every
    #: hosted worker's store; ``None`` defers to ``REPRO_SANITIZE``.
    sanitize: bool | None = None


def _make_logical_worker(cfg: _AsyncNodeConfig, epoch: int) -> PartitionWorker:
    base = TermDictionary.from_terms(cfg.base_terms)
    return PartitionWorker(
        node_id=cfg.node_id,
        base=Graph(cfg.base_triples),
        rules=cfg.rules,
        router=_make_router(cfg.router_kind, cfg.owner_table, cfg.k, cfg.rule_sets),
        dictionary=PartitionDictionary(
            base, cfg.node_id + epoch * cfg.k, cfg.stripes
        ),
        epoch=epoch,
        store=cfg.store,
        memory_budget_bytes=cfg.memory_budget_bytes,
        sanitize=cfg.sanitize,
    )


def _async_worker_main(
    cfg: _AsyncNodeConfig,
    inbox: mp.Queue,
    outbox: mp.Queue,
    heartbeat_interval: float,
) -> None:
    """Worker process loop — no rounds, hang-proof.

    Protocol (typed control messages, :mod:`repro.parallel.messages`):
      master -> worker: Deliver(batch) | Adopt(node, epoch, cfg)
                        | Finish() | Stop()
      worker -> master: Produced(node, epoch, batches, consumed)
                        | OutputMsg(node, epoch, triples)
                        | Heartbeat(node, epoch, consumed)
    Every Deliver yields exactly one Produced (possibly with zero batches)
    whose cumulative ``consumed`` count is the acknowledgement the
    master's termination counting relies on.  One process may host
    several *logical* workers: recovery adopts a dead peer's node here,
    re-seeded from its config and the master's relay ledger.

    The inbox wait is bounded: on every idle ``heartbeat_interval`` the
    worker checks that the master still exists (exiting instead of
    leaking an orphan if not) and heartbeats each hosted node.
    """
    parent = os.getppid()
    workers: dict[int, PartitionWorker] = {}
    consumed: dict[int, int] = {}
    epochs: dict[int, int] = {}

    def boot(node_cfg: _AsyncNodeConfig, epoch: int) -> None:
        w = _make_logical_worker(node_cfg, epoch)
        workers[node_cfg.node_id] = w
        consumed[node_cfg.node_id] = 0
        epochs[node_cfg.node_id] = epoch
        result = w.bootstrap()
        outbox.put(Produced(node_cfg.node_id, epoch, tuple(result.outgoing), 0))

    boot(cfg, 0)
    while True:
        try:
            msg = inbox.get(timeout=heartbeat_interval)
        except queue_mod.Empty:
            if not parent_alive(parent):
                return  # master died: exit instead of leaking an orphan
            for nid in workers:
                outbox.put(Heartbeat(nid, epochs[nid], consumed[nid]))
            continue
        if isinstance(msg, Stop):
            return
        if isinstance(msg, Finish):
            # Output *request*, not shutdown: recovery may still need us.
            for nid, w in workers.items():
                outbox.put(OutputMsg(nid, epochs[nid], tuple(w.output_graph())))
            continue
        if isinstance(msg, Adopt):
            boot(msg.config, msg.epoch)
            continue
        batch = msg.batch
        nid = batch.dest
        consumed[nid] += 1
        result = workers[nid].step([batch])
        outbox.put(Produced(nid, epochs[nid], tuple(result.outgoing), consumed[nid]))


def run_multiprocess_async(
    partitions: Sequence[Graph],
    rules_per_node: Sequence[Sequence[Rule]],
    router_kind: str,
    owner_table: dict | None = None,
    rule_sets: Sequence[Sequence[Rule]] | None = None,
    schema_graphs: Sequence[Graph] = (),
    max_messages: int = 1_000_000,
    start_method: str | None = None,
    idle_timeout: float = 120.0,
    seed_rule_terms: bool = True,
    degrade: str = "abort",
    max_retries: int = 2,
    supervision: SupervisionPolicy | None = None,
    store: str | None = None,
    memory_budget_bytes: int | None = None,
    sanitize: bool | None = None,
) -> AsyncRunResult:
    """Round-free execution across real processes.  The workers ship
    their outputs as term triples (``OutputMsg``); the master encodes
    them, with the ``schema_graphs``, into the same ``(dictionary,
    store)`` result the in-process executors gather.

    Same configuration surface as
    :func:`repro.parallel.mp_backend.run_multiprocess` (the lock-step
    differential oracle).  ``start_method=None`` uses the platform default
    (fork on Linux, spawn on macOS/Windows); both work — every shipped
    object is picklable and terms re-intern on arrival.

    Supervision (:class:`~repro.parallel.supervisor.SupervisionPolicy`,
    overridable wholesale via ``supervision``): worker liveness is folded
    into every blocking outbox wait, workers heartbeat on idle, and a
    crashed or silent worker raises a typed
    :class:`~repro.parallel.supervisor.WorkerFailure` naming the node.
    With ``degrade="recover"`` the master instead adopts the lost node
    onto a surviving process — round-robin over survivors — re-seeded
    from the node's spawn config plus a replay of every batch the master
    ever relayed to it (the counting ledger records exactly that), up to
    ``max_retries`` recovery events per run.
    """
    k = len(partitions)
    if len(rules_per_node) != k:
        raise ValueError("rules_per_node must match partitions")
    policy = supervision or SupervisionPolicy(
        degrade=degrade, max_retries=max_retries, idle_timeout=idle_timeout
    )
    base = build_base_dictionary(
        partitions,
        extra=schema_graphs,
        rules=_all_rules(rules_per_node, rule_sets) if seed_rule_terms else (),
    )
    base_terms = base.terms()
    stripes = k * (policy.max_retries + 1)
    ctx = mp.get_context(start_method)
    inboxes = [ctx.Queue() for _ in range(k)]
    outbox = ctx.Queue()

    cfgs: list[_AsyncNodeConfig] = []
    processes = []
    for i in range(k):
        cfg = _AsyncNodeConfig(
            node_id=i,
            k=k,
            stripes=stripes,
            base_triples=list(partitions[i]),
            rules=list(rules_per_node[i]),
            router_kind=router_kind,
            owner_table=dict(owner_table) if owner_table else None,
            rule_sets=[list(rs) for rs in rule_sets] if rule_sets else None,
            base_terms=base_terms,
            store=store,
            memory_budget_bytes=memory_budget_bytes,
            sanitize=sanitize,
        )
        cfgs.append(cfg)
        proc = ctx.Process(
            target=_async_worker_main,
            args=(cfg, inboxes[i], outbox, policy.heartbeat_interval),
        )
        proc.start()
        processes.append(proc)

    det = CountingTermination(k)
    stats = AsyncRunStats(k=k)
    sup = ProcessSupervisor(
        processes, policy, outstanding=det.outstanding, ledger=det.counts
    )
    epoch = [0] * k
    #: Logical node -> hosting process index (changes on adoption).
    route = list(range(k))
    #: The counting ledger's payload side: every batch relayed to each
    #: node, in relay order — what recovery replays.
    relay_log: list[list] = [[] for _ in range(k)]
    relayed = 0

    def relay(batch) -> None:
        nonlocal relayed
        if relayed >= max_messages:
            raise RuntimeError(f"no termination after {max_messages} messages")
        relayed += 1
        det.record_forward(batch.dest)
        stats.record_batch(batch)
        relay_log[batch.dest].append(batch)
        inboxes[route[batch.dest]].put(Deliver(batch))

    def recover(failure: WorkerFailure) -> None:
        """Adopt every node the failed process hosted onto survivors."""
        stats.retries += 1
        if policy.retry_backoff:
            time.sleep(policy.retry_backoff * stats.retries)
        if failure.process_index is not None:
            sup.mark_failed(failure.process_index)
        survivors = sup.live_process_indexes()
        if not survivors:
            raise WorkerFailure(
                failure.node_ids, "no-survivors", exitcode=failure.exitcode
            )
        for offset, node in enumerate(sorted(failure.node_ids)):
            target = survivors[(node + stats.retries + offset) % len(survivors)]
            epoch[node] += 1
            route[node] = target
            det.reset_node(node)
            sup.reassign(node, target)
            inboxes[target].put(Adopt(node, epoch[node], cfgs[node]))
            for batch in relay_log[node]:
                det.record_forward(node)
                stats.retransmitted += 1
                inboxes[target].put(Deliver(batch))

    try:
        outputs: dict[int, tuple] = {}
        finish_sent = False
        while True:
            if det.quiescent() and not finish_sent:
                for p in sup.live_process_indexes():
                    inboxes[p].put(Finish())
                finish_sent = True
            if finish_sent and len(outputs) == k:
                break
            try:
                msg = sup.get(outbox)
            except WorkerFailure as wf:
                stats.record_failure(wf.record())
                if (
                    policy.degrade != "recover"
                    or wf.reason == "idle"
                    or stats.retries >= policy.max_retries
                ):
                    raise
                recover(wf)
                # Any outputs gathered so far may predate the replayed
                # derivations; re-request everything once re-quiescent.
                outputs.clear()
                finish_sent = False
                continue
            if isinstance(msg, Produced):
                if msg.epoch < epoch[msg.node_id]:
                    continue  # stale incarnation: dead worker's leftovers
                # Relay first, then account the ack: quiescence is only
                # checked once this message's productions are in the
                # counters.
                for batch in msg.batches:
                    relay(batch)
                det.record_ack(msg.node_id, msg.consumed)
                det.mark_bootstrapped(msg.node_id)
            elif isinstance(msg, OutputMsg):
                if msg.epoch < epoch[msg.node_id]:
                    continue
                outputs[msg.node_id] = msg.triples

        for p in sup.live_process_indexes():
            inboxes[p].put(Stop())
        rows = encode_outputs(base, outputs.values(), *schema_graphs)
        return AsyncRunResult(base, rows, stats, det)
    finally:
        sup.shutdown()
