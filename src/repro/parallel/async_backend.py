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

Everything on the wire is id-encoded: the cluster spec
(:class:`~repro.parallel.cluster.ClusterSpec`) carries one base
:class:`~repro.rdf.dictionary.TermDictionary` over the input KB, each
worker extends it through a private :class:`~repro.rdf.dictionary.PartitionDictionary`
stripe, and batches travel as flat int64 ``(s, p, o)`` rows plus a
once-per-peer delta-dictionary for newly minted terms
(:class:`~repro.parallel.messages.EncodedBatch`).  Every executor takes
that one spec — the same partitions, rules and router object the BSP
rounds run.

Three executors share the protocol:

* :func:`run_async_inprocess` — workers as in-process objects, deliveries
  drained from one pending pool.  ``delivery="shuffle"`` pops that pool in
  seeded-random order, deliberately reordering message arrival — the
  deterministic vehicle for proving termination is delivery-order
  independent.  A :class:`~repro.parallel.faults.FaultPlan` can kill or
  freeze workers and drop/duplicate/delay batches deterministically.
* :func:`run_apply_inprocess` — the same set-up and drain, then
  cluster-wide delete-and-rederive.
* :func:`run_multiprocess_async` — one OS process per partition, each
  holding the whole spec.  The master relays each produced batch the
  moment it arrives; workers block on their inbox, not on a round
  barrier, and end by shipping their rows
  (:class:`~repro.parallel.messages.OutputMsg`).

The executors are *supervised* (:mod:`repro.parallel.supervisor`): a
crashed, killed, or frozen worker surfaces as a typed
:class:`~repro.parallel.supervisor.WorkerFailure` instead of a silent
hang, and under the spec's ``SupervisionPolicy(degrade="recover")`` the
master re-runs the lost node's partition — from its input triples plus the replay of every batch the master ever relayed to it (the
counting-termination ledger records exactly that) — on a fresh worker incarnation with a bumped *epoch*.
Epochs stamp every worker-originated message so stale messages from a
dead incarnation can never corrupt the ledger, and each incarnation mints
dictionary ids in its own stripe so a replacement can never re-issue an
id the dead worker already shipped for a different term.

All three are differentially tested against the serial fixpoint and
the lock-step oracle, with and without injected faults.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import random
import time
from typing import TYPE_CHECKING, Sequence

from repro.datalog.engine import EngineStats
from repro.parallel.aggregate import RunOutput, gather_rows
from repro.parallel.cluster import ClusterSpec
from repro.parallel.comm import ChannelPool
from repro.parallel.faults import FaultPlan
from repro.parallel.messages import (
    Adopt,
    Deliver,
    EncodedBatch,
    Finish,
    Heartbeat,
    Message,
    OutputMsg,
    Produced,
    RemovalBatch,
    Stop,
)
from repro.parallel.stats import AsyncRunStats
from repro.parallel.supervisor import (
    ProcessSupervisor,
    WorkerFailure,
    parent_alive,
    start_workers,
)
from repro.parallel.termination import CountingTermination
from repro.parallel.worker import PartitionWorker
from repro.rdf.dictionary import TermDictionary, lookup_rows
from repro.rdf.idstore import IdGraph
from repro.rdf.triple import Triple

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


class AsyncRunResult(RunOutput):
    """Output of an asynchronous run: the unioned KB (id rows, ``graph``
    decoded on first read — see :class:`~repro.parallel.aggregate.
    RunOutput`) plus wire accounting."""

    def __init__(
        self,
        dictionary: TermDictionary,
        store: IdGraph,
        engine_stats: EngineStats,
        stats: AsyncRunStats,
        det: CountingTermination,
        workers: Sequence[PartitionWorker] = (),
    ) -> None:
        super().__init__(None, dictionary, store, workers, engine_stats)
        self.stats = stats
        #: Final sent/consumed counters (exposed for the termination tests).
        self.forwarded = list(det.forwarded)
        self.consumed = list(det.consumed)


def _post_run_checks(
    spec: ClusterSpec, det: CountingTermination,
    workers: Sequence[PartitionWorker] = (),
) -> None:
    """With the sanitizer enabled, audit the run's end state: the Safra
    counting ledger must conserve (forwarded == consumed everywhere) and
    resident workers' dictionary stripes must be pairwise disjoint — an id
    minted by two incarnations would silently merge unrelated terms (the
    gather checks the same of every executor's shipped deltas)."""
    if not spec.sanitize:
        return
    from repro.analysis.sanitize import check_ledger, check_stripe_disjointness

    check_ledger(det)
    check_stripe_disjointness([w.dictionary for w in workers])


# -- in-process executors -----------------------------------------------------


class _InProcessRun:
    """One in-process run of a spec: the resident workers, the counting
    ledger, the pending pool and the relay ledger — the set-up, emit and
    drain both in-process executors share.

    ``delivery`` picks which *channel* — a (sender, dest) pair — delivers
    its oldest pending message next: ``"fifo"`` always the globally oldest
    send, ``"lifo"`` the newest channel activity first, ``"shuffle"`` a
    seeded-random channel each step.  Within a channel, order is always
    preserved: the wire protocol (like the ``multiprocessing`` queues and
    any MPI transport it stands in for) assumes FIFO channels — a delta-
    dictionary entry must not arrive after a row that needs it — while
    arrival order *across* channels is adversarial.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        delivery: str,
        seed: int,
        max_messages: int,
        faults: FaultPlan | None = None,
    ) -> None:
        if delivery not in ("fifo", "lifo", "shuffle"):
            raise ValueError(f"unknown delivery order {delivery!r}")
        self.spec = spec = spec.for_run()
        k = spec.k
        self.plan = faults or FaultPlan()
        self.max_messages = max_messages
        self.workers = [spec.worker(i) for i in range(k)]
        self.stats = AsyncRunStats(k=k)
        self.det = CountingTermination(k)
        self.pool = ChannelPool(
            delivery, random.Random(seed) if delivery == "shuffle" else None)
        self.epoch = [0] * k
        self.alive = [True] * k
        self.frozen = [False] * k
        self.node_delivered = [0] * k
        #: Every batch ever forwarded to each node, in relay order — the
        #: ledger recovery replays and drop-retransmission draws from.
        self.relay_log: list[list[Message]] = [[] for _ in range(k)]
        self.channel_seq: dict[tuple[int, int], int] = {}
        #: Channel -> deliver nothing from it until `delivered` passes this.
        self.held: dict[tuple[int, int], int] = {}
        #: Dropped-by-fault batches awaiting ledger retransmission.
        self.lost: list[Message] = []
        self.delivered = 0
        for w in self.workers:
            self.emit(w.bootstrap().outgoing)
            self.det.mark_bootstrapped(w.node_id)

    def emit(self, batches: Sequence[Message]) -> None:
        """Put ``batches`` on the wire: counted, logged for replay, and
        subjected to the fault plan's channel faults."""
        det, stats, pool = self.det, self.stats, self.pool
        for b in batches:
            key = (b.sender, b.dest)
            seq = self.channel_seq.get(key, 0)
            self.channel_seq[key] = seq + 1
            det.record_forward(b.dest)
            stats.record_batch(b)
            self.relay_log[b.dest].append(b)
            fault = self.plan.channel_fault(key, seq)
            if fault is None:
                pool.emit(b)
            elif fault.action == "drop":
                self.lost.append(b)
            elif fault.action == "duplicate":
                # Two genuine wire copies: both counted, both consumed.
                pool.emit(b)
                det.record_forward(b.dest)
                stats.record_batch(b)
                self.relay_log[b.dest].append(b)
                pool.emit(b)
            else:  # delay: hold the whole channel, preserving its FIFO
                self.held[key] = self.delivered + max(0, fault.delay)
                pool.emit(b)

    def _eligible(self, key: tuple[int, int]) -> bool:
        dest = key[1]
        return (self.alive[dest] and not self.frozen[dest]
                and self.held.get(key, 0) <= self.delivered)

    def drain(self) -> None:
        """Deliver until the counting ledger is quiescent."""
        det, plan = self.det, self.plan
        while not det.quiescent():
            if self.delivered >= self.max_messages:
                raise RuntimeError(
                    f"no termination after {self.max_messages} messages")
            batch = self.pool.pop_next(self._eligible)
            if batch is None:
                self._unstall()
                continue
            dest = batch.dest
            if (self.epoch[dest] == 0
                    and plan.kill_after.get(dest) == self.node_delivered[dest]):
                # Crash mid-processing: the message is consumed off the wire
                # but never acknowledged — exactly a worker dying in step().
                self.alive[dest] = False
                continue
            if (self.epoch[dest] == 0
                    and plan.freeze_after.get(dest) == self.node_delivered[dest]):
                # Wedged, not dead: the message stays pending at channel head.
                self.frozen[dest] = True
                self.pool.push_front(batch)
                continue
            self.node_delivered[dest] += 1
            self.delivered += 1
            result = self.workers[dest].step([batch])
            det.record_delivery(dest)
            self.emit(result.outgoing)

    def _unstall(self) -> None:
        """Nothing is deliverable but the ledger is not quiescent: release
        delayed channels, else retransmit dropped batches, else diagnose
        the failed nodes — raising the typed failure, or reviving them
        under ``degrade="recover"``."""
        if self.held:
            # Only held (delayed) channels remain deliverable: the delay
            # has run its course, release them.
            self.held.clear()
            return
        ready = [b for b in self.lost
                 if self.alive[b.dest] and not self.frozen[b.dest]]
        if ready:
            # The ledger noticed forwarded > consumed; retransmit.
            for b in ready:
                self.lost.remove(b)
                self.stats.retransmitted += 1
                self.pool.emit(b)
            return
        k = self.spec.k
        failed = [i for i in range(k) if not self.alive[i] or self.frozen[i]]
        if not failed:  # pragma: no cover - invariant check
            raise RuntimeError("pool stalled but counters disagree")
        reason = "killed" if any(not self.alive[i] for i in failed) else "frozen"
        failure = WorkerFailure(
            failed,
            reason,
            forwarded=[self.det.forwarded[i] for i in failed],
            consumed=[self.det.consumed[i] for i in failed],
            epoch=max(self.epoch[i] for i in failed),
        )
        self.stats.record_failure(failure.record())
        policy = self.spec.supervision
        if policy.degrade != "recover" or self.stats.retries >= policy.max_retries:
            raise failure
        self.stats.retries += 1
        for node in failed:
            self._revive(node)

    def _revive(self, node: int) -> None:
        """Re-run ``node`` as a fresh incarnation: its input partition plus
        the replay of its relay ledger."""
        det = self.det
        self.epoch[node] += 1
        self.alive[node] = True
        self.frozen[node] = False
        self.pool.discard_dest(node)
        self.lost[:] = [b for b in self.lost if b.dest != node]
        det.reset_node(node)
        replacement = self.spec.worker(node, self.epoch[node])
        self.workers[node] = replacement
        boot = replacement.bootstrap()
        det.mark_bootstrapped(node)
        self.emit(boot.outgoing)
        # Ledger replay: everything the master ever forwarded to this
        # node, in the original per-sender order (FIFO channels hold, so
        # delta-dictionary entries still precede the rows that need them).
        for b in list(self.relay_log[node]):
            det.record_forward(node)
            self.stats.retransmitted += 1
            result = replacement.step([b])
            det.record_delivery(node)
            self.emit(result.outgoing)

    def result(self) -> AsyncRunResult:
        _post_run_checks(self.spec, self.det, self.workers)
        dictionary, store, engine_stats = gather_rows(
            self.spec, map(OutputMsg.of, self.workers))
        return AsyncRunResult(dictionary, store, engine_stats, self.stats,
                              self.det, self.workers)


def run_async_inprocess(
    spec: ClusterSpec,
    delivery: str = "fifo",
    seed: int = 0,
    max_messages: int = 1_000_000,
    faults: FaultPlan | None = None,
) -> AsyncRunResult:
    """Round-free run of ``spec`` with in-process workers and
    controllable delivery order (see :class:`_InProcessRun`): all
    delivery orders must (and do) reach the same fixpoint; the shuffle
    mode is the out-of-order test harness.

    ``faults`` schedules deterministic failures
    (:class:`~repro.parallel.faults.FaultPlan`): killed and frozen
    workers stall the counting ledger and surface as
    :class:`~repro.parallel.supervisor.WorkerFailure`; under the spec's
    ``SupervisionPolicy(degrade="recover")`` the executor re-runs the node
    from its input partition plus the replay of its relay ledger (at most
    ``max_retries`` recovery events per run).  Dropped batches are
    retransmitted from the same ledger; duplicated and delayed batches
    must be absorbed by receiver-side dedup and channel-FIFO alone.
    """
    run = _InProcessRun(spec, delivery, seed, max_messages, faults)
    run.drain()
    return run.result()


def run_apply_inprocess(
    spec: ClusterSpec,
    adds: Sequence[Triple] = (),
    removes: Sequence[Triple] = (),
    delivery: str = "fifo",
    seed: int = 0,
    max_messages: int = 1_000_000,
) -> AsyncRunResult:
    """Distributed delete-and-rederive over the id wire protocol.

    Materializes the spec's closure, then maintains it under
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
    replicas only cost memory, never correctness (receiver dedup).  The
    master puts both on the wire in base ids, so every term of ``adds``
    must be in the spec's base dictionary.

    Returns the final maintained KB (union of node outputs), equal to
    re-closing ``(base ∖ removes) ∪ adds`` from scratch.
    """
    adds = list(adds)
    # A retraction naming a term the base never saw cannot match any row.
    removed = lookup_rows(spec.base, removes)
    added = lookup_rows(spec.base, adds)
    if len(added[0]) < len(adds):
        raise ValueError(
            "an added triple names a term outside the spec's base "
            "dictionary; build the spec with the additions in its base")
    run = _InProcessRun(spec, delivery, seed, max_messages)
    run.drain()
    k = spec.k
    # Overdeletion: broadcast the retractions, drain to quiescence,
    # then finalize every node and drain the restoration traffic.
    if len(removed[0]):
        run.emit([
            RemovalBatch.from_columns(-1, dest, 0, removed, retract_base=True)
            for dest in range(k)
        ])
        run.drain()
        for w in run.workers:
            run.emit(w.finalize_removals().outgoing)
        run.drain()
    # Additions: an ordinary incremental load.
    if adds:
        run.emit([EncodedBatch(-1, dest, 0, *added) for dest in range(k)])
        run.drain()
    return run.result()


# -- multiprocess executor ----------------------------------------------------


def _async_worker_main(
    spec: ClusterSpec,
    node: int,
    inbox: mp.Queue,
    outbox: Connection,
) -> None:
    """Worker process loop — no rounds, hang-proof.

    Protocol (typed control messages, :mod:`repro.parallel.messages`):
      master -> worker: Deliver(batch) | Adopt(node, epoch)
                        | Finish() | Stop()
      worker -> master: Produced(node, epoch, batches, consumed)
                        | OutputMsg(node, epoch, s, p, o, delta, stats)
                        | Heartbeat(node, epoch, consumed)
    Every Deliver yields exactly one Produced (possibly with zero batches)
    whose cumulative ``consumed`` count is the acknowledgement the
    master's termination counting relies on.  One process may host
    several *logical* workers: recovery adopts a dead peer's node here,
    built from the process's copy of the spec and re-seeded by the
    master's relay ledger.

    The inbox wait is bounded: on every idle heartbeat interval the
    worker checks that the master still exists (exiting instead of
    leaking an orphan if not) and heartbeats each hosted node.
    """
    parent = os.getppid()
    heartbeat_interval = spec.supervision.heartbeat_interval
    workers: dict[int, PartitionWorker] = {}
    consumed: dict[int, int] = {}

    def boot(nid: int, epoch: int) -> None:
        w = spec.worker(nid, epoch)
        workers[nid] = w
        consumed[nid] = 0
        result = w.bootstrap()
        outbox.send(Produced(nid, epoch, tuple(result.outgoing), 0))

    boot(node, 0)
    while True:
        try:
            msg = inbox.get(timeout=heartbeat_interval)
        except queue_mod.Empty:
            if not parent_alive(parent):
                return  # master died: exit instead of leaking an orphan
            for nid, w in workers.items():
                outbox.send(Heartbeat(nid, w.epoch, consumed[nid]))
            continue
        if isinstance(msg, Stop):
            return
        if isinstance(msg, Finish):
            # Output *request*, not shutdown: recovery may still need us.
            for w in workers.values():
                outbox.send(OutputMsg.of(w))
            continue
        if isinstance(msg, Adopt):
            boot(msg.node_id, msg.epoch)
            continue
        batch = msg.batch
        nid = batch.dest
        consumed[nid] += 1
        w = workers[nid]
        result = w.step([batch])
        outbox.send(Produced(nid, w.epoch, tuple(result.outgoing), consumed[nid]))


def run_multiprocess_async(
    spec: ClusterSpec,
    max_messages: int = 1_000_000,
    start_method: str | None = None,
) -> AsyncRunResult:
    """Round-free execution of ``spec`` across real processes.  The
    workers ship their outputs as rows (``OutputMsg``), which the master
    gathers, with the spec's schema graphs, into the same ``(dictionary,
    store)`` result the in-process executors produce.

    ``start_method=None`` uses the platform default (fork on Linux, spawn
    on macOS/Windows); both work — the spec and every message are
    picklable and terms re-intern on arrival.

    Supervision is the spec's
    :class:`~repro.parallel.supervisor.SupervisionPolicy`: worker
    liveness is folded into every blocking outbox wait, workers heartbeat
    on idle, and a crashed or silent worker raises a typed
    :class:`~repro.parallel.supervisor.WorkerFailure` naming the node.
    With ``degrade="recover"`` the master instead adopts the lost node
    onto a surviving process — round-robin over survivors — rebuilt from
    the spec plus a replay of every batch the master ever relayed to it
    (the counting ledger records exactly that), up to ``max_retries``
    recovery events per run.
    """
    k = spec.k
    policy = spec.supervision
    processes, inboxes, outboxes = start_workers(
        mp.get_context(start_method), _async_worker_main, spec)
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
            inboxes[target].put(Adopt(node, epoch[node]))
            for batch in relay_log[node]:
                det.record_forward(node)
                stats.retransmitted += 1
                inboxes[target].put(Deliver(batch))

    try:
        outputs: dict[int, OutputMsg] = {}
        finish_sent = False
        while True:
            if det.quiescent() and not finish_sent:
                for p in sup.live_process_indexes():
                    inboxes[p].put(Finish())
                finish_sent = True
            if finish_sent and len(outputs) == k:
                break
            try:
                msg = sup.get(outboxes)
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
                outputs[msg.node_id] = msg

        for p in sup.live_process_indexes():
            inboxes[p].put(Stop())
        _post_run_checks(spec, det)
        dictionary, store, engine_stats = gather_rows(
            spec, [outputs[i] for i in range(k)])
        return AsyncRunResult(dictionary, store, engine_stats, stats, det)
    finally:
        sup.shutdown()
