"""Asynchronous, round-free execution of Algorithm 3 over the id-encoded
wire protocol.

The BSP rounds (:func:`repro.parallel.driver.run_rounds`) advance all
workers in lock-step, and the barrier itself is the termination test.
Following the dynamic-data-exchange design (Ajileye et al.), the
round-free runtime removes the barrier: a worker reasons over each batch
*as it arrives*, and the master detects global quiescence by counting
(:class:`repro.parallel.termination.CountingTermination`).  Batches are
id rows plus once-per-peer delta dictionaries
(:class:`~repro.parallel.messages.EncodedBatch`), in per-node id stripes
over the spec's base dictionary.

The master and the worker are one state machine each, with no I/O —
relay, ledger, adopt-and-replay recovery and stale-epoch drops included
(:mod:`repro.parallel.coordinator`).  This module holds the two
transports that run them, both on one
:class:`~repro.parallel.cluster.ClusterSpec`:

* :func:`run_async_inprocess` — resident hosts, batches delivered oldest
  first from one pool; a :class:`~repro.parallel.faults.FaultPlan` can
  kill or freeze workers and drop/duplicate/delay batches
  deterministically.  :func:`run_apply_inprocess` adds cluster-wide
  delete-and-rederive (:func:`maintain`).
* :func:`run_multiprocess_async` — one OS process per node at the start:
  the master loop is supervised wait → coordinator → inboxes, the worker
  loop inbox → host → outbox (:mod:`repro.parallel.supervisor`).

Both are differentially tested against the serial fixpoint and the BSP
rounds, with and without injected faults; the schedule explorer of the
test suite runs the coordinator and hosts under every delivery order up
to a bound, with a fault at every delivery.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
from collections import deque
from typing import TYPE_CHECKING, Sequence

from repro.datalog.columnar import Columns
from repro.datalog.engine import EngineStats
from repro.parallel.aggregate import RunOutput, gather_rows
from repro.parallel.cluster import ClusterSpec
from repro.parallel.comm import ChannelPool
from repro.parallel.coordinator import Command, Coordinator, WorkerHost
from repro.parallel.faults import FaultPlan
from repro.parallel.messages import (
    Adopt,
    Deliver,
    EncodedBatch,
    Message,
    OutputMsg,
    Produced,
    RemovalBatch,
)
from repro.parallel.stats import AsyncRunStats
from repro.parallel.supervisor import (
    HEARTBEAT_INTERVAL,
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


# -- in-process transport ----------------------------------------------------


class _InProcessRun:
    """The in-process transport: one :class:`~repro.parallel.coordinator.
    Coordinator`, one resident :class:`~repro.parallel.coordinator.
    WorkerHost` per node, a :class:`~repro.parallel.comm.ChannelPool` for
    the batches in transit, and a :class:`~repro.parallel.faults.FaultPlan`.

    Control commands (Adopt / Finish / Stop) are handled on the spot;
    Deliver commands go on the wire and are delivered oldest first.  A
    killed or frozen host stops consuming; once nothing else is
    deliverable the stall becomes a :class:`~repro.parallel.supervisor.
    WorkerFailure` for the coordinator to recover or raise.  Dropped,
    duplicated and delayed batches are faults of the wire alone.
    """

    def __init__(
        self, spec: ClusterSpec, max_messages: int,
        faults: FaultPlan | None = None,
    ) -> None:
        self.spec = spec = spec.for_run()
        self.plan = faults or FaultPlan()
        self.coord = Coordinator(spec, max_messages)
        self.hosts = [WorkerHost(spec) for _ in range(spec.k)]
        self.pool = ChannelPool()
        #: Host -> "killed" | "frozen", and "retired" once recovered from.
        self.down: dict[int, str] = {}
        #: Batches delivered to each node (the kill / freeze trigger).
        self.node_delivered = [0] * spec.k
        self.channel_seq: dict[tuple[int, int], int] = {}
        #: Channel -> deliver nothing from it until `delivered` passes this.
        self.held: dict[tuple[int, int], int] = {}
        #: Dropped batches awaiting retransmission; their channels wait.
        self.lost: list[tuple[int, Message]] = []
        self.delivered = 0
        self.send(self.coord.start())

    def send(self, commands: Sequence[Command]) -> None:
        """Carry commands to the hosts and every reply back to the
        coordinator, until nothing is left but batches on the wire."""
        todo = deque(commands)
        while todo:
            host, msg = todo.popleft()
            if isinstance(msg, Deliver):
                self._wire(host, msg.batch)
            elif host not in self.down:
                todo.extend(self.reply(self.hosts[host].handle(msg)))

    def reply(self, replies: Sequence[Produced | OutputMsg]) -> list[Command]:
        return [c for r in replies for c in self.coord.handle(r)]

    def _wire(self, host: int, batch: Message) -> None:
        """One relayed batch onto the wire, through the channel faults."""
        key = (batch.sender, batch.dest)
        seq = self.channel_seq.get(key, 0)
        self.channel_seq[key] = seq + 1
        fault = self.plan.channel_fault(key, seq)
        if fault is None:
            self.pool.emit(host, batch)
        elif fault.action == "drop":
            self.lost.append((host, batch))
        elif fault.action == "duplicate":
            # Two genuine wire copies: both relayed, both consumed.
            for _host, copy in self.coord.relay([batch]):
                self.pool.emit(host, copy.batch)
            self.pool.emit(host, batch)
        else:  # delay: hold the whole channel, preserving its FIFO
            self.held[key] = self.delivered + max(0, fault.delay)
            self.pool.emit(host, batch)

    def _eligible(self, host: int, key: tuple[int, int]) -> bool:
        return (host not in self.down
                and self.held.get(key, 0) <= self.delivered
                and not any((b.sender, b.dest) == key for _h, b in self.lost))

    def drain(self) -> None:
        """Deliver until the counting ledger is quiescent."""
        coord, plan = self.coord, self.plan
        while not coord.quiescent():
            entry = self.pool.pop_next(self._eligible)
            if entry is None:
                self._unstall()
                continue
            host, batch = entry
            node = batch.dest
            if coord.epoch[node] == 0:
                if plan.kill_after.get(node) == self.node_delivered[node]:
                    # Crash mid-processing: the batch is consumed off the
                    # wire but never acknowledged.
                    self.down[host] = "killed"
                    continue
                if plan.freeze_after.get(node) == self.node_delivered[node]:
                    # Wedged, not dead: the batch stays at its channel head.
                    self.down[host] = "frozen"
                    self.pool.push_front(host, batch)
                    continue
            self.node_delivered[node] += 1
            self.delivered += 1
            self.send(self.reply(self.hosts[host].handle(Deliver(batch))))

    def _unstall(self) -> None:
        """Nothing is deliverable but the ledger is not quiescent: release
        delayed channels, else retransmit dropped batches, else report
        the failed hosts to the coordinator."""
        if self.held:
            self.held.clear()
            return
        ready = [e for e in self.lost if e[0] not in self.down]
        if ready:
            # The ledger noticed forwarded > consumed; retransmit.
            for entry in reversed(ready):
                self.lost.remove(entry)
                self.coord.stats.retransmitted += 1
                self.pool.push_front(*entry)
            return
        failed = {h for h, why in self.down.items() if why != "retired"}
        if not failed:  # pragma: no cover - invariant check
            raise RuntimeError("pool stalled but counters disagree")
        coord = self.coord
        nodes = [n for n in range(self.spec.k) if coord.host[n] in failed]
        counts = [coord.det.counts(n) for n in nodes]
        commands = coord.on_failure(WorkerFailure(
            nodes,
            "killed" if "killed" in self.down.values() else "frozen",
            forwarded=[f for f, _ in counts],
            consumed=[c for _, c in counts],
            epoch=max(coord.epoch[n] for n in nodes),
        ))
        # The failed hosts are retired with whatever was addressed to them.
        self.pool.discard_hosts(failed)
        self.lost = [e for e in self.lost if e[0] not in failed]
        self.down.update(dict.fromkeys(failed, "retired"))
        self.send(commands)

    def result(self) -> AsyncRunResult:
        coord = self.coord
        self.send(coord.finish())
        dictionary, store, engine_stats = gather_rows(
            self.spec, [coord.outputs[i] for i in range(self.spec.k)])
        workers = [self.hosts[coord.host[i]].workers[i]
                   for i in range(self.spec.k)]
        return AsyncRunResult(dictionary, store, engine_stats, coord.stats,
                              coord.det, workers)


def run_async_inprocess(
    spec: ClusterSpec,
    max_messages: int = 1_000_000,
    faults: FaultPlan | None = None,
) -> AsyncRunResult:
    """Round-free run of ``spec`` with resident workers, delivered oldest
    first (see :class:`_InProcessRun`).

    ``faults`` schedules deterministic failures
    (:class:`~repro.parallel.faults.FaultPlan`): killed and frozen
    workers stall the counting ledger and surface as
    :class:`~repro.parallel.supervisor.WorkerFailure`; under the spec's
    ``SupervisionPolicy(degrade="recover")`` the coordinator moves the
    node onto a surviving host, rebuilt from its input partition plus the
    replay of its relay log (at most ``max_retries`` recovery events per
    run).  Dropped batches are retransmitted; duplicated and delayed
    batches must be absorbed by receiver-side dedup and channel-FIFO
    alone.
    """
    run = _InProcessRun(spec, max_messages, faults)
    run.drain()
    return run.result()


def maintain(run, removed: Columns, added: Columns) -> None:
    """Distributed DRed over a drained in-process transport ``run``
    (anything with ``spec``, the coordinator as ``coord``, ``hosts``,
    ``send``, ``reply`` and ``drain``):

    1. the master broadcasts the retractions to *every* node as
       :class:`~repro.parallel.messages.RemovalBatch` rows
       (``retract_base=True``) — a row's replicas may live anywhere;
    2. each node overdeletes against its unmutated store and rebroadcasts
       the cascade, drained to quiescence like forward batches;
    3. every node finalizes — physical deletion, sent-dedup eviction,
       local rederivation and re-closure — and the restored rows drain
       through normal forward routing;
    4. the additions are broadcast and drained as an incremental load.
    """
    coord, k = run.coord, run.spec.k
    if len(removed[0]):
        run.send(coord.relay([
            RemovalBatch.from_columns(-1, dest, 0, removed, retract_base=True)
            for dest in range(k)
        ]))
        run.drain()
        for host in sorted(coord.live):
            run.send(run.reply(run.hosts[host].finalize_removals()))
        run.drain()
    if len(added[0]):
        run.send(coord.relay(
            [EncodedBatch(-1, dest, 0, *added) for dest in range(k)]))
        run.drain()


def run_apply_inprocess(
    spec: ClusterSpec,
    adds: Sequence[Triple] = (),
    removes: Sequence[Triple] = (),
    max_messages: int = 1_000_000,
) -> AsyncRunResult:
    """Distributed delete-and-rederive over the id wire protocol:
    materialize the spec's closure, then maintain it under ``(adds,
    removes)`` with the DRed phases run cluster-wide (:func:`maintain`).

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
    run = _InProcessRun(spec, max_messages)
    run.drain()
    maintain(run, removed, added)
    return run.result()


# -- process transport --------------------------------------------------------


def _async_worker_main(
    spec: ClusterSpec, inbox: mp.Queue, outbox: Connection,
) -> None:
    """Worker process loop: one :class:`~repro.parallel.coordinator.
    WorkerHost` between an inbox queue and an outbox pipe.

    The inbox wait is bounded: on every idle heartbeat interval the
    worker checks that the master still exists (exiting instead of
    leaking an orphan if not) and heartbeats each hosted node.
    """
    parent = os.getppid()
    host = WorkerHost(spec)
    while not host.stopped:
        try:
            msg = inbox.get(timeout=HEARTBEAT_INTERVAL)
        except queue_mod.Empty:
            if not parent_alive(parent):
                return  # master died: exit instead of leaking an orphan
            replies: Sequence[object] = host.heartbeats()
        else:
            replies = host.handle(msg)
        for reply in replies:
            outbox.send(reply)


def run_multiprocess_async(
    spec: ClusterSpec,
    max_messages: int = 1_000_000,
    start_method: str | None = None,
) -> AsyncRunResult:
    """Round-free execution of ``spec`` across real processes, one per
    node at the start.  The workers ship their outputs as rows
    (``OutputMsg``), which the master gathers, with the spec's schema
    graphs, into the same ``(dictionary, store)`` result the in-process
    executors produce.

    ``start_method=None`` uses the platform default (fork on Linux, spawn
    on macOS/Windows); both work — the spec and every message are
    picklable and terms re-intern on arrival.

    Supervision is the spec's
    :class:`~repro.parallel.supervisor.SupervisionPolicy`: worker
    liveness is folded into every blocking outbox wait, workers heartbeat
    on idle, and a crashed or silent worker raises a typed
    :class:`~repro.parallel.supervisor.WorkerFailure` naming the node.
    With ``degrade="recover"`` the coordinator instead adopts the lost
    node onto a surviving process, rebuilt from the spec plus a replay of
    every batch ever relayed to it.
    """
    coord = Coordinator(spec, max_messages)
    processes, inboxes, outboxes = start_workers(
        mp.get_context(start_method), _async_worker_main, spec)
    sup = ProcessSupervisor(processes, spec.supervision,
                            outstanding=coord.det.outstanding,
                            ledger=coord.det.counts)

    def put(commands: Sequence[Command]) -> None:
        for host, msg in commands:
            if isinstance(msg, Adopt):
                sup.reassign(msg.node_id, host)
            inboxes[host].put(msg)

    try:
        put(coord.start())
        while not coord.done():
            if coord.quiescent() and not coord.finishing:
                put(coord.finish())
            try:
                msg = sup.get(outboxes)
            except WorkerFailure as failure:
                commands = coord.on_failure(failure)
                # Recovered failures name their process: idle is raised.
                sup.mark_failed(failure.process_index)
                put(commands)
                continue
            put(coord.handle(msg))
        dictionary, store, engine_stats = gather_rows(
            spec, [coord.outputs[i] for i in range(spec.k)])
        return AsyncRunResult(dictionary, store, engine_stats, coord.stats,
                              coord.det)
    finally:
        sup.shutdown()
