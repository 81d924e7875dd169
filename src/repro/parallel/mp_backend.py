"""Real multi-process execution of Algorithm 3.

The simulated cluster is the measurement vehicle; this backend is the
proof that the same worker/router/termination logic runs correctly with
*actual* process isolation and message passing.  One OS process per
partition, connected by ``multiprocessing`` queues; the parent acts as the
paper's master: it scatters partitions, relays batches (a stand-in for the
shared filesystem), detects global termination, and gathers outputs.

The communication pattern mirrors mpi4py's object API (``send``/``recv`` of
picklable payloads): the whole :class:`~repro.parallel.cluster.ClusterSpec`
once per process (terms re-intern on unpickling via their ``__reduce__``
hooks), id-encoded batches between rounds, and each node's rows
(:class:`~repro.parallel.messages.OutputMsg`) at the end.

This is a correctness backend, not a performance one: on the CI container
there is a single core, and pickling graphs costs more than reasoning over
them at test sizes.  Keep inputs small.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
from typing import TYPE_CHECKING

from repro.parallel.aggregate import RunOutput, gather_rows
from repro.parallel.cluster import ClusterSpec
from repro.parallel.messages import EncodedBatch, Heartbeat, OutputMsg
from repro.parallel.supervisor import (
    ProcessSupervisor,
    parent_alive,
    start_workers,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


def _worker_main(
    spec: ClusterSpec,
    node: int,
    inbox: mp.Queue,
    outbox: Connection,
) -> None:
    """Worker process loop.

    Protocol (inbox queue in, outbox pipe out, driven by the parent):
      parent -> worker: ("round", [EncodedBatch...]) | ("finish",)
      worker -> parent: ("produced", node_id, [EncodedBatch...])
                        | OutputMsg(node, epoch, s, p, o, delta, stats)
    The first round is triggered by an empty batch list.

    The inbox wait is bounded: every idle heartbeat interval the worker
    checks that the master still exists — if the master crashed between
    rounds the worker exits instead of blocking on ``inbox.get()`` as an
    orphan forever — and pings the master's supervisor.
    """
    parent = os.getppid()
    heartbeat_interval = spec.supervision.heartbeat_interval
    worker = spec.worker(node)
    first = True
    rounds = 0
    while True:
        try:
            msg = inbox.get(timeout=heartbeat_interval)
        except queue_mod.Empty:
            if not parent_alive(parent):
                return  # master died: exit instead of leaking an orphan
            outbox.send(Heartbeat(node, 0, rounds))
            continue
        kind = msg[0]
        if kind == "finish":
            outbox.send(OutputMsg.of(worker))
            return
        assert kind == "round"
        batches: list[EncodedBatch] = msg[1]
        result = worker.bootstrap() if first else worker.step(batches)
        first = False
        rounds += 1
        outbox.send(("produced", node, result.outgoing))


def run_multiprocess(
    spec: ClusterSpec,
    max_rounds: int = 1000,
    start_method: str | None = None,
) -> RunOutput:
    """Execute Algorithm 3 on ``spec`` across real processes; returns the
    unioned KB (the nodes' shipped rows, gathered at the master).

    ``start_method=None`` uses the platform default (``fork`` on Linux,
    ``spawn`` on macOS/Windows).  Both are supported: the worker entry
    point and the spec are picklable, and terms re-intern on unpickling,
    so nothing depends on inherited process state.

    Every blocking wait is supervised by the spec's policy
    (:class:`~repro.parallel.supervisor.ProcessSupervisor`): a worker
    that dies mid-round raises a typed
    :class:`~repro.parallel.supervisor.WorkerFailure` naming the dead
    node instead of blocking the master on its outbox forever.  The
    lock-step backend is the differential *oracle*, so it only diagnoses
    failures; recovery lives in the asynchronous backend
    (:func:`repro.parallel.async_backend.run_multiprocess_async`).
    """
    k = spec.k
    processes, inboxes, outboxes = start_workers(
        mp.get_context(start_method), _worker_main, spec)
    sup = ProcessSupervisor(processes, spec.supervision)
    try:
        for i in range(k):
            inboxes[i].put(("round", []))
        for round_no in range(max_rounds):
            produced: list[EncodedBatch] = []
            for _ in range(k):
                kind, node_id, batches = sup.get(outboxes)
                assert kind == "produced"
                produced.extend(batches)
            if not produced:
                break
            # Relay: group batches by destination, start the next round.
            by_dest: dict[int, list[EncodedBatch]] = {i: [] for i in range(k)}
            for batch in produced:
                by_dest[batch.dest].append(batch)
            for i in range(k):
                inboxes[i].put(("round", by_dest[i]))
        else:
            raise RuntimeError(f"no termination after {max_rounds} rounds")

        for i in range(k):
            inboxes[i].put(("finish",))
        outputs: dict[int, OutputMsg] = {}
        for _ in range(k):
            out = sup.get(outboxes)
            assert isinstance(out, OutputMsg)
            outputs[out.node_id] = out
        dictionary, store, engine_stats = gather_rows(
            spec, [outputs[i] for i in range(k)])
        return RunOutput(None, dictionary, store, (), engine_stats)
    finally:
        sup.shutdown()
