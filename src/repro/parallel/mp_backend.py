"""Real multi-process execution of Algorithm 3.

The simulated cluster is the measurement vehicle; this backend is the
proof that the same worker/router/termination logic runs correctly with
*actual* process isolation and message passing.  One OS process per
partition, connected by ``multiprocessing`` queues; the parent acts as the
paper's master: it scatters partitions, relays batches (a stand-in for the
shared filesystem), detects global termination, and gathers outputs.

The communication pattern mirrors mpi4py's object API (``send``/``recv`` of
picklable payloads): id-encoded batches between rounds, and term triples
(re-interned on unpickling via their ``__reduce__`` hooks) for the inputs
and the gathered outputs.

This is a correctness backend, not a performance one: on the CI container
there is a single core, and pickling graphs costs more than reasoning over
them at test sizes.  Keep inputs small.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
from dataclasses import dataclass
from typing import Sequence

from repro.datalog.ast import Rule
from repro.parallel.aggregate import RunOutput, encode_outputs
from repro.parallel.async_backend import build_base_dictionary
from repro.parallel.messages import EncodedBatch, Heartbeat
from repro.parallel.routing import DataPartitionRouter, Router, RulePartitionRouter
from repro.parallel.supervisor import (
    ProcessSupervisor,
    SupervisionPolicy,
    parent_alive,
)
from repro.parallel.worker import PartitionWorker
from repro.rdf.dictionary import PartitionDictionary, TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import Term
from repro.rdf.triple import Triple


@dataclass
class _NodeConfig:
    """Everything one worker process needs (picklable)."""

    node_id: int
    base_triples: list[Triple]
    rules: list[Rule]
    router_kind: str  # "data" | "rule"
    owner_table: dict | None
    owner_k: int
    rule_sets: list[list[Rule]] | None
    #: The master's base dictionary as an id-ordered term list; every
    #: worker rebuilds an identical base and mints above it in stripe
    #: ``node_id`` of ``owner_k``.
    base_terms: list[Term]


def _make_router(cfg: _NodeConfig) -> Router:
    if cfg.router_kind == "data":
        from repro.partitioning.base import TableOwner

        return DataPartitionRouter(TableOwner(cfg.owner_k, cfg.owner_table or {}))
    return RulePartitionRouter(cfg.rule_sets or [])


def _worker_main(
    cfg: _NodeConfig,
    inbox: mp.Queue,
    outbox: mp.Queue,
    heartbeat_interval: float = 0.5,
) -> None:
    """Worker process loop.

    Protocol (all via queues, driven by the parent):
      parent -> worker: ("round", [EncodedBatch...]) | ("finish",)
      worker -> parent: ("produced", node_id, [EncodedBatch...])
                        | ("output", node_id, [Triple...])
    The first round is triggered by an empty batch list.

    The inbox wait is bounded: every idle ``heartbeat_interval`` the
    worker checks that the master still exists — if the master crashed
    between rounds the worker exits instead of blocking on ``inbox.get()``
    as an orphan forever — and pings the master's supervisor.
    """
    parent = os.getppid()
    base = Graph(cfg.base_triples)
    worker = PartitionWorker(
        node_id=cfg.node_id,
        base=base,
        rules=cfg.rules,
        router=_make_router(cfg),
        dictionary=PartitionDictionary(
            TermDictionary.from_terms(cfg.base_terms), cfg.node_id, cfg.owner_k),
    )
    first = True
    rounds = 0
    while True:
        try:
            msg = inbox.get(timeout=heartbeat_interval)
        except queue_mod.Empty:
            if not parent_alive(parent):
                return  # master died: exit instead of leaking an orphan
            outbox.put(Heartbeat(cfg.node_id, 0, rounds))
            continue
        kind = msg[0]
        if kind == "finish":
            outbox.put(("output", cfg.node_id, list(worker.output_graph())))
            return
        assert kind == "round"
        batches: list[EncodedBatch] = msg[1]
        result = worker.bootstrap() if first else worker.step(batches)
        first = False
        rounds += 1
        outbox.put(("produced", cfg.node_id, result.outgoing))


def run_multiprocess(
    partitions: Sequence[Graph],
    rules_per_node: Sequence[Sequence[Rule]],
    router_kind: str,
    owner_table: dict | None = None,
    rule_sets: Sequence[Sequence[Rule]] | None = None,
    max_rounds: int = 1000,
    start_method: str | None = None,
    idle_timeout: float = 120.0,
    supervision: SupervisionPolicy | None = None,
) -> RunOutput:
    """Execute Algorithm 3 across real processes; returns the unioned KB
    (the workers' output triples, encoded at the master).

    ``partitions[i]`` and ``rules_per_node[i]`` configure node i.  For
    ``router_kind="data"`` pass the ``owner_table`` (term -> partition);
    for ``"rule"`` pass the ``rule_sets`` used for body-atom routing.

    ``start_method=None`` uses the platform default (``fork`` on Linux,
    ``spawn`` on macOS/Windows).  Both are supported: the worker entry
    point and every config field are picklable, and terms re-intern on
    unpickling, so nothing depends on inherited process state.

    Every blocking wait is supervised
    (:class:`~repro.parallel.supervisor.ProcessSupervisor`): a worker
    that dies mid-round raises a typed
    :class:`~repro.parallel.supervisor.WorkerFailure` naming the dead
    node instead of blocking the master on ``outbox.get()`` forever.  The
    lock-step backend is the differential *oracle*, so it only diagnoses
    failures; recovery lives in the asynchronous backend
    (:func:`repro.parallel.async_backend.run_multiprocess_async`).
    """
    k = len(partitions)
    if len(rules_per_node) != k:
        raise ValueError("rules_per_node must match partitions")
    policy = supervision or SupervisionPolicy(idle_timeout=idle_timeout)
    base = build_base_dictionary(
        partitions,
        rules=[r for rs in (*rules_per_node, *(rule_sets or ())) for r in rs])
    base_terms = base.terms()
    ctx = mp.get_context(start_method)
    inboxes = [ctx.Queue() for _ in range(k)]
    outbox = ctx.Queue()

    processes = []
    for i in range(k):
        cfg = _NodeConfig(
            node_id=i,
            base_triples=list(partitions[i]),
            rules=list(rules_per_node[i]),
            router_kind=router_kind,
            owner_table=dict(owner_table) if owner_table else None,
            owner_k=k,
            rule_sets=[list(rs) for rs in rule_sets] if rule_sets else None,
            base_terms=base_terms,
        )
        proc = ctx.Process(
            target=_worker_main,
            args=(cfg, inboxes[i], outbox, policy.heartbeat_interval),
        )
        proc.start()
        processes.append(proc)

    sup = ProcessSupervisor(processes, policy)
    try:
        for i in range(k):
            inboxes[i].put(("round", []))
        for round_no in range(max_rounds):
            produced: list[EncodedBatch] = []
            for _ in range(k):
                kind, node_id, batches = sup.get(outbox)
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
        outputs = []
        for _ in range(k):
            kind, node_id, triples = sup.get(outbox)
            assert kind == "output"
            outputs.append(triples)
        return RunOutput(dictionary=base, store=encode_outputs(base, outputs))
    finally:
        sup.shutdown()
