"""The parallel reasoning runtime — Algorithm 3 and its measurement rig.

Layers, bottom up:

* :mod:`repro.parallel.messages` — the id-encoded batches nodes exchange
  (:class:`EncodedBatch`: int64 rows plus a delta-dictionary).
* :mod:`repro.parallel.comm` — communication backends behind one MPI-ish
  interface: in-memory mailboxes and the paper's shared-file scheme; both
  account bytes and message counts for the cost models.
* :mod:`repro.parallel.routing` — "send any newly generated tuples to
  other processors as necessary": owner-table routing (data partitioning),
  body-atom-match routing (rule partitioning), broadcast (ablation).
* :mod:`repro.parallel.worker` — one partition's loop over its id store:
  local fixpoint, route fresh rows, ingest incoming rows.
* :mod:`repro.parallel.cluster` — the master's one partitioning decision
  (:class:`ClusterSpec`): each node's partition and rules, the router
  object, the replicated schema, the store settings and the
  :class:`SupervisionPolicy`.  Every executor below takes a spec, and its
  :meth:`~ClusterSpec.worker` is the only place a node is built.
* :mod:`repro.parallel.aggregate` — the final aggregation: every node's
  rows plus the terms of the ids it minted
  (:class:`~repro.parallel.messages.OutputMsg`, shipped or built from a
  resident worker) into one ``(dictionary, store)``, terms decoded only
  on read.
* :mod:`repro.parallel.driver` — the synchronous-rounds master
  (:class:`ParallelReasoner`): partition into a spec, iterate rounds to
  global termination, aggregate.  Runs workers in-process.
* :mod:`repro.parallel.costmodel` / :mod:`repro.parallel.simulated` — the
  cluster *simulation*: per-partition reasoning is measured for real (wall
  time + deterministic work units); IO/sync/aggregation are computed from
  the measured message volumes through an explicit, configurable
  :class:`CostModel` (file-IPC, MPI, shared-memory presets).  This is the
  documented substitute for the paper's 16-node cluster (DESIGN.md §2).
* :mod:`repro.parallel.mp_backend` — a real ``multiprocessing`` executor
  for end-to-end correctness runs (lock-step rounds; the differential
  oracle for the async backend).
* :mod:`repro.parallel.termination` — Safra-style sent/received counting
  for barrier-free global-quiescence detection.
* :mod:`repro.parallel.async_backend` — the round-free executors: workers
  reason over batches as they arrive, in-process (with controllable
  delivery order, and cluster-wide DRed) or across real processes.
* :mod:`repro.parallel.supervisor` — worker liveness, typed
  :class:`WorkerFailure` diagnosis of crashes/hangs, and the
  ledger-replay recovery policy (:class:`SupervisionPolicy`, the only
  failure-handling configuration, carried by the spec).
* :mod:`repro.parallel.faults` — deterministic fault injection: per-node
  kill/freeze and per-channel drop/duplicate/delay plans for the
  in-process executor, and an env-triggered hard-exit for the
  multiprocess one.
"""

from repro.parallel.messages import EncodedBatch
from repro.parallel.comm import ChannelPool, CommBackend, FileComm, InMemoryComm
from repro.parallel.routing import (
    BroadcastRouter,
    DataPartitionRouter,
    Router,
    RulePartitionRouter,
)
from repro.parallel.worker import PartitionWorker, RoundResult
from repro.parallel.cluster import ClusterSpec, build_base_dictionary
from repro.parallel.driver import ParallelReasoner, ParallelRunResult, run_rounds
from repro.parallel.costmodel import CostModel
from repro.parallel.simulated import SimulatedCluster, SimulatedRun
from repro.parallel.stats import NodeRoundStats, RunStats
from repro.parallel.hybrid import HybridParallelReasoner
from repro.parallel.query import DistributedQueryEngine, DistributedQueryStats
from repro.parallel.stats import AsyncRunStats
from repro.parallel.termination import CountingTermination
from repro.parallel.async_backend import (
    AsyncRunResult,
    run_apply_inprocess,
    run_async_inprocess,
    run_multiprocess_async,
)
from repro.parallel.mp_backend import run_multiprocess
from repro.parallel.supervisor import (
    INJECTED_EXIT_CODE,
    FailureRecord,
    ProcessSupervisor,
    SupervisionPolicy,
    WorkerFailure,
    shutdown_processes,
)
from repro.parallel.faults import ChannelFault, FaultPlan

__all__ = [
    "EncodedBatch",
    "AsyncRunStats",
    "AsyncRunResult",
    "CountingTermination",
    "build_base_dictionary",
    "ClusterSpec",
    "run_rounds",
    "run_async_inprocess",
    "run_apply_inprocess",
    "run_multiprocess_async",
    "run_multiprocess",
    "WorkerFailure",
    "FailureRecord",
    "SupervisionPolicy",
    "ProcessSupervisor",
    "shutdown_processes",
    "INJECTED_EXIT_CODE",
    "FaultPlan",
    "ChannelFault",
    "ChannelPool",
    "CommBackend",
    "InMemoryComm",
    "FileComm",
    "Router",
    "DataPartitionRouter",
    "RulePartitionRouter",
    "BroadcastRouter",
    "PartitionWorker",
    "RoundResult",
    "ParallelReasoner",
    "ParallelRunResult",
    "CostModel",
    "SimulatedCluster",
    "SimulatedRun",
    "NodeRoundStats",
    "RunStats",
    "HybridParallelReasoner",
    "DistributedQueryEngine",
    "DistributedQueryStats",
]
