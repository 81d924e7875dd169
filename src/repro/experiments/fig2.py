"""Fig 2 — overhead of the parallel sub-tasks for LUBM (file IPC).

Paper result: per-partition maxima of time spent in reasoning, IO,
synchronization (waiting for the round barrier), and aggregation, for the
LUBM-10 run at each k.  As k grows, reasoning shrinks while IO and sync
grow — the argument for MPI-style communication and asynchronous rounds
(both of which we expose; see the ``--cost-model`` and async notes).

Shape checks: reasoning(k) decreasing — asserted on the machine-independent
``work`` column (per-node max work units), not on seconds; io(k)+sync(k)
share increasing.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, SCALES, Scale, build_dataset
from repro.parallel.costmodel import CostModel
from repro.parallel.driver import ParallelReasoner
from repro.parallel.simulated import SimulatedCluster
from repro.partitioning.policies import GraphPartitioningPolicy


def run(
    scale: Scale | str = "small",
    seed: int = 0,
    cost_model: CostModel | None = None,
) -> ExperimentResult:
    if isinstance(scale, str):
        scale = SCALES[scale]
    cost_model = cost_model if cost_model is not None else CostModel.file_ipc()
    dataset = build_dataset("lubm", scale, seed=seed)
    result = ExperimentResult(
        name="fig2",
        title=(
            f"Fig 2: parallel sub-task overheads, LUBM, {cost_model.name} "
            f"({scale.name} scale; max over partitions, seconds)"
        ),
        headers=["k", "reasoning", "io", "sync", "aggregation", "total",
                 "work"],
    )
    for k in scale.ks:
        if k == 1:
            continue  # the paper plots k >= 2 for overheads
        reasoner = ParallelReasoner(
            dataset.ontology,
            k=k,
            approach="data",
            policy=GraphPartitioningPolicy(seed=seed),
            strategy=scale.speedup_strategy,
            seed=seed,
        )
        run_ = SimulatedCluster(reasoner, cost_model).run(dataset.data)
        b = run_.breakdown()
        result.rows.append(
            [
                k,
                round(b.reasoning, 4),
                round(b.io, 4),
                round(b.sync, 4),
                round(b.aggregation, 4),
                round(b.total, 4),
                # Deterministic twin of the reasoning column: max over
                # nodes of join probes + firings (what the tests assert on).
                run_.work_makespan,
            ]
        )
    result.notes.append(
        "paper shape: reasoning falls with k; io+sync share grows with k"
    )
    return result
