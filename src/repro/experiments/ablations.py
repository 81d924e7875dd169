"""Ablation experiment — the design-choice comparisons DESIGN.md §5 calls
out, as one table.

Not a figure from the paper; this quantifies the knobs the paper discusses
in prose (Section VI-B's communication and synchronization improvements,
Section VII's hybrid partitioning) plus our own engine-level choices, all
on one LUBM workload:

* communication: file IPC vs MPI vs shared memory (same measured run,
  replayed through each cost model);
* rounds: synchronous barrier vs asynchronous (Section VI-B bullet 2);
* routing: owner-table vs broadcast (tuple volumes);
* approach: data vs rule vs hybrid partitioning at equal node count;
* engine: semi-naive vs naive probes, forward vs backward work.
"""

from __future__ import annotations

from repro.datalog import NaiveEngine, SemiNaiveEngine
from repro.experiments.common import ExperimentResult, SCALES, Scale, build_dataset
from repro.owl.reasoner import HorstReasoner
from repro.parallel.costmodel import CostModel
from repro.parallel.driver import ParallelReasoner
from repro.parallel.hybrid import HybridParallelReasoner
from repro.parallel.routing import BroadcastRouter, DataPartitionRouter
from repro.parallel.simulated import SimulatedCluster
from repro.partitioning import partition_data
from repro.partitioning.policies import GraphPartitioningPolicy


def run(scale: Scale | str = "small", seed: int = 0) -> ExperimentResult:
    if isinstance(scale, str):
        scale = SCALES[scale]
    dataset = build_dataset("lubm", scale, seed=seed)
    k = max(kk for kk in scale.ks if kk > 1)

    result = ExperimentResult(
        name="ablations",
        title=f"Ablations: design choices on {dataset.name}, k={k} ({scale.name} scale)",
        headers=["dimension", "variant", "metric", "value"],
    )

    # --- communication cost models (one run, three replays) -------------------
    reasoner = ParallelReasoner(
        dataset.ontology, k=k, approach="data",
        policy=GraphPartitioningPolicy(seed=seed), strategy="forward",
    )
    run_result = reasoner.materialize(dataset.data)
    for cm in (CostModel.file_ipc(), CostModel.mpi(), CostModel.shared_memory()):
        sim = SimulatedCluster(reasoner, cm).reconstruct(run_result)
        result.rows.append(
            ["comm", cm.name, "io_max_s", round(max(sim.per_node_io), 4)]
        )

    # --- synchronous vs asynchronous rounds -----------------------------------
    for mode in ("sync", "async"):
        sim = SimulatedCluster(
            reasoner, CostModel.file_ipc(), mode=mode
        ).reconstruct(run_result)
        result.rows.append(
            ["rounds", mode, "makespan_s", round(sim.makespan, 4)]
        )

    # --- routing: owner-table vs broadcast -------------------------------------
    dp = partition_data(dataset.data, GraphPartitioningPolicy(seed=seed), k)
    owner_router = DataPartitionRouter(dp.owner, frozenset(dp.vocabulary))
    broadcast = BroadcastRouter(k)
    sample = [t for i, t in enumerate(dataset.data) if i % 3 == 0]
    owner_sends = sum(len(owner_router.destinations(0, t)) for t in sample)
    broadcast_sends = sum(len(broadcast.destinations(0, t)) for t in sample)
    result.rows.append(["routing", "owner-table", "sends_per_sample", owner_sends])
    result.rows.append(["routing", "broadcast", "sends_per_sample", broadcast_sends])

    # --- partitioning approach at equal node count ------------------------------
    serial_work = HorstReasoner(dataset.ontology).materialize(
        dataset.data, strategy="forward"
    ).work

    def work_speedup(stats) -> float:
        per_node = stats.work_per_node()
        return serial_work / max(per_node) if max(per_node) else float("inf")

    result.rows.append(
        ["approach", f"data k={k}", "work_speedup",
         round(work_speedup(run_result.stats), 2)]
    )
    rule_run = ParallelReasoner(
        dataset.ontology, k=min(4, k), approach="rule", strategy="forward",
    ).materialize(dataset.data)
    result.rows.append(
        ["approach", f"rule k={min(4, k)}", "work_speedup",
         round(work_speedup(rule_run.stats), 2)]
    )
    if k >= 4:
        hybrid_run = HybridParallelReasoner(
            dataset.ontology, k_data=k // 2, k_rules=2, seed=seed,
        ).materialize(dataset.data)
        result.rows.append(
            ["approach", f"hybrid {k // 2}x2", "work_speedup",
             round(work_speedup(hybrid_run.stats), 2)]
        )

    # --- engines -----------------------------------------------------------------
    reasoner_serial = HorstReasoner(dataset.ontology)
    g1 = dataset.data.copy()
    semi = SemiNaiveEngine(reasoner_serial.rules).run(g1)
    g2 = dataset.data.copy()
    naive = NaiveEngine(reasoner_serial.rules).run(g2)
    result.rows.append(
        ["engine", "semi-naive", "join_probes", semi.stats.join_probes]
    )
    result.rows.append(
        ["engine", "naive", "join_probes", naive.stats.join_probes]
    )
    fwd = reasoner_serial.materialize(dataset.data, strategy="forward")
    bwd = reasoner_serial.materialize(dataset.data, strategy="backward")
    result.rows.append(["strategy", "forward", "work", fwd.work])
    result.rows.append(["strategy", "backward (Jena-style)", "work", bwd.work])

    result.notes.append(
        "expected: io(file) >> io(mpi) >> io(shm); async <= sync; "
        "owner-table sends << broadcast; backward work >> forward work"
    )
    return result
