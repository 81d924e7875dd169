"""Cross-system integration tests: the paper's correctness claims, end to
end, on all three benchmarks and all partitioning configurations."""

import pytest

from repro.datasets import LUBM, MDC, UOBM
from repro.owl import HorstReasoner
from repro.parallel import CostModel, ParallelReasoner, SimulatedCluster
from repro.partitioning.policies import (
    DomainPartitioningPolicy,
    GraphPartitioningPolicy,
    HashPartitioningPolicy,
)
from repro.rdf import Graph


def _tiny(name):
    if name == "lubm":
        return LUBM(3, seed=1, departments_per_university=1,
                    faculty_per_department=2, students_per_faculty=2)
    if name == "uobm":
        return UOBM(3, seed=1, departments_per_university=1,
                    faculty_per_department=2, students_per_faculty=2)
    return MDC(3, seed=1, wells_per_field=2, hierarchy_depth=4)


def _instance_closure(pr, result):
    return Graph(t for t in result.graph if t not in pr.compiled.schema)


@pytest.mark.parametrize("dataset_name", ["lubm", "uobm", "mdc"])
@pytest.mark.parametrize("k", [2, 3])
def test_data_partitioning_all_datasets(dataset_name, k):
    ds = _tiny(dataset_name)
    serial = HorstReasoner(ds.ontology).materialize(ds.data)
    pr = ParallelReasoner(ds.ontology, k=k, approach="data")
    assert _instance_closure(pr, pr.materialize(ds.data)) == serial.graph


@pytest.mark.parametrize("dataset_name", ["lubm", "uobm", "mdc"])
def test_rule_partitioning_all_datasets(dataset_name):
    ds = _tiny(dataset_name)
    serial = HorstReasoner(ds.ontology).materialize(ds.data)
    pr = ParallelReasoner(ds.ontology, k=3, approach="rule")
    assert _instance_closure(pr, pr.materialize(ds.data)) == serial.graph


@pytest.mark.parametrize(
    "policy_factory",
    [
        lambda ds: GraphPartitioningPolicy(seed=0),
        lambda ds: HashPartitioningPolicy(),
        lambda ds: DomainPartitioningPolicy(ds.domain_grouper),
    ],
    ids=["graph", "hash", "domain"],
)
def test_all_policies_preserve_closure(policy_factory):
    ds = _tiny("lubm")
    serial = HorstReasoner(ds.ontology).materialize(ds.data)
    pr = ParallelReasoner(
        ds.ontology, k=3, approach="data", policy=policy_factory(ds)
    )
    assert _instance_closure(pr, pr.materialize(ds.data)) == serial.graph


def test_backward_strategy_in_parallel_matches_serial():
    ds = _tiny("lubm")
    serial = HorstReasoner(ds.ontology).materialize(ds.data)
    pr = ParallelReasoner(ds.ontology, k=2, approach="data",
                          strategy="backward")
    assert _instance_closure(pr, pr.materialize(ds.data)) == serial.graph


def test_backward_strategy_with_rule_partitioning_matches_serial():
    ds = _tiny("lubm")
    serial = HorstReasoner(ds.ontology).materialize(ds.data)
    pr = ParallelReasoner(ds.ontology, k=2, approach="rule",
                          strategy="backward")
    result = pr.materialize(ds.data)
    assert _instance_closure(pr, result) == serial.graph
    # The SLD bootstrap reports its work; its counters stay out of the
    # semi-naive engine totals.
    assert all(w > 0 for w in result.stats.work_per_node())


def test_simulated_cluster_consistent_across_cost_models():
    """Cost models change the timeline, never the result."""
    ds = _tiny("mdc")
    runs = []
    for cm in (CostModel.file_ipc(), CostModel.mpi(), CostModel.zero()):
        pr = ParallelReasoner(ds.ontology, k=2, approach="data")
        runs.append(SimulatedCluster(pr, cm).run(ds.data))
    graphs = [run.result.graph for run in runs]
    assert graphs[0] == graphs[1] == graphs[2]
    # file IPC must model the largest IO share.
    assert max(runs[0].per_node_io) >= max(runs[1].per_node_io)
    assert max(runs[2].per_node_io) == 0.0


def test_deterministic_end_to_end():
    """Same seed, same everything: identical closures, identical
    communicated-tuple counts, identical work."""
    ds = _tiny("uobm")

    def run_once():
        pr = ParallelReasoner(ds.ontology, k=3, approach="data", seed=9)
        result = pr.materialize(ds.data)
        return (
            len(result.graph),
            result.stats.total_tuples_communicated(),
            sum(result.stats.work_per_node()),
        )

    assert run_once() == run_once()


def test_fresh_resources_introduced_by_inference_route_consistently():
    """Derived triples may mention resources with no explicit owner-table
    entry; the deterministic hash fallback must keep the closure exact."""
    from repro.owl.vocabulary import OWL, RDF
    from repro.rdf import URI

    tbox = Graph()
    tbox.add_spo(URI("ex:p"), RDF.type, OWL.TransitiveProperty)
    tbox.add_spo(URI("ex:p"), OWL.inverseOf, URI("ex:q"))
    data = Graph()
    for i in range(6):
        data.add_spo(URI(f"ex:n{i}"), URI("ex:p"), URI(f"ex:n{i + 1}"))
    serial = HorstReasoner(tbox).materialize(data)
    pr = ParallelReasoner(tbox, k=3, approach="data")
    assert _instance_closure(pr, pr.materialize(data)) == serial.graph
