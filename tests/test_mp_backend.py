"""End-to-end tests of the process transport of the round-free runtime
(:func:`repro.parallel.async_backend.run_multiprocess_async`) against the
lock-step oracle — the in-process BSP rounds (:func:`repro.parallel.
run_rounds`) on the same spec — and the serial closure.  Inputs are small:
pickling the spec costs more than reasoning over it at these sizes.

Parametrized over start methods: ``fork`` (Linux default) and ``spawn``
(macOS/Windows default) — the backend must be correct under both, since
spawn re-imports modules and re-interns every term from pickles.
"""

import multiprocessing as mp

import pytest

from repro.owl import HorstReasoner
from repro.owl.compiler import compile_ontology
from repro.owl.vocabulary import OWL, RDF
from repro.parallel import (
    ClusterSpec,
    InMemoryComm,
    RunStats,
    run_multiprocess_async,
    run_rounds,
)
from repro.parallel.routing import DataPartitionRouter, RulePartitionRouter
from repro.partitioning import GraphPartitioningPolicy, partition_data, partition_rules
from repro.rdf import Graph, URI


def u(name):
    return URI(f"ex:{name}")


START_METHODS = [
    pytest.param(
        method,
        marks=pytest.mark.skipif(
            method not in mp.get_all_start_methods(),
            reason=f"start method {method!r} unavailable on this platform",
        ),
    )
    for method in ("fork", "spawn")
]


@pytest.fixture
def tbox():
    g = Graph()
    g.add_spo(u("partOf"), RDF.type, OWL.TransitiveProperty)
    g.add_spo(u("linkedTo"), RDF.type, OWL.SymmetricProperty)
    return g


@pytest.fixture
def data():
    g = Graph()
    for c in range(2):
        for i in range(6):
            g.add_spo(u(f"c{c}n{i}"), u("partOf"), u(f"c{c}n{i + 1}"))
    g.add_spo(u("c0n6"), u("partOf"), u("c1n0"))
    g.add_spo(u("c0n0"), u("linkedTo"), u("c1n3"))
    return g


@pytest.mark.slow
@pytest.mark.parametrize("start_method", START_METHODS)
def test_multiprocess_data_partitioning_matches_serial(tbox, data, start_method):
    crs = compile_ontology(tbox)
    serial = HorstReasoner(tbox).materialize(data)
    dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=2)
    spec = ClusterSpec.build(
        dp.partitions, [crs.rules] * 2, DataPartitionRouter(dp.owner))
    union = run_multiprocess_async(spec, start_method=start_method)
    assert union.graph == serial.graph
    assert union.graph == _lockstep(spec).graph
    # The engine counters ride the workers' OutputMsg rows.
    assert union.engine_stats.derived > 0


@pytest.mark.slow
@pytest.mark.parametrize("start_method", START_METHODS)
def test_multiprocess_rule_partitioning_matches_serial(tbox, data, start_method):
    crs = compile_ontology(tbox)
    serial = HorstReasoner(tbox).materialize(data)
    rp = partition_rules(crs.rules, k=2, seed=0)
    spec = ClusterSpec.build(
        [data, data], rp.rule_sets, RulePartitionRouter(rp.rule_sets))
    union = run_multiprocess_async(spec, start_method=start_method)
    assert union.graph == serial.graph
    assert union.graph == _lockstep(spec).graph


@pytest.mark.slow
@pytest.mark.parametrize("start_method", START_METHODS)
def test_multiprocess_async_matches_lockstep(tbox, data, start_method):
    """The async id-encoded backend against the lock-step oracle, across
    real processes, under both start methods."""
    crs = compile_ontology(tbox)
    dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=2)
    spec = ClusterSpec.build(
        dp.partitions, [crs.rules] * 2, DataPartitionRouter(dp.owner))
    lockstep = _lockstep(spec)
    asynchronous = run_multiprocess_async(spec, start_method=start_method)
    assert asynchronous.graph == lockstep.graph
    assert asynchronous.engine_stats.derived > 0


def _lockstep(spec):
    return run_rounds(spec, InMemoryComm(spec.k), RunStats(k=spec.k))


def test_mismatched_configuration_rejected(data):
    dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=2)
    with pytest.raises(ValueError):
        ClusterSpec.build(dp.partitions, [[]], DataPartitionRouter(dp.owner))
