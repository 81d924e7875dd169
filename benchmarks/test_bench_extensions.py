"""Benches for the extension subsystems: hybrid partitioning, the
streaming partitioner, and the materialized KB."""

from repro.owl import HorstReasoner, MaterializedKB
from repro.parallel.hybrid import HybridParallelReasoner
from repro.partitioning import stream_partition
from repro.rdf import Graph, serialize_ntriples


def test_bench_hybrid_materialization(benchmark, lubm_tiny):
    def run():
        return HybridParallelReasoner(
            lubm_tiny.ontology, k_data=2, k_rules=2
        ).materialize(lubm_tiny.data)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["rounds"] = result.stats.num_rounds


def test_hybrid_equals_serial(lubm_tiny):
    serial = HorstReasoner(lubm_tiny.ontology).materialize(lubm_tiny.data)
    hybrid = HybridParallelReasoner(lubm_tiny.ontology, k_data=2, k_rules=2)
    result = hybrid.materialize(lubm_tiny.data)
    instance = Graph(t for t in result.graph if t not in hybrid.compiled.schema)
    assert instance == serial.graph


def test_bench_streaming_partition(benchmark, lubm_tiny, tmp_path):
    src = tmp_path / "data.nt"
    src.write_text(
        serialize_ntriples(lubm_tiny.ontology.union(lubm_tiny.data)),
        encoding="utf-8",
    )

    def run():
        return stream_partition(src, tmp_path / "out", k=4)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["replication"] = round(report.replication, 3)
    assert report.triples_read > 0


def test_bench_kb_incremental_add(benchmark, lubm_tiny):
    kb = MaterializedKB(lubm_tiny.ontology)
    kb.add(iter(lubm_tiny.data))
    from repro.rdf import Triple, URI

    new = Triple(
        URI("http://www.University0.edu/Department0/FreshStudent"),
        URI("http://repro.example.org/univ-bench#memberOf"),
        URI("http://www.University0.edu/Department0"),
    )

    def add_once():
        # Rebuild-free incremental load of one new fact.
        kb.apply(removes=[new])
        return kb.add([new])

    added = benchmark(add_once)
    assert added == 1
