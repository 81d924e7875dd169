"""Tests for the streaming N-Triples partitioner."""

import pytest

from repro.datasets import LUBM
from repro.owl.vocabulary import RDF
from repro.partitioning.streaming import stream_partition
from repro.rdf import Graph, parse_ntriples, serialize_ntriples


@pytest.fixture
def lubm_file(tmp_path):
    ds = LUBM(3, seed=0, departments_per_university=1,
              faculty_per_department=2, students_per_faculty=3)
    path = tmp_path / "data.nt"
    mixed = ds.ontology.union(ds.data)
    path.write_text(serialize_ntriples(mixed), encoding="utf-8")
    return ds, path


class TestStreamHash:
    def test_all_triples_covered(self, lubm_file, tmp_path):
        ds, path = lubm_file
        report = stream_partition(path, tmp_path / "out", k=3)
        union = Graph()
        for pf in report.partition_files:
            union.update(parse_ntriples(pf.read_text(encoding="utf-8")))
        schema = Graph(
            parse_ntriples(report.schema_file.read_text(encoding="utf-8"))
        )
        assert union.union(schema) == ds.ontology.union(ds.data)

    def test_schema_diverted(self, lubm_file, tmp_path):
        ds, path = lubm_file
        report = stream_partition(path, tmp_path / "out", k=2)
        assert report.schema_triples == len(ds.ontology)

    def test_replication_bounds(self, lubm_file, tmp_path):
        _, path = lubm_file
        report = stream_partition(path, tmp_path / "out", k=4)
        assert 1.0 <= report.replication <= 2.0

    def test_type_triples_single_copy(self, lubm_file, tmp_path):
        ds, path = lubm_file
        report = stream_partition(path, tmp_path / "out", k=4)
        type_copies = 0
        for pf in report.partition_files:
            for t in parse_ntriples(pf.read_text(encoding="utf-8")):
                if t.p == RDF.type:
                    type_copies += 1
        expected = sum(1 for _ in ds.data.match(None, RDF.type, None))
        assert type_copies == expected

    def test_deterministic(self, lubm_file, tmp_path):
        _, path = lubm_file
        r1 = stream_partition(path, tmp_path / "a", k=3)
        r2 = stream_partition(path, tmp_path / "b", k=3)
        assert r1.triples_per_partition == r2.triples_per_partition


class TestStreamDomain:
    def test_groups_stay_together(self, lubm_file, tmp_path):
        ds, path = lubm_file
        report = stream_partition(
            path, tmp_path / "out", k=3, group_of=ds.domain_grouper
        )
        # Each university's resources land on a single partition, so the
        # replication is (near) zero beyond the rare cross links.
        assert report.policy == "domain"
        assert report.replication < 1.1

    def test_domain_balances_by_running_count(self, lubm_file, tmp_path):
        ds, path = lubm_file
        report = stream_partition(
            path, tmp_path / "out", k=3, group_of=ds.domain_grouper
        )
        counts = report.triples_per_partition
        assert max(counts) <= 3 * max(1, min(counts))


class TestErrors:
    def test_malformed_strict_raises(self, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("<ex:a> <ex:p> <ex:b> .\nBROKEN LINE\n", encoding="utf-8")
        with pytest.raises(Exception):
            stream_partition(bad, tmp_path / "out", k=2)

    def test_malformed_lenient_skips(self, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("<ex:a> <ex:p> <ex:b> .\nBROKEN LINE\n", encoding="utf-8")
        report = stream_partition(bad, tmp_path / "out", k=2, strict=False)
        assert report.lines_skipped == 1
        assert report.triples_read == 1

    def test_invalid_k(self, tmp_path):
        src = tmp_path / "x.nt"
        src.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            stream_partition(src, tmp_path / "out", k=0)

    def test_empty_file(self, tmp_path):
        src = tmp_path / "x.nt"
        src.write_text("", encoding="utf-8")
        report = stream_partition(src, tmp_path / "out", k=2)
        assert report.triples_read == 0
        assert report.replication == 1.0


class TestEquivalenceWithInMemory:
    def test_same_closure_after_parallel_reasoning(self, lubm_file, tmp_path):
        """Partition files produced by the streaming path drive the same
        parallel closure as the in-memory path."""
        from repro.owl import HorstReasoner
        from repro.owl.compiler import compile_ontology
        from repro.parallel import ClusterSpec, InMemoryComm, RunStats, run_rounds
        from repro.parallel.routing import DataPartitionRouter
        from repro.partitioning.base import HashOwner

        ds, path = lubm_file
        k = 3
        report = stream_partition(path, tmp_path / "out", k=k)
        crs = compile_ontology(ds.ontology)
        # The streaming hash owner is exactly HashOwner(k): rebuild the
        # router from it, load partition files as worker bases.
        owner = HashOwner(k)
        from repro.partitioning.data_generic import default_vocabulary

        vocab = default_vocabulary(ds.data)
        router = DataPartitionRouter(owner, vocabulary=frozenset(vocab))
        bases = [
            Graph(parse_ntriples(
                report.partition_files[i].read_text(encoding="utf-8")))
            for i in range(k)
        ]
        spec = ClusterSpec.build(bases, [crs.rules] * k, router)
        union = run_rounds(spec, InMemoryComm(k), RunStats(k=k), 1000).graph

        serial = HorstReasoner(ds.ontology).materialize(ds.data)
        assert union == serial.graph
