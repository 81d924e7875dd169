"""Tests for scatter-gather BGP answering over partitioned KBs."""

import pytest

from repro.datalog.ast import Atom
from repro.datasets import LUBM
from repro.datasets.lubm_queries import LUBM_QUERIES
from repro.owl import HorstReasoner
from repro.parallel import ParallelReasoner
from repro.parallel.costmodel import CostModel
from repro.parallel.query import DistributedQueryEngine
from repro.rdf import BGPQuery, Graph, URI
from repro.rdf.terms import Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def u(name):
    return URI(f"ex:{name}")


class TestBasics:
    def test_cross_partition_join(self):
        parts = [Graph(), Graph()]
        parts[0].add_spo(u("a"), u("p"), u("b"))
        parts[1].add_spo(u("b"), u("p"), u("c"))
        engine = DistributedQueryEngine(parts)
        q = BGPQuery([Atom(X, u("p"), Y), Atom(Y, u("p"), Z)])
        rows, stats = engine.execute(q)
        assert len(rows) == 1
        assert rows[0][X] == u("a") and rows[0][Z] == u("c")
        assert stats.patterns == 2
        assert stats.total_shipped >= 2

    def test_replicated_triples_counted_once(self):
        t = (u("a"), u("p"), u("b"))
        parts = [Graph(), Graph()]
        parts[0].add_spo(*t)
        parts[1].add_spo(*t)  # replica, as Algorithm 1 produces
        engine = DistributedQueryEngine(parts)
        rows, _ = engine.execute(BGPQuery([Atom(X, u("p"), Y)]))
        assert len(rows) == 1

    def test_ask_and_select(self):
        parts = [Graph([]), Graph()]
        parts[1].add_spo(u("a"), u("p"), u("b"))
        engine = DistributedQueryEngine(parts)
        q = BGPQuery([Atom(X, u("p"), Y)])
        assert engine.ask(q)
        assert engine.select(q, X) == [(u("a"),)]

    def test_empty_partition_list_rejected(self):
        with pytest.raises(ValueError):
            DistributedQueryEngine([])

    def test_modeled_gather_time_positive(self):
        parts = [Graph()]
        parts[0].add_spo(u("a"), u("p"), u("b"))
        engine = DistributedQueryEngine(parts)
        _, stats = engine.execute(BGPQuery([Atom(X, u("p"), Y)]))
        assert stats.modeled_gather_time(CostModel.file_ipc()) > 0


class TestAgainstCentralized:
    @pytest.fixture(scope="class")
    def partitioned_kb(self):
        ds = LUBM(2, seed=0, departments_per_university=2,
                  faculty_per_department=2, students_per_faculty=3,
                  cross_university_fraction=0.0)
        pr = ParallelReasoner(ds.ontology, k=3, approach="data")
        result = pr.materialize(ds.data)
        centralized = HorstReasoner(ds.ontology).materialize(ds.data).graph
        return result.node_outputs, centralized

    def test_every_lubm_query_matches_centralized(self, partitioned_kb):
        node_outputs, centralized = partitioned_kb
        engine = DistributedQueryEngine(node_outputs)
        for query in LUBM_QUERIES:
            bgp = query.parse().bgp
            variables = tuple(sorted(bgp.variables(), key=lambda v: v.name))
            distributed = engine.select(bgp, *variables)
            central = bgp.select(centralized, *variables)
            assert distributed == central, query.name

    def test_stats_track_partition_probes(self, partitioned_kb):
        node_outputs, _ = partitioned_kb
        engine = DistributedQueryEngine(node_outputs)
        q6 = next(q for q in LUBM_QUERIES if q.name == "Q6").parse().bgp
        _, stats = engine.execute(q6)
        assert len(stats.probes_per_partition) == len(node_outputs)
        assert sum(stats.probes_per_partition) > 0


class TestIdNativeFastPath:
    """The worker-resident fast path: semi-join pruned, id-encoded wire,
    measured payload bytes."""

    @pytest.fixture(scope="class")
    def cluster(self):
        ds = LUBM(2, seed=0, departments_per_university=2,
                  faculty_per_department=2, students_per_faculty=3,
                  cross_university_fraction=0.0)
        pr = ParallelReasoner(ds.ontology, k=3, approach="data")
        result = pr.materialize(ds.data)
        centralized = HorstReasoner(ds.ontology).materialize(ds.data).graph
        return result, centralized

    def test_every_lubm_query_matches_centralized(self, cluster):
        result, centralized = cluster
        engine = DistributedQueryEngine.from_workers(result.workers)
        assert engine.workers is not None
        for query in LUBM_QUERIES:
            bgp = query.parse().bgp
            variables = tuple(sorted(bgp.variables(), key=lambda v: v.name))
            assert engine.select(bgp, *variables) == \
                bgp.select(centralized, *variables), query.name

    def test_ask(self, cluster):
        result, _ = cluster
        engine = DistributedQueryEngine.from_workers(result.workers)
        q6 = next(q for q in LUBM_QUERIES if q.name == "Q6").parse().bgp
        assert engine.ask(q6) is True
        assert engine.ask(BGPQuery([Atom(X, u("no-such-p"), Y)])) is False

    def test_bindings_restrict(self, cluster):
        result, centralized = cluster
        engine = DistributedQueryEngine.from_workers(result.workers)
        q6 = next(q for q in LUBM_QUERIES if q.name == "Q6").parse().bgp
        all_rows, _ = engine.execute(q6)
        first = all_rows[0]
        var, term = next(iter(first.items()))
        bound_rows, _ = engine.execute(q6, bindings={var: term})
        assert 0 < len(bound_rows) < len(all_rows)
        assert all(row[var] == term for row in bound_rows)

    def test_unknown_binding_term_rejected(self, cluster):
        result, _ = cluster
        engine = DistributedQueryEngine.from_workers(result.workers)
        q6 = next(q for q in LUBM_QUERIES if q.name == "Q6").parse().bgp
        var = next(iter(q6.variables()))
        with pytest.raises(ValueError, match="base dictionary"):
            engine.execute(q6, bindings={var: u("never-seen-term")})

    def test_semi_join_ships_no_more_than_term_path(self, cluster):
        result, _ = cluster
        id_engine = DistributedQueryEngine.from_workers(result.workers)
        term_engine = DistributedQueryEngine(result.node_outputs)
        for name in ("Q2", "Q9"):
            bgp = next(q for q in LUBM_QUERIES if q.name == name).parse().bgp
            _, id_stats = id_engine.execute(bgp)
            _, term_stats = term_engine.execute(bgp)
            assert id_stats.total_shipped <= term_stats.total_shipped, name

    def test_measured_payload_bytes(self, cluster):
        result, _ = cluster
        engine = DistributedQueryEngine.from_workers(result.workers)
        q2 = next(q for q in LUBM_QUERIES if q.name == "Q2").parse().bgp
        _, stats = engine.execute(q2)
        assert len(stats.payload_bytes_per_pattern) == stats.patterns
        assert stats.total_payload_bytes > 0
        # measured payload feeds the gather model (no 80 B/solution guess)
        model = CostModel.file_ipc()
        messages = len(stats.probes_per_partition) * stats.patterns
        assert stats.modeled_gather_time(model) == model.transfer_time(
            stats.total_payload_bytes, messages)

    def test_workers_and_partitions_mutually_exclusive(self, cluster):
        result, _ = cluster
        with pytest.raises(ValueError, match="not both"):
            DistributedQueryEngine(
                result.node_outputs, workers=result.workers)
        with pytest.raises(ValueError, match="at least one worker"):
            DistributedQueryEngine(workers=[])


class TestUnderForkAndSpawn:
    """The distributed read path against closures produced by real OS
    processes under both multiprocessing start methods (satellite of the
    serving PR: the resident tier must agree with what fork/spawn
    clusters compute)."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return LUBM(1, seed=0, departments_per_university=1,
                    faculty_per_department=2, students_per_faculty=2)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_id_engine_agrees_with_multiprocess_closure(
            self, dataset, start_method):
        ds = dataset
        pr = ParallelReasoner(ds.ontology, k=2, approach="data")
        mp_result = pr.materialize_async(
            ds.data, multiprocess=True, start_method=start_method)
        # multiprocess workers died with their processes — no fast path
        assert mp_result.workers == []
        resident = pr.materialize(ds.data)
        engine = DistributedQueryEngine.from_workers(resident.workers)
        for query in LUBM_QUERIES:
            bgp = query.parse().bgp
            variables = tuple(sorted(bgp.variables(), key=lambda v: v.name))
            assert engine.select(bgp, *variables) == \
                bgp.select(mp_result.graph, *variables), query.name
            assert engine.ask(bgp) == bgp.ask(mp_result.graph), query.name
