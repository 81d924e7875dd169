"""Tests for the resident serving tier (:mod:`repro.serving`): answer
correctness against the single-node id index, version-keyed cache
invalidation through the DRed write path, admission control, and the
load driver."""

import threading

import pytest

from repro.datalog.ast import Atom
from repro.datasets import LUBM
from repro.datasets.lubm import UB
from repro.datasets.lubm_queries import LUBM_QUERIES
from repro.owl import MaterializedKB
from repro.owl.vocabulary import RDF
from repro.rdf import BGPQuery, Graph, Triple, URI
from repro.rdf.terms import Variable
from repro.serving import (
    KBServer,
    LoadReport,
    ServerClosedError,
    ServerOverloadedError,
    WorkerResultCache,
    run_load,
    write_serving_bench,
)
from repro.serving.server import _PatternAnswer

X, Y = Variable("x"), Variable("y")


def u(name):
    return URI(f"ex:{name}")


def rows_of(solutions, variables):
    return sorted(tuple(sol[v] for v in variables) for sol in solutions)


@pytest.fixture(scope="module")
def dataset():
    return LUBM(2, seed=0, departments_per_university=2,
                faculty_per_department=2, students_per_faculty=3,
                cross_university_fraction=0.0)


@pytest.fixture(scope="module")
def server(dataset):
    with KBServer.load(dataset.ontology, dataset.data, k=3) as srv:
        yield srv


class TestQueryCorrectness:
    def test_all_lubm_queries_match_id_index(self, server):
        index = server.kb.id_index()
        for query in LUBM_QUERIES:
            bgp = query.parse().bgp
            variables = tuple(sorted(bgp.variables(), key=lambda v: v.name))
            expected = rows_of(index.execute(bgp), variables)
            assert rows_of(server.query(bgp), variables) == expected, \
                query.name
            assert expected, f"{query.name} should have answers"

    def test_async_backend_serves_same_answers(self, dataset):
        with KBServer.load(dataset.ontology, dataset.data, k=3,
                           backend="async") as srv:
            index = srv.kb.id_index()
            for query in LUBM_QUERIES[:4]:
                bgp = query.parse().bgp
                variables = tuple(
                    sorted(bgp.variables(), key=lambda v: v.name))
                assert rows_of(srv.query(bgp), variables) == \
                    rows_of(index.execute(bgp), variables), query.name

    def test_serial_fallback_without_workers(self, dataset):
        kb = MaterializedKB(dataset.ontology)
        kb.add(iter(dataset.data))
        with KBServer(kb) as srv:
            bgp = LUBM_QUERIES[0].parse().bgp
            variables = tuple(sorted(bgp.variables(), key=lambda v: v.name))
            assert rows_of(srv.query(bgp), variables) == \
                rows_of(kb.id_index().execute(bgp), variables)

    def test_query_validation(self, server):
        with pytest.raises(ValueError, match="at least one pattern"):
            server.submit([])
        with pytest.raises(TypeError, match="must be an Atom"):
            server.submit(["nope"])


class TestCaching:
    def test_repeats_hit_the_cache(self, dataset):
        with KBServer.load(dataset.ontology, dataset.data, k=2) as srv:
            bgp = next(
                q for q in LUBM_QUERIES if q.name == "Q6").parse().bgp
            first = srv.query(bgp)
            miss_floor = srv.stats.cache_misses
            for _ in range(3):
                assert srv.query(bgp) == first
            stats = srv.stats
            assert stats.cache_misses == miss_floor  # no recomputation
            assert stats.cache_hits > 0
            assert stats.cache_hit_rate > 0

    def test_apply_invalidates_by_version(self, dataset):
        with KBServer.load(dataset.ontology, dataset.data, k=2) as srv:
            pattern = [Atom(X, RDF.type, UB.FullProfessor)]
            before = srv.query(pattern)
            srv.query(pattern)  # warm the cache
            newcomer = Triple(u("newprof"), RDF.type, UB.FullProfessor)
            result = srv.apply(adds=[newcomer])
            assert newcomer in result.added and newcomer in srv.kb
            after = srv.query(pattern)
            assert len(after) == len(before) + 1
            assert {row[X] for row in after} == \
                {row[X] for row in before} | {u("newprof")}
            # and back: retraction flows through DRed to the workers
            srv.apply(removes=[newcomer])
            assert rows_of(srv.query(pattern), (X,)) == \
                rows_of(before, (X,))
            assert srv.stats.applied == 2

    def test_kb_mints_apart_from_the_resident_workers(self, dataset):
        """The workers' id stripes start where their shared base
        dictionary ends, so it must never grow while they are resident;
        the KB — which mints on every write — keeps its own."""
        with KBServer.load(dataset.ontology, dataset.data, k=2) as srv:
            workers = srv.kb.last_parallel_run.workers
            base = workers[0].dictionary.base
            assert all(w.dictionary.base is base for w in workers)
            assert srv.kb.dictionary is not base
            size = len(base)
            # Never-seen subjects and a never-seen class: the round-robin
            # propagation makes both workers mint ex:Fresh on their own.
            fresh = [Triple(u(f"fresh{i}"), RDF.type, u("Fresh"))
                     for i in range(4)]
            srv.apply(adds=fresh)
            assert len(base) == size == workers[0].dictionary.base_size
            ids = {w.dictionary.get(u("Fresh")) for w in workers}
            assert len(ids) == 2 and min(ids) >= size
            got = srv.query([Atom(X, RDF.type, u("Fresh"))])
            assert {row[X] for row in got} == {t.s for t in fresh}
            everything = srv.query([Atom(u("fresh0"), RDF.type, Y)])
            assert {row[Y] for row in everything} == {u("Fresh")}

    def test_writes_serialize_with_reads(self, dataset):
        """A read submitted after a write observes the applied state
        (both ride the same queue)."""
        with KBServer.load(dataset.ontology, dataset.data, k=2) as srv:
            pattern = [Atom(X, RDF.type, UB.FullProfessor)]
            baseline = len(srv.query(pattern))
            apply_f = srv.submit_apply(
                adds=[Triple(u("p2"), RDF.type, UB.FullProfessor)])
            read_f = srv.submit(pattern)
            assert len(read_f.result(30)) == baseline + 1
            apply_f.result(30)


class TestWorkerResultCache:
    answer = _PatternAnswer(None, None, None, probes=0, payload_bytes=0)

    def test_version_mismatch_is_a_miss(self):
        cache = WorkerResultCache()
        pat = Atom(X, u("p"), Y)
        cache.store(pat, version=1, answer=self.answer)
        assert cache.lookup(pat, version=1) is self.answer
        assert cache.lookup(pat, version=2) is None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = WorkerResultCache(maxsize=2)
        a, b, c = (Atom(X, u(n), Y) for n in "abc")
        cache.store(a, 1, self.answer)
        cache.store(b, 1, self.answer)
        cache.lookup(a, 1)  # a is now most recent
        cache.store(c, 1, self.answer)  # evicts b
        assert len(cache) == 2
        assert cache.lookup(a, 1) is not None
        assert cache.lookup(b, 1) is None

    def test_maxsize_validated(self):
        with pytest.raises(ValueError, match="positive"):
            WorkerResultCache(0)


class TestAdmissionControl:
    def test_overload_rejects_typed(self, dataset):
        kb = MaterializedKB(dataset.ontology)
        kb.add(iter(dataset.data))
        srv = KBServer(kb, capacity=2, batch_size=1)
        try:
            release = threading.Event()
            started = threading.Event()
            real_apply = kb.apply

            def slow_apply(adds=(), removes=()):
                started.set()
                release.wait(timeout=30)
                return real_apply(adds, removes)

            kb.apply = slow_apply
            blocker = srv.submit_apply()
            assert started.wait(timeout=30)  # serve thread is now stuck
            pattern = [Atom(X, RDF.type, UB.FullProfessor)]
            queued = [srv.submit(pattern) for _ in range(2)]
            with pytest.raises(ServerOverloadedError) as err:
                srv.submit(pattern)
            assert err.value.capacity == 2
            assert srv.stats.rejected == 1
            release.set()
            blocker.result(30)
            for f in queued:
                assert f.result(30)  # queued work still completes
        finally:
            release.set()
            srv.close()

    def test_constructor_validation(self, dataset):
        kb = MaterializedKB(Graph())
        with pytest.raises(ValueError, match="capacity"):
            KBServer(kb, capacity=0)
        with pytest.raises(ValueError, match="batch_size"):
            KBServer(kb, batch_size=0)


class TestLifecycle:
    def test_closed_server_rejects_submits(self, dataset):
        kb = MaterializedKB(dataset.ontology)
        kb.add(iter(dataset.data))
        srv = KBServer(kb)
        bgp = LUBM_QUERIES[0].parse().bgp
        assert srv.query(bgp)
        srv.close()
        with pytest.raises(ServerClosedError):
            srv.submit(bgp)

    def test_repr(self, server):
        assert "workers" in repr(server)


class TestLoadDriver:
    def test_run_load_reports(self, server):
        queries = [q.parse().bgp for q in LUBM_QUERIES[:6]]
        report = run_load(server, queries, concurrency=2,
                          requests_per_client=12, label="test")
        assert isinstance(report, LoadReport)
        assert report.completed == report.requests == 24
        assert report.rejected == 0
        assert report.qps > 0
        assert 0 < report.p50_ms <= report.p99_ms
        # closed-loop repeats of a 6-query mix must re-hit the caches
        assert report.cache_hit_rate > 0

    def test_run_load_validation(self, server):
        with pytest.raises(ValueError, match="concurrency"):
            run_load(server, [LUBM_QUERIES[0].parse().bgp], 0, 1)
        with pytest.raises(ValueError, match="at least one query"):
            run_load(server, [], 1, 1)

    def test_write_serving_bench(self, tmp_path):
        reports = [
            LoadReport(label="c1", concurrency=1, requests=10, completed=10,
                       rejected=0, duration_s=1.0, qps=10.0, p50_ms=1.0,
                       p99_ms=2.0, cache_hit_rate=0.5),
            LoadReport(label="c4", concurrency=4, requests=40, completed=40,
                       rejected=0, duration_s=1.0, qps=40.0, p50_ms=1.5,
                       p99_ms=3.0, cache_hit_rate=0.9),
        ]
        path = tmp_path / "BENCH_serving.json"
        payload = write_serving_bench(path, reports, meta={"k": 2})
        assert path.exists()
        assert payload["meta"] == {"k": 2}
        assert len(payload["levels"]) == 2
        # headline is the best-QPS level
        assert payload["headline"]["concurrency"] == 4
        assert payload["headline"]["qps"] == 40.0
        with pytest.raises(ValueError, match="at least one report"):
            write_serving_bench(path, [])
