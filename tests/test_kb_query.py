"""Tests for the materialized KB and the BGP query layer."""

import pytest

from repro.datalog.ast import Atom
from repro.datalog.join import order_patterns
from repro.datasets import LUBM
from repro.datasets.lubm import UB
from repro.owl import HorstReasoner, MaterializedKB
from repro.owl.vocabulary import OWL, RDF, RDFS
from repro.rdf import BGPQuery, Graph, Triple, URI
from repro.rdf.terms import Variable


def u(name):
    return URI(f"ex:{name}")


X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture
def tbox():
    g = Graph()
    g.add_spo(u("partOf"), RDF.type, OWL.TransitiveProperty)
    g.add_spo(u("Widget"), RDFS.subClassOf, u("Thing"))
    return g


def chain_triples(n, pred="partOf"):
    return [
        Triple(u(f"n{i}"), u(pred), u(f"n{i + 1}")) for i in range(n)
    ]


class TestBGPQuery:
    @pytest.fixture
    def graph(self):
        g = Graph()
        g.add_spo(u("alice"), u("knows"), u("bob"))
        g.add_spo(u("bob"), u("knows"), u("carol"))
        g.add_spo(u("alice"), RDF.type, u("Person"))
        g.add_spo(u("bob"), RDF.type, u("Person"))
        return g

    def test_single_pattern(self, graph):
        q = BGPQuery([Atom(X, u("knows"), Y)])
        assert q.count(graph) == 2

    def test_join(self, graph):
        q = BGPQuery([Atom(X, u("knows"), Y), Atom(Y, u("knows"), Z)])
        rows = list(q.execute(graph))
        assert len(rows) == 1
        assert rows[0][X] == u("alice") and rows[0][Z] == u("carol")

    def test_star_query(self, graph):
        q = BGPQuery([Atom(X, u("knows"), Y), Atom(X, RDF.type, u("Person"))])
        assert q.count(graph) == 2

    def test_no_solutions(self, graph):
        q = BGPQuery([Atom(X, u("hates"), Y)])
        assert q.count(graph) == 0
        assert not q.ask(graph)

    def test_ask(self, graph):
        assert BGPQuery([Atom(u("alice"), u("knows"), X)]).ask(graph)

    def test_select_projects_and_sorts(self, graph):
        q = BGPQuery([Atom(X, RDF.type, u("Person"))])
        rows = q.select(graph, X)
        assert rows == [(u("alice"),), (u("bob"),)]

    def test_select_unknown_variable_rejected(self, graph):
        q = BGPQuery([Atom(X, u("knows"), Y)])
        with pytest.raises(ValueError, match="not in query"):
            q.select(graph, Z)

    def test_initial_bindings_restrict(self, graph):
        q = BGPQuery([Atom(X, u("knows"), Y)])
        rows = list(q.execute(graph, bindings={X: u("bob")}))
        assert len(rows) == 1 and rows[0][Y] == u("carol")

    def test_empty_pattern_list_rejected(self):
        with pytest.raises(ValueError):
            BGPQuery([])

    def test_stats_count_probes(self, graph):
        q = BGPQuery([Atom(X, u("knows"), Y), Atom(Y, u("knows"), Z)])
        solutions, stats = q.execute_with_stats(graph)
        assert stats.solutions == len(solutions) == 1
        assert stats.index_probes > 0
        assert stats.patterns == 2

    def test_ordering_prefers_bound_patterns(self, graph):
        """The ground-subject pattern must be evaluated first regardless of
        the order it was written in."""
        q = BGPQuery([Atom(X, u("knows"), Y), Atom(u("alice"), u("knows"), X)])
        ordered = order_patterns(q.patterns)
        assert ordered[0].s == u("alice")


class TestMaterializedKB:
    def test_incremental_equals_bulk(self, tbox):
        triples = chain_triples(6)
        bulk = MaterializedKB(tbox)
        bulk.add(triples)
        incremental = MaterializedKB(tbox)
        for t in triples:
            incremental.add([t])
        assert bulk.graph == incremental.graph

    def test_matches_serial_reasoner(self, tbox):
        triples = chain_triples(5)
        kb = MaterializedKB(tbox)
        kb.add(triples)
        serial = HorstReasoner(tbox).materialize(Graph(triples))
        assert kb.graph == serial.graph

    def test_add_returns_new_base_count(self, tbox):
        kb = MaterializedKB(tbox)
        assert kb.add(chain_triples(3)) == 3
        assert kb.add(chain_triples(3)) == 0  # duplicates

    def test_sizes(self, tbox):
        kb = MaterializedKB(tbox)
        kb.add(chain_triples(4))
        assert kb.base_size == 4
        assert kb.size == 10  # C(5,2)
        assert kb.inferred_size == 6

    def test_incremental_load_work_is_local(self, tbox):
        """Adding one triple must not re-derive the whole closure."""
        kb = MaterializedKB(tbox)
        kb.add(chain_triples(30))
        full_work = kb.total_stats.work
        kb.add([Triple(u("n30"), u("partOf"), u("n31"))])
        assert kb.last_load_stats.work < full_work / 3

    def test_query_api(self, tbox):
        kb = MaterializedKB(tbox)
        kb.add(chain_triples(3))
        assert kb.ask([Atom(u("n0"), u("partOf"), u("n3"))])
        rows = list(kb.query([Atom(u("n0"), u("partOf"), X)]))
        assert len(rows) == 3

    def test_match_api(self, tbox):
        kb = MaterializedKB(tbox)
        kb.add(chain_triples(3))
        assert len(list(kb.match(s=u("n0")))) == 3

    def test_rebuild_after_base_retraction(self, tbox):
        kb = MaterializedKB(tbox)
        kb.add(chain_triples(4))
        kb.apply(removes=[Triple(u("n1"), u("partOf"), u("n2"))])
        assert Triple(u("n0"), u("partOf"), u("n4")) not in kb
        assert Triple(u("n2"), u("partOf"), u("n4")) in kb
        applied = kb.graph
        kb.rebuild()
        assert kb.graph == applied

    def test_parallel_bulk_load_equals_serial(self, tbox):
        data = Graph(chain_triples(8))
        parallel = MaterializedKB(tbox)
        parallel.bulk_load(data, parallel_k=3)
        serial = MaterializedKB(tbox)
        serial.bulk_load(data)
        assert parallel.graph == serial.graph

    def test_parallel_bulk_load_requires_empty(self, tbox):
        kb = MaterializedKB(tbox)
        kb.add(chain_triples(2))
        with pytest.raises(RuntimeError):
            kb.bulk_load(Graph(chain_triples(3)), parallel_k=2)

    def test_repr(self, tbox):
        kb = MaterializedKB(tbox)
        kb.add(chain_triples(2))
        assert "base=2" in repr(kb)


class TestKBOnLUBM:
    def test_lubm_queries(self):
        ds = LUBM(2, seed=0, departments_per_university=1,
                  faculty_per_department=2, students_per_faculty=3)
        kb = MaterializedKB(ds.ontology)
        kb.add(iter(ds.data))
        # LUBM query 4-ish: professors and who they work for (inferred
        # memberOf via the subproperty chain headOf < worksFor < memberOf).
        q = BGPQuery([
            Atom(X, RDF.type, UB.Professor),
            Atom(X, UB.memberOf, Y),
        ])
        solutions = list(q.execute(kb.graph))
        assert solutions, "subproperty + subclass closure must enable this"
        # Chairs are inferred, not asserted:
        assert kb.ask([Atom(X, RDF.type, UB.Chair)])
