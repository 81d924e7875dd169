"""Tests for the SPARQL-subset parser and the LUBM query battery."""

import pytest

from repro.datasets import LUBM
from repro.datasets.lubm_queries import LUBM_QUERIES, run_all
from repro.owl import MaterializedKB
from repro.rdf import Graph, Literal, URI, idquery, parse_sparql, run_sparql
from repro.rdf.sparql import SparqlParseError
from repro.rdf.turtle import RDF_TYPE

EX = "http://x.org/"
P = f"PREFIX ex: <{EX}>\n"


def u(name):
    return URI(EX + name)


@pytest.fixture
def graph():
    g = Graph()
    g.add_spo(u("alice"), RDF_TYPE, u("Person"))
    g.add_spo(u("bob"), RDF_TYPE, u("Person"))
    g.add_spo(u("alice"), u("knows"), u("bob"))
    g.add_spo(u("alice"), u("age"), Literal("42"))
    return g


class TestParsing:
    def test_select_projection(self):
        q = parse_sparql(P + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
        assert [v.name for v in q.projection] == ["a", "b"]
        assert q.form == "select"

    def test_select_star(self):
        q = parse_sparql(P + "SELECT * WHERE { ?a ex:knows ?b . }")
        assert q.projection == ()

    def test_where_keyword_optional(self):
        q = parse_sparql(P + "SELECT ?a { ?a ex:knows ?b }")
        assert q.form == "select"

    def test_ask(self):
        q = parse_sparql(P + "ASK { ?a ex:knows ?b }")
        assert q.form == "ask"

    def test_a_keyword(self):
        q = parse_sparql(P + "SELECT ?x WHERE { ?x a ex:Person . }")
        assert q.bgp.patterns[0].p == RDF_TYPE

    def test_semicolon_and_comma_lists(self):
        q = parse_sparql(
            P + "SELECT ?x WHERE { ?x a ex:Person ; ex:knows ?y, ?z . }"
        )
        assert len(q.bgp.patterns) == 3

    def test_literals(self):
        q = parse_sparql(P + 'SELECT ?x WHERE { ?x ex:age 42 . ?x ex:name "n"@en . }')
        assert len(q.bgp.patterns) == 2

    @pytest.mark.parametrize(
        "text,match",
        [
            ("SELECT ?x WHERE { ?x ?p ?y . FILTER(?y > 3) }", "FILTER"),
            ("SELECT ?x WHERE { OPTIONAL { ?x ?p ?y } }", "OPTIONAL"),
            ("CONSTRUCT { ?x ?p ?y } WHERE { ?x ?p ?y }", "CONSTRUCT"),
            ("SELECT WHERE { ?x ?p ?y }", "variables"),
            ("SELECT ?x WHERE { }", "empty graph pattern"),
            ("SELECT ?x WHERE { ?x zz:p ?y }", "unknown prefix"),
            ("nonsense", "expected SELECT or ASK"),
            ("", "empty query"),
        ],
    )
    def test_unsupported_and_malformed(self, text, match):
        with pytest.raises(SparqlParseError, match=match):
            parse_sparql(text)


class TestSolutionModifiers:
    def test_distinct_flag(self):
        q = parse_sparql(P + "SELECT DISTINCT ?a WHERE { ?a ex:knows ?b }")
        assert q.distinct is True
        assert [v.name for v in q.projection] == ["a"]
        plain = parse_sparql(P + "SELECT ?a WHERE { ?a ex:knows ?b }")
        assert plain.distinct is False

    def test_distinct_star(self):
        q = parse_sparql(P + "SELECT DISTINCT * WHERE { ?a ex:knows ?b }")
        assert q.distinct is True and q.projection == ()

    def test_limit_parsed(self):
        q = parse_sparql(P + "SELECT ?x WHERE { ?x a ex:Person } LIMIT 7")
        assert q.limit == 7
        assert parse_sparql(P + "SELECT ?x { ?x a ex:Person }").limit is None

    def test_limit_truncates_sorted_rows(self, graph):
        rows = run_sparql(
            graph, P + "SELECT ?x WHERE { ?x a ex:Person } LIMIT 1")
        # deterministic: the sorted result's first row, not an arbitrary one
        assert rows == [(u("alice"),)]
        assert run_sparql(
            graph, P + "SELECT ?x WHERE { ?x a ex:Person } LIMIT 0") == []

    def test_limit_larger_than_result(self, graph):
        rows = run_sparql(
            graph, P + "SELECT ?x WHERE { ?x a ex:Person } LIMIT 99")
        assert rows == [(u("alice"),), (u("bob"),)]

    def test_distinct_matches_plain_select(self, graph):
        # the engine already returns distinct rows, so DISTINCT is a no-op
        text = "SELECT %s ?x WHERE { ?x a ex:Person ; ex:knows ?y }"
        assert run_sparql(graph, P + text % "DISTINCT") == \
            run_sparql(graph, P + text % "")

    @pytest.mark.parametrize(
        "text,match",
        [
            ("ASK { ?x ?p ?y } LIMIT 2", "unexpected 'LIMIT'"),
            ("SELECT ?x { ?x ?p ?y } LIMIT -1", "non-negative integer"),
            ("SELECT ?x { ?x ?p ?y } LIMIT 1.5", "non-negative integer"),
            ("SELECT ?x { ?x ?p ?y } LIMIT", "non-negative integer"),
            ("SELECT ?x { ?x ?p ?y } LIMIT ?n", "non-negative integer"),
            ("SELECT REDUCED ?x { ?x ?p ?y }", "REDUCED"),
            ("SELECT ?x { ?x ?p ?y } OFFSET 2", "OFFSET"),
        ],
    )
    def test_modifier_errors_stay_pointed(self, text, match):
        with pytest.raises(SparqlParseError, match=match):
            parse_sparql(text)


class TestExecution:
    def test_select(self, graph):
        rows = run_sparql(graph, P + "SELECT ?x WHERE { ?x a ex:Person . }")
        assert rows == [(u("alice"),), (u("bob"),)]

    def test_ask_true_false(self, graph):
        assert run_sparql(graph, P + "ASK { ex:alice ex:knows ex:bob }") is True
        assert run_sparql(graph, P + "ASK { ex:bob ex:knows ex:alice }") is False

    def test_join(self, graph):
        rows = run_sparql(
            graph,
            P + "SELECT ?y WHERE { ?x a ex:Person . ?x ex:knows ?y . }",
        )
        assert rows == [(u("bob"),)]

    def test_select_star_sorted_by_var_name(self, graph):
        rows = run_sparql(graph, P + "SELECT * WHERE { ?b ex:knows ?a . }")
        # SELECT * projects variables sorted by name: (?a, ?b).
        assert rows == [(u("bob"), u("alice"))]

    def test_literal_constant(self, graph):
        rows = run_sparql(graph, P + 'SELECT ?x WHERE { ?x ex:age "42" . }')
        assert rows == [(u("alice"),)]


    def test_unchanged_graph_is_encoded_once(self, graph, monkeypatch):
        encodes = []
        encode_rows = idquery.encode_rows
        monkeypatch.setattr(idquery, "encode_rows", lambda d, rows: (
            encodes.append(1), encode_rows(d, rows))[1])
        q = parse_sparql(P + "SELECT ?x WHERE { ?x a ex:Person . }")
        first = q.select(graph)
        assert q.select(graph) == first and q.execute(graph)
        assert q.ask(graph) and len(encodes) == 1
        # A write moves the graph's version: the next call re-encodes.
        graph.add_spo(u("carol"), RDF_TYPE, u("Person"))
        assert (u("carol"),) in q.select(graph)
        assert len(encodes) == 2


class TestLUBMQueries:
    @pytest.fixture(scope="class")
    def kb(self):
        # cross_university_fraction=0 keeps every grad's undergrad degree
        # at the home university, guaranteeing Q2's triangle has answers
        # at this tiny scale.
        ds = LUBM(2, seed=0, departments_per_university=2,
                  faculty_per_department=2, students_per_faculty=3,
                  cross_university_fraction=0.0)
        kb = MaterializedKB(ds.ontology)
        kb.add(iter(ds.data))
        return ds, kb

    def test_all_queries_parse(self):
        for q in LUBM_QUERIES:
            q.parse()

    def test_fourteen_queries(self):
        assert len(LUBM_QUERIES) == 14
        assert len({q.name for q in LUBM_QUERIES}) == 14

    def test_inference_queries_empty_on_raw_graph(self, kb):
        ds, _ = kb
        for q in LUBM_QUERIES:
            if q.requires_inference:
                assert q.rows(ds.data) == [], q.name

    def test_all_queries_nonempty_on_materialized(self, kb):
        _, materialized = kb
        counts = run_all(materialized.graph)
        for q in LUBM_QUERIES:
            assert counts[q.name] > 0, q.name

    def test_materialization_preserves_raw_answers(self, kb):
        ds, materialized = kb
        for q in LUBM_QUERIES:
            if not q.requires_inference:
                assert set(q.rows(ds.data)) <= set(q.rows(materialized.graph))

    def test_q12_chair_is_purely_inferred(self, kb):
        ds, materialized = kb
        q12 = next(q for q in LUBM_QUERIES if q.name == "Q12")
        assert q12.rows(ds.data) == []
        # one chair per department of University0
        assert len(q12.rows(materialized.graph)) == 2
