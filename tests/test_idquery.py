"""Differential tests: the id-native vectorized BGP engine
(:mod:`repro.rdf.idquery`) against the term-level :class:`BGPQuery` oracle
— random graphs via hypothesis, the full LUBM battery, and probe-count
equality under ``ordering="bound"``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.ast import Atom
from repro.datasets import LUBM
from repro.datasets.lubm_queries import LUBM_QUERIES
from repro.owl import MaterializedKB
from repro.rdf import BGPQuery, Graph, URI
from repro.rdf.idquery import IdBGPQuery, IdIndex, join_pattern
from repro.rdf.idstore import IdGraph
from repro.rdf.terms import Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def u(name):
    return URI(f"ex:{name}")


def rows_of(solutions, variables):
    """Order-insensitive comparable form of a solution list."""
    return sorted(
        tuple(sol[v] for v in variables) for sol in solutions
    )


@pytest.fixture
def graph():
    g = Graph()
    g.add_spo(u("alice"), u("knows"), u("bob"))
    g.add_spo(u("bob"), u("knows"), u("carol"))
    g.add_spo(u("alice"), u("age"), u("n42"))
    g.add_spo(u("carol"), u("age"), u("n42"))
    return g


class TestIdBGPQuery:
    def test_matches_term_engine(self, graph):
        q = [Atom(X, u("knows"), Y), Atom(Y, u("knows"), Z)]
        expected = rows_of(BGPQuery(q).execute(graph), (X, Y, Z))
        got = rows_of(IdIndex(graph).execute(q), (X, Y, Z))
        assert got == expected == [(u("alice"), u("bob"), u("carol"))]

    def test_unknown_constant_short_circuits(self, graph):
        index = IdIndex(graph)
        _, stats = index.execute_with_stats([Atom(X, u("nope"), Y)])
        assert stats.solutions == 0
        assert stats.index_probes == 0

    def test_repeated_variable_filter(self, graph):
        graph.add_spo(u("dave"), u("knows"), u("dave"))
        q = [Atom(X, u("knows"), X)]
        expected = rows_of(BGPQuery(q).execute(graph), (X,))
        assert rows_of(IdIndex(graph).execute(q), (X,)) == expected
        assert expected == [(u("dave"),)]

    def test_initial_bindings(self, graph):
        q = [Atom(X, u("knows"), Y)]
        got = IdIndex(graph).execute(q, bindings={X: u("bob")})
        assert rows_of(got, (X, Y)) == [(u("bob"), u("carol"))]

    def test_unknown_binding_term_is_empty(self, graph):
        got = IdIndex(graph).execute(
            [Atom(X, u("knows"), Y)], bindings={X: u("nobody")})
        assert got == []

    def test_select_sorted_distinct(self, graph):
        q = [Atom(X, u("age"), Y)]
        index = IdIndex(graph)
        assert index.select(q, Y) == [(u("n42"),)]
        assert index.select(q, X, Y) == BGPQuery(q).select(graph, X, Y)

    def test_select_validates_projection(self, graph):
        index = IdIndex(graph)
        with pytest.raises(ValueError, match="not in query"):
            index.select([Atom(X, u("knows"), Y)], Z)
        with pytest.raises(ValueError, match="at least one"):
            index.select([Atom(X, u("knows"), Y)])

    def test_ask_and_count(self, graph):
        index = IdIndex(graph)
        assert index.ask([Atom(u("alice"), u("knows"), u("bob"))]) is True
        assert index.ask([Atom(u("bob"), u("knows"), u("alice"))]) is False
        assert index.count([Atom(X, u("age"), Y)]) == 2

    def test_no_items_pattern_is_cartesian(self, graph):
        # (?x ?y ?z) after a bound pattern: full-store cross product
        q = [Atom(u("alice"), u("knows"), X), Atom(Y, Z, Variable("w"))]
        expected = rows_of(BGPQuery(q).execute(graph), (X, Y, Z))
        assert rows_of(IdIndex(graph).execute(q), (X, Y, Z)) == expected

    def test_constructor_validation(self, graph):
        index = IdIndex(graph)
        dictionary, _store = index.current()
        with pytest.raises(ValueError, match="at least one pattern"):
            IdBGPQuery([], dictionary)
        with pytest.raises(TypeError, match="must be an Atom"):
            IdBGPQuery(["nope"], dictionary)
        with pytest.raises(ValueError, match="ordering"):
            IdBGPQuery([Atom(X, Y, Z)], dictionary, ordering="bogus")

    def test_bound_ordering_matches_term_probe_counts(self, graph):
        q = [Atom(X, u("knows"), Y), Atom(Y, u("age"), Z)]
        _, term_stats = BGPQuery(q).execute_with_stats(graph)
        _, id_stats = IdIndex(graph, ordering="bound").execute_with_stats(q)
        assert id_stats.index_probes == term_stats.index_probes
        assert id_stats.solutions == term_stats.solutions


class TestJoinPattern:
    """The shared kernel, driven directly (as the distributed
    coordinator does)."""

    def test_extends_env(self):
        store = IdGraph()
        store.add_rows(
            np.asarray([1, 1, 2], dtype=np.int64),
            np.asarray([7, 7, 7], dtype=np.int64),
            np.asarray([2, 3, 3], dtype=np.int64),
        )
        env = {X: np.asarray([1], dtype=np.int64)}
        env, n, probes = join_pattern(
            store, Atom(X, u("p"), Y), env, 1, {u("p"): 7}.get)
        assert n == 2 and probes == 2
        assert sorted(env[Y].tolist()) == [2, 3]

    def test_dead_constant(self):
        store = IdGraph()
        env, n, probes = join_pattern(
            store, Atom(X, u("gone"), Y), {}, 1, {}.get)
        assert (n, probes) == (0, 0) and env == {}


class TestIdIndex:
    def test_rebuilds_on_graph_version(self, graph):
        index = IdIndex(graph)
        q = [Atom(X, u("knows"), Y)]
        assert index.count(q) == 2
        first = index.current()
        assert index.current() is first  # cached while version unchanged
        graph.add_spo(u("carol"), u("knows"), u("dave"))
        assert index.count(q) == 3  # transparently rebuilt
        assert index.current() is not first

    def test_run_store_matches_dense(self, graph):
        q = [Atom(X, u("knows"), Y), Atom(Y, u("age"), Z)]
        dense = IdIndex(graph, store="dense")
        run = IdIndex(graph, store="run")
        assert rows_of(run.execute(q), (X, Y, Z)) == \
            rows_of(dense.execute(q), (X, Y, Z))

    def test_store_kind_validated(self, graph):
        with pytest.raises(ValueError, match="dense"):
            IdIndex(graph, store="columnar")

    def test_live_owner_rejects_a_mirror_store_kind(self):
        with pytest.raises(ValueError, match="id-native owner"):
            IdIndex(MaterializedKB(Graph()), store="run")


# -- hypothesis: random graphs, random conjunctive queries -------------------

_terms = st.integers(min_value=0, max_value=5).map(lambda i: u(f"t{i}"))
_vars = st.sampled_from([X, Y, Z])
_slot = st.one_of(_vars, _terms)
_atoms = st.builds(Atom, _slot, _slot, _slot)
_triples = st.tuples(_terms, _terms, _terms)


@settings(max_examples=60, deadline=None)
@given(
    triples=st.lists(_triples, max_size=25),
    patterns=st.lists(_atoms, min_size=1, max_size=3),
)
def test_random_differential(triples, patterns):
    g = Graph()
    for s, p, o in triples:
        g.add_spo(s, p, o)
    variables = tuple(sorted(
        {v for pat in patterns for v in pat.variables()},
        key=lambda v: v.name))
    expected = rows_of(BGPQuery(patterns).execute(g), variables)
    for store in ("dense", "run"):
        got = rows_of(IdIndex(g, store=store).execute(patterns), variables)
        assert got == expected, store


@settings(max_examples=30, deadline=None)
@given(
    triples=st.lists(_triples, min_size=1, max_size=25),
    patterns=st.lists(_atoms, min_size=1, max_size=3),
)
def test_random_probe_count_equality(triples, patterns):
    """Under ordering="bound" the vectorized engine does the same probe
    work as the term engine — same join order, same candidate rows."""
    g = Graph()
    for s, p, o in triples:
        g.add_spo(s, p, o)
    _, term_stats = BGPQuery(patterns).execute_with_stats(g)
    _, id_stats = IdIndex(g, ordering="bound").execute_with_stats(patterns)
    assert id_stats.index_probes == term_stats.index_probes
    assert id_stats.solutions == term_stats.solutions


# -- the LUBM battery ---------------------------------------------------------

class TestLUBMBattery:
    @pytest.fixture(scope="class")
    def kb(self):
        ds = LUBM(2, seed=0, departments_per_university=2,
                  faculty_per_department=2, students_per_faculty=3,
                  cross_university_fraction=0.0)
        kb = MaterializedKB(ds.ontology)
        kb.add(iter(ds.data))
        return kb

    @pytest.mark.parametrize("store", ["dense", "run"])
    def test_all_fourteen_queries_match(self, kb, store):
        index = IdIndex(kb.graph, store=store)
        for q in LUBM_QUERIES:
            bgp = q.parse().bgp
            variables = tuple(sorted(bgp.variables(), key=lambda v: v.name))
            expected = rows_of(bgp.execute(kb.graph), variables)
            assert rows_of(index.execute(bgp), variables) == expected, q.name
            assert expected, f"{q.name} should have answers"

    def test_probe_counts_match_term_engine(self, kb):
        index = IdIndex(kb.graph, ordering="bound")
        for q in LUBM_QUERIES:
            bgp = q.parse().bgp
            _, term_stats = bgp.execute_with_stats(kb.graph)
            _, id_stats = index.execute_with_stats(bgp)
            assert id_stats.index_probes == term_stats.index_probes, q.name
            assert id_stats.solutions == term_stats.solutions, q.name
