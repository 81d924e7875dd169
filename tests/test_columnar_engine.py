"""Id-native columnar closure: store, bulk dictionary APIs, and the
differential property tests proving the columnar fixpoint — driven
directly, through the term-graph adapter (``SemiNaiveEngine``), and
through the id-native parallel workers — computes the naive oracle's
fixpoint with the same work accounting.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import NaiveEngine, SemiNaiveEngine, parse_rules
from repro.datalog.columnar import ColumnarEngine
from repro.datasets import LUBM
from repro.datasets.lubm import lubm_ontology
from repro.owl.compiler import compile_ontology
from repro.owl.reasoner import HorstReasoner
from repro.owl.vocabulary import OWL, RDF, RDFS
from repro.parallel.driver import ParallelReasoner
from repro.rdf import Graph, Triple, URI
from repro.rdf.dictionary import EncodedGraph, PartitionDictionary, TermDictionary
from repro.rdf.idstore import IdGraph, expand_ranges, member_mask, pack_columns

PREFIX = "@prefix ex: <ex:>\n"
TRANS = parse_rules(PREFIX + "[t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]")

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


def chain(n, pred="ex:p"):
    g = Graph()
    for i in range(n):
        g.add_spo(URI(f"ex:n{i}"), URI(pred), URI(f"ex:n{i + 1}"))
    return g


def arr(*vals):
    return np.asarray(vals, dtype=np.int64)


# -- the columnar store ------------------------------------------------------


class TestIdGraph:
    def test_add_rows_dedups_batch_and_store(self):
        g = IdGraph()
        added = g.add_rows(arr(1, 1, 2), arr(5, 5, 5), arr(3, 3, 4))
        assert len(added[0]) == 2  # (1,5,3) twice in the batch
        assert len(g) == 2
        added = g.add_rows(arr(1, 9), arr(5, 9), arr(3, 9))
        assert len(added[0]) == 1  # (1,5,3) already stored
        assert len(g) == 3

    def test_contains_rows(self):
        g = IdGraph()
        g.add_rows(arr(1, 2), arr(5, 5), arr(3, 4))
        mask = g.contains_rows(arr(1, 2, 2), arr(5, 5, 5), arr(3, 3, 4))
        assert mask.tolist() == [True, False, True]

    def test_range_lookup_matches_linear_scan(self):
        g = IdGraph()
        g.add_rows(arr(1, 1, 2, 3), arr(5, 6, 5, 5), arr(7, 8, 7, 9))
        rows, reps = g.range_lookup((1,), arr(5, 6))
        s, p, o = g.columns()
        assert sorted(p[rows].tolist()) == [5, 5, 5, 6]
        # reps maps every hit back to its query.
        assert all(p[r] == [5, 6][q] for r, q in zip(rows, reps))

    def test_multi_column_view_is_lexicographic(self):
        g = IdGraph()
        g.add_rows(arr(2, 1, 1), arr(5, 5, 5), arr(0, 9, 1))
        keys, perm = g.sorted_view((0, 2))
        s, _p, o = g.columns()
        pairs = [(int(s[i]), int(o[i])) for i in perm]
        assert pairs == sorted(pairs)

    def test_views_invalidated_by_append(self):
        g = IdGraph()
        g.add_rows(arr(1), arr(5), arr(3))
        g.sorted_view((0, 1, 2))
        g.add_rows(arr(2), arr(5), arr(4))
        assert g.contains_rows(arr(2), arr(5), arr(4)).tolist() == [True]

    def test_expand_ranges(self):
        flat, reps = expand_ranges(arr(0, 5, 5), arr(2, 5, 8))
        assert flat.tolist() == [0, 1, 5, 6, 7]
        assert reps.tolist() == [0, 0, 2, 2, 2]

    def test_member_mask_single_and_packed(self):
        assert member_mask(arr(1, 3, 5), arr(0, 3, 6)).tolist() == [
            False, True, False]
        keys = np.sort(pack_columns((arr(1, 2), arr(5, 6))))
        q = pack_columns((arr(1, 2), arr(6, 6)))
        assert member_mask(keys, q).tolist() == [False, True]


# -- bulk dictionary APIs (satellite) ----------------------------------------


class TestBulkDictionary:
    def test_encode_many_decode_many_roundtrip(self):
        d = TermDictionary()
        terms = [URI("ex:a"), URI("ex:b"), URI("ex:a")]
        ids = d.encode_many(terms)
        assert ids.tolist() == [0, 1, 0]
        assert d.decode_many(ids) == terms

    def test_encode_many_matches_scalar_encode(self):
        d1, d2 = TermDictionary(), TermDictionary()
        terms = [URI(f"ex:t{i % 4}") for i in range(10)]
        assert d1.encode_many(terms).tolist() == [d2.encode(t) for t in terms]

    def test_partition_decode_many_spans_stripes(self):
        base = TermDictionary()
        base.encode(URI("ex:base"))
        d = PartitionDictionary(base, node_id=0, k=2)
        minted = d.encode(URI("ex:minted"))
        ids = arr(0, minted)
        assert d.decode_many(ids) == [URI("ex:base"), URI("ex:minted")]

    def test_canonical_ids_resolve_peer_aliases(self):
        base = TermDictionary()
        base.encode(URI("ex:base"))
        d = PartitionDictionary(base, node_id=0, k=2)
        local = d.encode(URI("ex:fresh"))
        # A peer minted a different id for the same term; after the delta
        # registers it, canonicalization maps it onto the local id.
        peer_id = 1 + 1 * 2 + 1  # base_size + j*k + node 1
        d.apply_delta([(peer_id, URI("ex:fresh"))])
        assert d.canonical_ids(arr(0, peer_id, local)).tolist() == [
            0, local, local]

    def test_kind_masks_cover_minted_ids(self):
        from repro.rdf import Literal

        base = TermDictionary()
        base.encode(URI("ex:u"))
        d = PartitionDictionary(base, node_id=0, k=1)
        lit = d.encode(Literal("x"))
        assert d.resource_mask(arr(0, lit)).tolist() == [True, False]
        assert d.uri_mask(arr(0, lit)).tolist() == [True, False]


class TestEncodedGraphCache:
    def test_views_cached_and_invalidated_by_append(self):
        g = chain(3)
        eg = EncodedGraph.from_triples(iter(g))
        first = eg.resource_ids()
        assert eg.resource_ids() is first  # cached object identity
        edges = eg.edges()
        assert eg.edges() is edges
        n = eg.append([Triple(URI("ex:n9"), URI("ex:p"), URI("ex:n0"))])
        assert n == 1
        assert eg.resource_ids() is not first
        assert URI("ex:n9") in [eg.dictionary.decode(int(i))
                                for i in eg.resource_ids()]

    def test_append_empty_keeps_cache(self):
        eg = EncodedGraph.from_triples(iter(chain(2)))
        first = eg.resource_ids()
        assert eg.append([]) == 0
        assert eg.resource_ids() is first


# -- serial columnar engine ---------------------------------------------------


def _run_columnar(rules, graph):
    d = TermDictionary()
    idg = IdGraph()
    enc = d.encode
    cols = np.asarray(
        [[enc(t.s), enc(t.p), enc(t.o)] for t in graph], dtype=np.int64
    ).reshape(-1, 3)
    idg.add_rows(cols[:, 0], cols[:, 1], cols[:, 2])
    result = ColumnarEngine(rules, d).run(idg)
    s, p, o = idg.columns()
    out = Graph()
    for st_, pt, ot in zip(d.decode_many(s), d.decode_many(p), d.decode_many(o)):
        out.add(Triple(st_, pt, ot))
    return out, result.stats


class TestColumnarEngine:
    def test_transitive_chain_closure(self):
        out, _stats = _run_columnar(TRANS, chain(5))
        assert len(out) == 15

    def test_engine_kind_selection(self):
        # There is one engine: the execution-layer keywords are gone.
        with pytest.raises(TypeError):
            SemiNaiveEngine(TRANS, engine="columnar")
        with pytest.raises(TypeError):
            SemiNaiveEngine(TRANS, compile_rules=False)

    def test_stats_match_compiled_field_by_field(self):
        # The term-graph adapter reports the columnar engine's stats, and
        # both equal the numbers the deleted compiled kernels reported.
        g = chain(8)
        adapter = SemiNaiveEngine(TRANS).run(g)
        out, direct = _run_columnar(TRANS, chain(8))
        assert g == out
        assert adapter.stats == direct
        assert (direct.iterations, direct.firings, direct.derived,
                direct.join_probes, direct.rules_dispatched,
                direct.rules_skipped) == (4, 84, 28, 156, 4, 0)

    def test_mirror_survives_incremental_deltas(self):
        base = chain(4)
        full = chain(5)
        SemiNaiveEngine(TRANS).run(full)
        engine = SemiNaiveEngine(TRANS)
        engine.run(base)
        engine.run(base, delta=[Triple(URI("ex:n4"), URI("ex:p"), URI("ex:n5"))])
        assert base == full

    def test_external_mutation_invalidates_mirror(self):
        # Mutating the graph between runs must be seen by the resumed
        # fixpoint (every run encodes the graph as it is): the delta
        # reaches every node through the external edge, while pairs that
        # need the external edge alone are not re-derived (it was never
        # part of a delta).
        g_cols = chain(3)
        columnar = SemiNaiveEngine(TRANS)
        columnar.run(g_cols)
        extra = Triple(URI("ex:n3"), URI("ex:p"), URI("ex:n4"))
        g_cols.add(extra)
        delta = [Triple(URI("ex:n4"), URI("ex:p"), URI("ex:n5"))]
        columnar.run(g_cols, delta=list(delta))
        expected = chain(3)
        NaiveEngine(TRANS).run(expected)
        expected.update([extra, *delta])
        expected.update(Triple(URI(f"ex:n{i}"), URI("ex:p"), URI("ex:n5"))
                        for i in range(4))
        assert g_cols == expected
        # The external edge is visible to the resumed fixpoint: the delta
        # join reaches through it (n3-n5 via the mutated edge).
        assert Triple(URI("ex:n3"), URI("ex:p"), URI("ex:n5")) in g_cols


# -- differential property tests ----------------------------------------------

EX = "http://example.org/diff#"


def _rich_tbox() -> Graph:
    g = Graph()
    g.add_spo(URI(EX + "Student"), RDFS.subClassOf, URI(EX + "Person"))
    g.add_spo(URI(EX + "Person"), RDFS.subClassOf, URI(EX + "Agent"))
    g.add_spo(URI(EX + "advisor"), RDFS.domain, URI(EX + "Student"))
    g.add_spo(URI(EX + "advisor"), RDFS.range, URI(EX + "Person"))
    g.add_spo(URI(EX + "knows"), RDF.type, OWL.SymmetricProperty)
    g.add_spo(URI(EX + "partOf"), RDF.type, OWL.TransitiveProperty)
    g.add_spo(URI(EX + "advisor"), OWL.inverseOf, URI(EX + "advises"))
    g.add_spo(URI(EX + "hasId"), RDF.type, OWL.InverseFunctionalProperty)
    return g


HORST_RULES = compile_ontology(_rich_tbox(), include_sameas_propagation=True).rules

_individuals = st.integers(min_value=0, max_value=6).map(
    lambda i: URI(f"{EX}ind{i}")
)
_classes = st.sampled_from(
    [URI(EX + "Student"), URI(EX + "Person"), URI(EX + "Agent")]
)
_ids = st.integers(min_value=0, max_value=2).map(lambda i: URI(f"{EX}id{i}"))

_instance_triples = st.one_of(
    st.tuples(
        _individuals,
        st.sampled_from(
            [
                URI(EX + "advisor"),
                URI(EX + "advises"),
                URI(EX + "knows"),
                URI(EX + "partOf"),
            ]
        ),
        _individuals,
    ),
    st.tuples(_individuals, st.just(RDF.type), _classes),
    st.tuples(_individuals, st.just(URI(EX + "hasId")), _ids),
)


@st.composite
def _instance_graphs(draw):
    triples = draw(st.lists(_instance_triples, min_size=0, max_size=18))
    g = Graph()
    for s, p, o in triples:
        g.add_spo(s, p, o)
    return g


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(_instance_graphs())
    def test_four_layers_agree_on_full_horst_set(self, data):
        # The naive oracle; the columnar engine driven directly; and the
        # term-graph adapter over the dense and the run store.
        g_naive = data.copy()
        g_dense = data.copy()
        g_run = data.copy()
        NaiveEngine(HORST_RULES).run(g_naive)
        g_direct, direct = _run_columnar(HORST_RULES, data)
        dense = SemiNaiveEngine(HORST_RULES).run(g_dense)
        run = SemiNaiveEngine(HORST_RULES, store="run").run(g_run)
        assert g_naive == g_direct == g_dense == g_run
        # Identical accounting, field by field, on every layer.
        assert dense.stats == direct == run.stats

    @settings(max_examples=10, deadline=None)
    @given(_instance_graphs(), _instance_graphs())
    def test_columnar_delta_resume_agrees(self, base, extra):
        full = base.copy()
        full.update(iter(extra))
        SemiNaiveEngine(HORST_RULES).run(full)

        resumed = base.copy()
        engine = SemiNaiveEngine(HORST_RULES)
        engine.run(resumed)
        engine.run(resumed, delta=list(extra))
        assert resumed == full

    @settings(max_examples=10, deadline=None)
    @given(_instance_graphs())
    def test_parallel_workers_match_serial_closure(self, data):
        tbox = _rich_tbox()
        mixed = Graph(list(tbox) + list(data))
        serial = HorstReasoner(tbox).materialize(data)
        reasoner = ParallelReasoner(tbox, k=3)
        run = reasoner.materialize(mixed)
        assert set(run.graph) == (
            set(serial.graph) | set(reasoner.compiled.schema) | set(tbox))

    def test_lubm1_closure_matches_compiled(self):
        # The naive oracle's closure, with the join_probes / firings the
        # deleted compiled kernels reported on the same input.
        data = LUBM(1).data
        onto = lubm_ontology()
        reasoner = HorstReasoner(onto)
        columnar = reasoner.materialize(data)
        oracle = data.copy()
        NaiveEngine(reasoner.rules).run(oracle)
        assert columnar.graph == oracle
        assert columnar.engine_stats.join_probes == 2416
        assert columnar.engine_stats.firings == 2392


# -- id-native parallel workers across process boundaries ---------------------


def _mp_tbox():
    g = Graph()
    g.add_spo(URI("ex:partOf"), RDF.type, OWL.TransitiveProperty)
    g.add_spo(URI("ex:linkedTo"), RDF.type, OWL.SymmetricProperty)
    return g


def _mp_data():
    g = Graph()
    for c in range(2):
        for i in range(6):
            g.add_spo(URI(f"ex:c{c}n{i}"), URI("ex:partOf"),
                      URI(f"ex:c{c}n{i + 1}"))
    g.add_spo(URI("ex:c0n6"), URI("ex:partOf"), URI("ex:c1n0"))
    g.add_spo(URI("ex:c0n0"), URI("ex:linkedTo"), URI("ex:c1n3"))
    return g


class TestIdNativeWorkers:
    def test_worker_decodes_only_at_output(self):
        from repro.parallel.routing import BroadcastRouter
        from repro.parallel.worker import PartitionWorker

        base = TermDictionary()
        data = _mp_data()
        for t in data:
            base.encode(t.s), base.encode(t.p), base.encode(t.o)
        w = PartitionWorker(
            0, data, compile_ontology(_mp_tbox()).rules, BroadcastRouter(1),
            dictionary=PartitionDictionary(base, 0, 1),
        )
        w.bootstrap()
        serial = HorstReasoner(_mp_tbox()).materialize(data)
        assert set(w.output_graph()) == set(serial.graph)

    def test_async_inprocess_shuffle_matches_lockstep(self):
        tbox, data = _mp_tbox(), _mp_data()
        mixed = Graph(list(tbox) + list(data))
        ref = ParallelReasoner(tbox, k=3).materialize(mixed)
        res = ParallelReasoner(tbox, k=3).materialize_async(
            mixed, delivery="shuffle")
        assert set(res.graph) == set(ref.graph)

    @pytest.mark.slow
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_multiprocess_id_native_matches_serial(self, start_method):
        tbox, data = _mp_tbox(), _mp_data()
        mixed = Graph(list(tbox) + list(data))
        serial = HorstReasoner(tbox).materialize(data)
        res = ParallelReasoner(tbox, k=2).materialize_async(
            mixed, multiprocess=True, start_method=start_method)
        expect = set(serial.graph) | set(
            compile_ontology(tbox).schema) | set(tbox)
        assert set(res.graph) == expect
