"""DRed incremental maintenance (``MaterializedKB.apply`` over
``dred_id``, and the distributed variant).

The central property is differential: for any closure and any
``(adds, removes)`` batch, ``apply`` must land on exactly the closure a
full :meth:`MaterializedKB.rebuild` computes from the retained base, and
on the ``NaiveEngine`` closure of that base — over both store kinds
(dense, run), with the work counters equal field by field between them
and equal to a direct ``dred_id`` call on a copy of the same store.
Around that sit the deletion-layer units (IdGraph compaction, RunStore
tombstones) and the ``Graph.discard`` audit the ``SemiNaiveEngine``
adapter's version-keyed mirror cache relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.columnar import ColumnarEngine
from repro.datalog.engine import EngineStats, SemiNaiveEngine
from repro.datalog.incremental import dred_id
from repro.datalog.naive import NaiveEngine
from repro.datalog.parser import parse_rules
from repro.owl.kb import MaterializedKB
from repro.owl.vocabulary import OWL, RDF, RDFS
from repro.rdf import Graph, Triple, URI
from repro.rdf.idstore import IdGraph
from repro.rdf.runstore import RunStore

from tests.helpers import apply_shuffled, plan_spec

# --- fixtures ----------------------------------------------------------------

TRANS = parse_rules(
    """@prefix ex: <ex:>
[t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]"""
)


def _horst_tbox() -> Graph:
    """A TBox exercising transitivity, class/property hierarchies and
    domain typing — enough Horst rules that overdeletion cascades cross
    predicates."""
    t = Graph()
    t.add_spo(URI("ex:partOf"), RDF.type, OWL.TransitiveProperty)
    t.add_spo(URI("ex:properPartOf"), RDFS.subPropertyOf, URI("ex:partOf"))
    t.add_spo(URI("ex:Student"), RDFS.subClassOf, URI("ex:Person"))
    t.add_spo(URI("ex:Person"), RDFS.subClassOf, URI("ex:Agent"))
    t.add_spo(URI("ex:enrolledIn"), RDFS.domain, URI("ex:Student"))
    return t


_nodes = st.builds(lambda i: URI(f"n:{i}"), st.integers(0, 10))
_preds = st.sampled_from(
    [URI("ex:partOf"), URI("ex:properPartOf"), URI("ex:enrolledIn"),
     RDF.type]
)
_objs = st.builds(lambda i: URI(f"n:{i}"), st.integers(0, 10)) | st.sampled_from(
    [URI("ex:Student"), URI("ex:Person")]
)
_triples = st.builds(Triple, _nodes, _preds, _objs)

ENGINE_CONFIGS = [
    ("dense", dict(store="dense")),
    ("run", dict(store="run")),
]


def _kb(tbox: Graph, config: dict) -> MaterializedKB:
    return MaterializedKB(tbox, **config)


# --- differential: apply == rebuild ------------------------------------------


@pytest.mark.parametrize("name,config", ENGINE_CONFIGS)
@settings(max_examples=25, deadline=None)
@given(
    base=st.lists(_triples, min_size=1, max_size=25),
    adds=st.lists(_triples, max_size=6),
    data=st.data(),
)
def test_apply_matches_rebuild(name, config, base, adds, data):
    tbox = _horst_tbox()
    kb = _kb(tbox, config)
    kb.add(base)
    pool = list(kb.base_graph)
    removes = data.draw(
        st.lists(st.sampled_from(pool), max_size=5, unique=True)
    )
    result = kb.apply(adds=adds, removes=removes)

    oracle = _kb(tbox, config)
    oracle.add(iter(kb.base_graph))
    assert set(kb.graph) == set(oracle.graph)
    assert kb.base_graph == oracle.base_graph
    # Second oracle, independent of the columnar stack: the textbook
    # fixpoint of the retained base under the same compiled rules.
    naive = Graph(kb.base_graph)
    NaiveEngine(kb.compiled.rules).run(naive)
    assert kb.graph == naive
    # Net accounting: added/removed describe the closure delta exactly.
    for t in result.added:
        assert t in kb.graph
    for t in result.removed:
        assert t not in kb.graph
    # rebuild() is the differential oracle in-place too.
    snapshot = set(kb.graph)
    kb.rebuild()
    assert set(kb.graph) == snapshot


def _copy_store(store) -> IdGraph:
    copy = IdGraph()
    copy.add_rows(*store.columns())
    return copy


@settings(max_examples=15, deadline=None)
@given(
    base=st.lists(_triples, min_size=2, max_size=20),
    adds=st.lists(_triples, max_size=5),
    data=st.data(),
)
def test_apply_stats_parity_across_stores(base, adds, data):
    """Dense and run store tick the same six counters for the same apply,
    and both equal a direct ``dred_id`` call on a copy of the same store:
    the KB adds encode/decode around DRed and nothing else."""
    tbox = _horst_tbox()
    kbs = {name: _kb(tbox, config) for name, config in ENGINE_CONFIGS}
    for kb in kbs.values():
        kb.add(base)
    dense = kbs["dense"]
    pool = list(dense.base_graph)
    removes = data.draw(
        st.lists(st.sampled_from(pool), max_size=4, unique=True)
    )

    # The direct call, set up by hand before the KBs move: same rules and
    # dictionary (so the same ids), copies of the closure and the base.
    d = dense.dictionary
    engine = ColumnarEngine(dense.compiled.rules, d)
    store = _copy_store(dense.id_store)
    asserted = IdGraph()
    asserted.add_rows(*d.encode_many(
        [term for t in pool for term in t]).reshape(-1, 3).T)
    gone = d.encode_many(
        [term for t in removes for term in t]).reshape(-1, 3).T
    asserted.delete_rows(*gone)
    fresh = asserted.add_rows(*d.encode_many(
        [term for t in adds for term in t]).reshape(-1, 3).T)
    direct = dred_id(engine, store, fresh, tuple(gone), asserted)

    for name, kb in kbs.items():
        kb.apply(adds=adds, removes=removes)
        assert kb.last_load_stats == direct.stats, name
        assert set(kb.graph) == set(dense.graph), name
    s, p, o = store.columns()
    assert len(store) == dense.size
    assert dense.id_store.contains_rows(s, p, o).all()


def test_delete_then_readd_roundtrip():
    tbox = _horst_tbox()
    for name, config in ENGINE_CONFIGS:
        kb = _kb(tbox, config)
        chain = [
            Triple(URI(f"n:{i}"), URI("ex:partOf"), URI(f"n:{i + 1}"))
            for i in range(6)
        ]
        kb.add(chain)
        before = set(kb.graph)
        victim = chain[3]
        kb.apply(removes=[victim])
        assert victim not in kb.graph
        kb.apply(adds=[victim])
        assert set(kb.graph) == before, name


def test_removed_base_triple_survives_if_derivable():
    """Retracting a base fact that is still derivable from the remaining
    base must keep it in the closure (DRed's rederivation phase)."""
    tbox = _horst_tbox()
    a_c = Triple(URI("n:a"), URI("ex:partOf"), URI("n:c"))
    for name, config in ENGINE_CONFIGS:
        kb = _kb(tbox, config)
        kb.add([
            Triple(URI("n:a"), URI("ex:partOf"), URI("n:b")),
            Triple(URI("n:b"), URI("ex:partOf"), URI("n:c")),
            a_c,  # asserted AND derivable via transitivity
        ])
        result = kb.apply(removes=[a_c])
        assert a_c in kb.graph, name  # survives: still derivable
        assert a_c not in kb.base_graph
        assert a_c not in result.removed
        # Now cut the derivation too: it must finally go.
        kb.apply(removes=[Triple(URI("n:a"), URI("ex:partOf"), URI("n:b"))])
        assert a_c not in kb.graph, name


def test_remove_nonbase_is_noop():
    tbox = _horst_tbox()
    for name, config in ENGINE_CONFIGS:
        kb = _kb(tbox, config)
        kb.add([
            Triple(URI("n:a"), URI("ex:partOf"), URI("n:b")),
            Triple(URI("n:b"), URI("ex:partOf"), URI("n:c")),
        ])
        before = set(kb.graph)
        derived = Triple(URI("n:a"), URI("ex:partOf"), URI("n:c"))
        assert derived in kb.graph
        result = kb.apply(removes=[derived, Triple(URI("n:x"), URI("ex:p"),
                                                   URI("n:y"))])
        assert set(kb.graph) == before, name
        assert len(result.removed) == 0 and len(result.added) == 0


def test_empty_apply_returns_empty_result():
    kb = _kb(_horst_tbox(), {})
    kb.add([Triple(URI("n:a"), URI("ex:partOf"), URI("n:b"))])
    result = kb.apply()
    assert len(result.added) == 0 and len(result.removed) == 0
    assert kb.last_load_stats == EngineStats()


# --- satellites: stats bookkeeping -------------------------------------------


def test_rebuild_refreshes_last_load_stats():
    kb = _kb(_horst_tbox(), {})
    kb.add([
        Triple(URI(f"n:{i}"), URI("ex:partOf"), URI(f"n:{i + 1}"))
        for i in range(5)
    ])
    add_stats = kb.last_load_stats
    kb.rebuild()
    rebuild_stats = kb.last_load_stats
    assert rebuild_stats.derived > 0
    # rebuild reports its own run, not the stale add() run.
    assert rebuild_stats is not add_stats
    assert kb.total_stats == rebuild_stats


def test_parallel_bulk_load_merges_engine_stats():
    tbox = _horst_tbox()
    data = Graph()
    for i in range(12):
        data.add_spo(URI(f"n:{i}"), URI("ex:partOf"), URI(f"n:{i + 1}"))
    kb = MaterializedKB(tbox)
    kb.bulk_load(data, parallel_k=2)
    assert kb.last_load_stats.firings > 0
    assert kb.last_load_stats.derived > 0
    assert kb.total_stats.work == kb.last_load_stats.work
    # The cluster's accounting reports the same derivation volume order
    # as a serial load (not equality: workers re-derive at boundaries).
    serial = MaterializedKB(tbox)
    serial.bulk_load(data)
    assert kb.last_load_stats.derived >= serial.last_load_stats.derived


# --- store deletion units ----------------------------------------------------


def _cols(rows):
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def test_idgraph_delete_rows_compacts_and_clears_views():
    g = IdGraph()
    g.add_rows(*_cols([(1, 2, 3), (4, 5, 6), (7, 8, 9)]))
    # Build sorted views before deleting: stale views would corrupt probes.
    assert g.contains_rows(*_cols([(4, 5, 6)])).all()
    removed = g.delete_rows(*_cols([(4, 5, 6), (100, 100, 100)]))
    assert removed == 1
    assert len(g) == 2
    assert not g.contains_rows(*_cols([(4, 5, 6)])).any()
    assert g.contains_rows(*_cols([(1, 2, 3), (7, 8, 9)])).all()
    # Delete/re-add round-trip.
    g.add_rows(*_cols([(4, 5, 6)]))
    assert len(g) == 3
    assert g.contains_rows(*_cols([(4, 5, 6)])).all()


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(),
                  st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3),
                                     st.integers(0, 8)),
                           min_size=1, max_size=6)),
        max_size=12,
    )
)
def test_runstore_deletion_matches_idgraph_reference(ops):
    """RunStore (tombstones + merge annihilation) and IdGraph (eager
    compaction) agree on every read surface under random add/delete
    churn."""
    run = RunStore(memory_budget_bytes=1 << 12)  # tiny: force compactions
    ref = IdGraph()
    for is_delete, rows in ops:
        s, p, o = _cols(rows)
        if is_delete:
            run.delete_rows(s, p, o)
            ref.delete_rows(s, p, o)
        else:
            run.add_rows(s, p, o)
            ref.add_rows(s, p, o)
        assert len(run) == len(ref)
        probe = _cols([(i, j, k) for i in range(9) for j in range(4)
                       for k in range(9)])
        assert (run.contains_rows(*probe) == ref.contains_rows(*probe)).all()
    rs, rp, ro = run.columns()
    got = set(zip(rs.tolist(), rp.tolist(), ro.tolist()))
    es, ep, eo = ref.columns()
    want = set(zip(es.tolist(), ep.tolist(), eo.tolist()))
    assert got == want


def test_runstore_tombstone_resurrection_and_annihilation():
    run = RunStore(tail_rows=32)  # small tail: rows seal into runs fast
    rows = [(i, 1, i + 1) for i in range(200)]
    run.add_rows(*_cols(rows))
    assert len(run._tail) < 32  # the bulk is sealed, not in the tail
    run.delete_rows(*_cols(rows[50:60]))
    assert len(run) == 190
    assert not run.contains_rows(*_cols(rows[50:60])).any()
    stats = run.store_stats()
    assert stats["tombstones"] > 0 or stats["tombstones_cleared"] > 0
    # Resurrection: re-adding a tombstoned row consumes the tombstone.
    run.add_rows(*_cols(rows[50:51]))
    assert len(run) == 191
    assert run.contains_rows(*_cols(rows[50:51])).all()
    # Churn until merges annihilate tombstoned rows for good.
    for i in range(300):
        run.add_rows(*_cols([(1000 + i, 2, i)]))
    stats = run.store_stats()
    assert stats["tombstones"] + stats["tombstones_cleared"] >= 9
    assert len(run) == 191 + 300


# --- Graph.discard audit -----------------------------------------------------


def test_discard_rejects_non_triples():
    g = Graph()
    with pytest.raises(TypeError):
        g.discard(("s", "p", "o"))  # type: ignore[arg-type]


def test_discard_keeps_indexes_and_version_coherent():
    a = Triple(URI("n:a"), URI("ex:p"), URI("n:b"))
    b = Triple(URI("n:a"), URI("ex:q"), URI("n:b"))
    g = Graph([a, b])
    v = g.version
    assert g.discard(a) is True
    assert g.version == v + 1
    # All three index paths agree after the removal.
    assert list(g.match(s=URI("n:a"), p=URI("ex:p"))) == []
    assert list(g.match(p=URI("ex:p"))) == []
    assert list(g.match(o=URI("n:b"))) == [b]
    assert a not in g and b in g and len(g) == 1
    # Discarding an absent triple is a no-op and does not bump version.
    v = g.version
    assert g.discard(a) is False
    assert g.version == v


def test_columnar_mirror_invalidated_by_external_discard():
    """A discard made behind the engine's back between runs must be
    seen by the next run, never resumed from stale rows."""
    engine = SemiNaiveEngine(TRANS)
    g = Graph()
    chain = [Triple(URI(f"n:{i}"), URI("ex:p"), URI(f"n:{i + 1}"))
             for i in range(4)]
    for t in chain:
        g.add(t)
    engine.run(g)
    long_edge = Triple(URI("n:0"), URI("ex:p"), URI("n:4"))
    assert long_edge in g
    # Mutate the graph without telling the engine.
    for t in list(g):
        g.discard(t)
    g.add(chain[0])
    result = engine.run(g)
    assert long_edge not in g
    assert set(g) == {chain[0]}
    assert result.stats.derived == 0


# --- distributed DRed --------------------------------------------------------


@pytest.mark.parametrize("approach,k", [("data", 3), ("rule", 2)])
@pytest.mark.parametrize("delivery", ["fifo", "shuffle"])
def test_distributed_apply_matches_serial(approach, k, delivery):
    from repro.parallel.driver import ParallelReasoner

    tbox = _horst_tbox()
    data = Graph()
    for i in range(20):
        data.add_spo(URI(f"n:{i}"), URI("ex:partOf"), URI(f"n:{i + 1}"))
    for i in range(6):
        data.add_spo(URI(f"s:{i}"), RDF.type, URI("ex:Student"))
    full = Graph()
    full.update(iter(tbox))
    full.update(iter(data))
    removes = [
        Triple(URI("n:4"), URI("ex:partOf"), URI("n:5")),
        Triple(URI("s:2"), RDF.type, URI("ex:Student")),
    ]
    adds = [
        Triple(URI("n:4"), URI("ex:partOf"), URI("n:40")),
        Triple(URI("s:9"), RDF.type, URI("ex:Student")),
    ]
    pr = ParallelReasoner(tbox, k=k, approach=approach)
    if delivery == "fifo":
        result = pr.apply_async(full, adds=adds, removes=removes)
    else:  # the explorer's seeded-random schedule
        spec = plan_spec(pr, full, adds=adds, removes=removes)
        result = apply_shuffled(spec, adds=adds, removes=removes, seed=k)

    oracle = MaterializedKB(tbox)
    oracle.add(iter(data))
    oracle.apply(adds=adds, removes=removes)
    schema_closure = set(pr.compiled.schema) | set(tbox)
    assert set(oracle.graph) - schema_closure <= set(result.graph)
    assert (set(result.graph) - schema_closure
            == set(oracle.graph) - schema_closure)


def test_distributed_apply_run_store():
    from repro.parallel.driver import ParallelReasoner

    tbox = _horst_tbox()
    data = Graph()
    for i in range(15):
        data.add_spo(URI(f"n:{i}"), URI("ex:partOf"), URI(f"n:{i + 1}"))
    full = Graph()
    full.update(iter(tbox))
    full.update(iter(data))
    removes = [Triple(URI("n:7"), URI("ex:partOf"), URI("n:8"))]
    pr = ParallelReasoner(tbox, k=2, approach="data", store="run",
                          memory_budget_bytes=1 << 14)
    result = pr.apply_async(full, removes=removes)
    oracle = MaterializedKB(tbox)
    oracle.add(iter(data))
    oracle.apply(removes=removes)
    schema_closure = set(pr.compiled.schema) | set(tbox)
    assert (set(result.graph) - schema_closure
            == set(oracle.graph) - schema_closure)
