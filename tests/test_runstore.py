"""Memory-budgeted compressed run store: block codec, LSM maintenance
(seal/merge/compaction), spill-under-budget, block pruning, and the
differential tests proving the run-store surface — and the columnar
fixpoint running over it — matches the dense :class:`IdGraph` path
row-for-row and counter-for-counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datalog import SemiNaiveEngine, parse_rules
from repro.owl.compiler import compile_ontology
from repro.owl.reasoner import HorstReasoner
from repro.owl.vocabulary import OWL, RDF
from repro.parallel.driver import ParallelReasoner
from repro.rdf import Graph, URI
from repro.rdf.dictionary import PartitionDictionary, TermDictionary
from repro.rdf.idstore import IdGraph, pack_columns
from repro.rdf.runstore import (
    RunStore,
    _encode_block_column,
    _OrderIndex,
    order_for,
)

PREFIX = "@prefix ex: <ex:>\n"
TRANS = parse_rules(PREFIX + "[t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]")

POSITION_SUBSETS = [
    (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
]


def arr(*vals):
    return np.asarray(vals, dtype=np.int64)


def chain(n, pred="ex:p"):
    g = Graph()
    for i in range(n):
        g.add_spo(URI(f"ex:n{i}"), URI(pred), URI(f"ex:n{i + 1}"))
    return g


def random_rows(rng, n, hi=200):
    return (rng.integers(0, hi, n), rng.integers(0, 40, n),
            rng.integers(0, hi, n))


def fill_random(store, rng, total, batch=173, hi=200):
    """Feed ``total`` random rows through ``add_rows`` in odd-sized batches,
    mirroring every insert into a reference set of (s, p, o) tuples."""
    ref = set()
    fed = 0
    while fed < total:
        n = min(batch, total - fed)
        s, p, o = random_rows(rng, n, hi=hi)
        store.add_rows(s, p, o)
        ref.update(zip(s.tolist(), p.tolist(), o.tolist()))
        fed += n
    return ref


def store_rows(store):
    s, p, o = store.columns()
    return set(zip(s.tolist(), p.tolist(), o.tolist()))


# -- block codec -------------------------------------------------------------


class TestBlockCodec:
    def test_sorted_column_uses_delta_mode(self):
        col = np.cumsum(arr(5, 0, 3, 3, 1, 0, 7))
        mode, width, base, payload = _encode_block_column(col)
        assert mode == 1
        assert width == 1  # gaps all fit one byte
        assert base == int(col[0])

    def test_unsorted_column_uses_frame_of_reference(self):
        col = arr(90, 10, 55, 10, 89)
        mode, width, base, payload = _encode_block_column(col)
        assert mode == 0
        assert base == 10
        assert width == 1

    def test_wide_values_get_wide_residuals(self):
        col = arr(0, 1 << 40)
        mode, width, base, payload = _encode_block_column(col)
        assert width == 8

    @pytest.mark.parametrize("block_rows", [64, 128])
    def test_round_trip_through_run(self, block_rows):
        rng = np.random.default_rng(7)
        store = RunStore(tail_rows=256, block_rows=block_rows)
        ref = fill_random(store, rng, 3000)
        assert store_rows(store) == ref
        assert len(store) == len(ref)

    def test_negative_ids_round_trip(self):
        # FOR/delta bases are signed; residual widths are unsigned spans.
        store = RunStore(tail_rows=4, block_rows=64)
        store.add_rows(arr(-5, -1, 3, 7), arr(0, 0, 0, 0), arr(1, 2, 3, 4))
        s, p, o = store.columns()
        assert sorted(s.tolist()) == [-5, -1, 3, 7]


# -- order selection ---------------------------------------------------------


class TestOrderFor:
    @pytest.mark.parametrize("positions,order", [
        ((0,), (0, 1, 2)),
        ((0, 1), (0, 1, 2)),
        ((0, 1, 2), (0, 1, 2)),
        ((1,), (1, 2, 0)),
        ((1, 2), (1, 2, 0)),
        ((2,), (2, 0, 1)),
        ((0, 2), (2, 0, 1)),
    ])
    def test_every_subset_is_an_order_prefix(self, positions, order):
        assert order_for(positions) == order
        # The constrained positions must form a prefix of the order (in
        # some permutation) so range probes stay contiguous.
        assert set(order[: len(positions)]) == set(positions)


# -- LSM maintenance ---------------------------------------------------------


class TestLsmMaintenance:
    def test_seal_and_merge_counters(self):
        rng = np.random.default_rng(11)
        store = RunStore(tail_rows=64, block_rows=64, fanout=2)
        fill_random(store, rng, 2000)
        stats = store.store_stats()
        assert stats["seals"] > 0
        assert stats["merges"] > 0
        assert stats["rows"] == len(store)
        assert stats["tail_rows"] < 64

    def test_run_count_stays_logarithmic(self):
        rng = np.random.default_rng(13)
        store = RunStore(tail_rows=32, block_rows=64, fanout=2)
        fill_random(store, rng, 4000, hi=10_000)
        # Size-tiered with fanout f over r sealed tails keeps at most
        # ~f * log_f(r) runs alive; far below the ~125 seals this feeds.
        assert store.store_stats()["runs"] <= 2 * 14

    def test_dedup_across_runs_and_tail(self):
        store = RunStore(tail_rows=4, block_rows=64)
        a = store.add_rows(arr(1, 2, 3, 4), arr(0, 0, 0, 0), arr(9, 9, 9, 9))
        assert len(a[0]) == 4
        # Re-insert rows now frozen in a run, plus one genuinely new row.
        b = store.add_rows(arr(1, 2, 5), arr(0, 0, 0), arr(9, 9, 9))
        assert len(b[0]) == 1
        assert len(store) == 5

    def test_add_rows_returns_key_sorted_fresh_rows(self):
        store = RunStore(tail_rows=16)
        s, p, o = store.add_rows(arr(9, 1, 5), arr(0, 0, 0), arr(2, 2, 2))
        keys = pack_columns((s, p, o))
        assert np.array_equal(keys, np.sort(keys))

    def test_len_and_contains_across_layers(self):
        rng = np.random.default_rng(17)
        store = RunStore(tail_rows=64, block_rows=64)
        ref = fill_random(store, rng, 1500)
        sample = list(ref)[:300]
        s = arr(*[r[0] for r in sample])
        p = arr(*[r[1] for r in sample])
        o = arr(*[r[2] for r in sample])
        assert store.contains_rows(s, p, o).all()
        assert not store.contains_rows(
            arr(10 ** 6), arr(10 ** 6), arr(10 ** 6)).any()


# -- budget + spill ----------------------------------------------------------


class TestBudget:
    def test_spill_keeps_resident_bytes_under_budget(self):
        budget = 150_000
        rng = np.random.default_rng(19)
        store = RunStore(memory_budget_bytes=budget, block_rows=256)
        ref = fill_random(store, rng, 30_000, hi=5_000)
        stats = store.store_stats()
        assert stats["spills"] > 0
        assert stats["in_ram_bytes"] <= budget
        # Spilled payloads stay fully probe-able.
        assert store_rows(store) == ref

    def test_probe_correct_after_spill(self):
        rng = np.random.default_rng(23)
        store = RunStore(memory_budget_bytes=120_000, block_rows=256)
        dense = IdGraph()
        fed = 0
        while fed < 20_000:
            s, p, o = random_rows(rng, 311, hi=2_000)
            store.add_rows(s, p, o)
            dense.add_rows(s, p, o)
            fed += 311
        assert store.store_stats()["spills"] > 0
        for positions in POSITION_SUBSETS:
            q = tuple(arr(*rng.integers(0, 2_000, 20).tolist())
                      for _ in positions)
            got, got_reps = store.probe(positions, q)
            want, want_reps = dense.probe(positions, q)
            got_k = np.sort(pack_columns(got))
            want_k = np.sort(pack_columns(want))
            assert np.array_equal(got_k, want_k)
            assert got_reps.sum() == want_reps.sum()

    def test_unbudgeted_store_never_spills(self):
        rng = np.random.default_rng(29)
        store = RunStore(tail_rows=128, block_rows=64)
        fill_random(store, rng, 3000)
        assert store.store_stats()["spills"] == 0

    def test_payload_far_below_dense_bytes(self):
        rng = np.random.default_rng(31)
        store, dense = RunStore(tail_rows=1024), IdGraph()
        fed = 0
        while fed < 40_000:
            s, p, o = random_rows(rng, 997, hi=3_000)
            store.add_rows(s, p, o)
            dense.add_rows(s, p, o)
            fed += 997
        # ISSUE acceptance: <= 0.5x dense bytes/triple.
        assert store.payload_bytes() <= 0.5 * dense.memory_bytes()


# -- block pruning -----------------------------------------------------------


class TestBlockPruning:
    def test_point_probe_decodes_few_blocks(self, monkeypatch):
        rng = np.random.default_rng(37)
        # Large enough for many blocks in one run; cache tiny enough that
        # the whole-run fast path is off and every access goes per-block.
        store = RunStore(tail_rows=8192, block_rows=128, cache_bytes=1)
        fill_random(store, rng, 16_384, hi=100_000)
        assert store.store_stats()["runs"] >= 1

        calls = []
        real = _OrderIndex.decode_block

        def counting(self, block):
            calls.append(block)
            return real(self, block)

        monkeypatch.setattr(_OrderIndex, "decode_block", counting)
        s, p, o = store.columns()  # full decode: every block, every run
        total_blocks = len(calls)
        calls.clear()
        store.probe((0, 1, 2), (s[:1], p[:1], o[:1]))
        assert 0 < len(calls) < total_blocks / 4


# -- store differential vs IdGraph -------------------------------------------


class TestStoreDifferential:
    def test_full_surface_matches_dense(self):
        rng = np.random.default_rng(41)
        run = RunStore(tail_rows=256, block_rows=64, fanout=2)
        dense = IdGraph()
        for _ in range(30):
            s, p, o = random_rows(rng, int(rng.integers(1, 400)))
            a = run.add_rows(s, p, o)
            b = dense.add_rows(s, p, o)
            # Fresh-row returns agree (both key-sorted post-dedup).
            assert np.array_equal(pack_columns(a), np.sort(pack_columns(b)))
            assert len(run) == len(dense)
            qs, qp, qo = random_rows(rng, 50)
            assert np.array_equal(
                run.contains_rows(qs, qp, qo),
                dense.contains_rows(qs, qp, qo))
            for positions in POSITION_SUBSETS:
                q = tuple(rng.integers(0, 200, 15) for _ in positions)
                got, got_reps = run.probe(positions, q)
                want, want_reps = dense.probe(positions, q)
                assert np.array_equal(
                    np.sort(pack_columns(got)), np.sort(pack_columns(want)))
                assert got_reps.sum() == want_reps.sum()
        assert store_rows(run) == store_rows(dense)


# -- engine integration ------------------------------------------------------


def _stats_dict(stats):
    return {
        "iterations": stats.iterations,
        "rules_dispatched": stats.rules_dispatched,
        "rules_skipped": stats.rules_skipped,
        "join_probes": stats.join_probes,
        "firings": stats.firings,
        "derived": stats.derived,
    }


class TestEngineIntegration:
    def test_store_selection_and_validation(self):
        assert SemiNaiveEngine(TRANS).store_kind == "dense"
        assert SemiNaiveEngine(
            TRANS, store="run").store_kind == "run"
        # A budget implies the run store.
        eng = SemiNaiveEngine(
            TRANS, memory_budget_bytes=1 << 20)
        assert eng.store_kind == "run"
        with pytest.raises(ValueError):
            SemiNaiveEngine(TRANS, store="holographic")

    def test_run_store_closure_matches_dense(self):
        g_dense, g_run = chain(40), chain(40)
        dense = SemiNaiveEngine(TRANS).run(g_dense)
        run = SemiNaiveEngine(
            TRANS, store="run").run(g_run)
        assert g_dense == g_run
        assert _stats_dict(dense.stats) == _stats_dict(run.stats)
        assert set(dense.inferred) == set(run.inferred)

    def test_budgeted_closure_matches_dense(self):
        g_dense, g_run = chain(60), chain(60)
        dense = SemiNaiveEngine(TRANS).run(g_dense)
        run = SemiNaiveEngine(
            TRANS, store="run",
            memory_budget_bytes=200_000).run(g_run)
        assert g_dense == g_run
        assert _stats_dict(dense.stats) == _stats_dict(run.stats)

    def test_delta_resume_over_run_store(self):
        base = chain(30)
        extra = [t for t in chain(35) if t not in base]
        full = chain(35)
        SemiNaiveEngine(TRANS).run(full)
        resumed = chain(30)
        eng = SemiNaiveEngine(TRANS, store="run")
        eng.run(resumed)
        eng.run(resumed, delta=extra)
        assert resumed == full

    def test_reasoner_forwards_store_choice(self):
        tbox = Graph()
        tbox.add_spo(URI("ex:partOf"), RDF.type, OWL.TransitiveProperty)
        data = chain(25, pred="ex:partOf")
        dense = HorstReasoner(tbox).materialize(data)
        run = HorstReasoner(
            tbox, store="run",
            memory_budget_bytes=1 << 20).materialize(data)
        assert set(dense.graph) == set(run.graph)
        assert (_stats_dict(dense.engine_stats)
                == _stats_dict(run.engine_stats))


# -- parallel workers over the run store -------------------------------------


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


class TestParallelRunStore:
    def test_id_native_worker_uses_run_store(self):
        from repro.parallel.routing import BroadcastRouter
        from repro.parallel.worker import PartitionWorker

        base = TermDictionary()
        data = _mp_data()
        for t in data:
            base.encode(t.s), base.encode(t.p), base.encode(t.o)
        w = PartitionWorker(
            0, data, compile_ontology(_mp_tbox()).rules, BroadcastRouter(1),
            dictionary=PartitionDictionary(base, 0, 1),
            store="run", memory_budget_bytes=1 << 20,
        )
        assert isinstance(w._idgraph, RunStore)
        w.bootstrap()
        serial = HorstReasoner(_mp_tbox()).materialize(data)
        assert set(w.output_graph()) == set(serial.graph)

    def test_budget_implies_run_store(self):
        from repro.parallel.routing import BroadcastRouter
        from repro.parallel.worker import PartitionWorker

        base = TermDictionary()
        data = _mp_data()
        for t in data:
            base.encode(t.s), base.encode(t.p), base.encode(t.o)
        w = PartitionWorker(
            0, data, compile_ontology(_mp_tbox()).rules, BroadcastRouter(1),
            dictionary=PartitionDictionary(base, 0, 1),
            memory_budget_bytes=1 << 20,
        )
        assert isinstance(w._idgraph, RunStore)

    def test_parallel_closure_matches_term_reference(self):
        tbox, data = _mp_tbox(), _mp_data()
        mixed = Graph(list(tbox) + list(data))
        ref = ParallelReasoner(tbox, k=3).materialize(mixed)
        res = ParallelReasoner(
            tbox, k=3, store="run",
            memory_budget_bytes=1 << 20,
        ).materialize(mixed)
        assert set(res.graph) == set(ref.graph)

    def test_async_shuffle_over_run_store(self):
        tbox, data = _mp_tbox(), _mp_data()
        mixed = Graph(list(tbox) + list(data))
        ref = ParallelReasoner(tbox, k=3).materialize(mixed)
        res = ParallelReasoner(
            tbox, k=3, store="run",
            memory_budget_bytes=1 << 20,
        ).materialize_async(mixed, delivery="shuffle")
        assert set(res.graph) == set(ref.graph)
