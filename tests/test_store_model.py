"""Stateful model of the id stores against a Python set.

Hypothesis drives one store — :class:`IdGraph`, :class:`RunStore`, or
their sanitized subclasses — through random ``add_rows`` /
``delete_rows`` / ``probe`` / ``range_lookup`` / ``sorted_view`` /
``contains_rows`` / ``columns`` sequences, and after every step checks:

* every read equals the same read of a ``set`` of ``(s, p, o)`` rows;
* ``version`` moves if and only if the row set changed;
* every cached artifact (sorted views and tails, the run store's decode
  cache) equals a fresh rebuild from the rows it claims to cover.

The run store gets a tiny tail, a tiny budget and fanout 2, so seals,
merges, spills and tombstones all happen within a few steps; the dense
store gets a tiny tail threshold, so both tail probing and threshold
rebuilds do.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.analysis.sanitize import SanitizedIdGraph, SanitizedRunStore
from repro.rdf.idstore import IdGraph, pack_columns
from repro.rdf.runstore import RunStore

Row = tuple[int, int, int]

ROWS = st.lists(
    st.tuples(*[st.integers(0, 4)] * 3), min_size=0, max_size=12)
POSITIONS = st.sampled_from(
    [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2)])

RUN_SETTINGS = dict(memory_budget_bytes=1 << 12, tail_rows=8, block_rows=64,
                    fanout=2)


def cols(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    arr = np.asarray(list(rows), dtype=np.int64).reshape(-1, 3)
    return arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy()


def as_rows(s, p, o) -> list[Row]:
    return list(zip(s.tolist(), p.tolist(), o.tolist()))


def check_views(g: IdGraph) -> None:
    """Every view an :class:`IdGraph` holds equals a fresh sort of the
    rows it covers (a tail held from an older version: of the rows it
    covered then — no deletion happens without dropping it)."""
    n = len(g)
    columns = g.columns()
    for key, (stamp, view) in g._derived.items():
        kind, positions = key
        keys, rows, covered = view
        packed = pack_columns(tuple(columns[pos] for pos in positions))
        if kind == "view":
            assert covered <= n
            assert np.array_equal(np.sort(rows), np.arange(covered))
        else:
            assert len(rows) == 0 or covered <= rows.min()
            if stamp == g.version:
                assert np.array_equal(np.sort(rows), np.arange(covered, n))
        assert np.array_equal(keys, packed[rows])
        assert np.array_equal(keys, np.sort(keys))


def check_run_store(store: RunStore) -> None:
    """The tail and tombstone graphs' views, and every decode-cache entry,
    equal a fresh rebuild."""
    check_views(store._tail)
    check_views(store._tombs)
    live = {idx.serial: idx for run in store._runs
            for idx in run.indexes.values()}
    for (serial, kind, arg), value in store._cache.items():
        idx = live[serial]  # retired runs leave nothing behind
        if kind == 2:
            want = idx.decode_block(arg)
        else:
            full = tuple(np.concatenate(c) for c in zip(
                *(idx.decode_block(b) for b in range(idx.n_blocks))))
            want = full if kind == 0 else (pack_columns(full[:arg]),)
        assert len(value) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(value, want))


class StoreModel(RuleBasedStateMachine):
    """One store and the set it must equal."""

    def make_store(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def __init__(self) -> None:
        super().__init__()
        self.store = self.make_store()
        self.model: set[Row] = set()

    def _moved(self, before: int, changed: bool) -> None:
        after = self.store.version
        assert (after != before) == changed
        assert after >= before

    @rule(rows=ROWS)
    def add_rows(self, rows):
        before = self.store.version
        added = as_rows(*self.store.add_rows(*cols(rows)))
        fresh = set(rows) - self.model
        assert sorted(added) == sorted(fresh)
        self.model |= fresh
        self._moved(before, bool(fresh))

    @rule(rows=ROWS)
    def delete_rows(self, rows):
        before = self.store.version
        removed = self.store.delete_rows(*cols(rows))
        gone = set(rows) & self.model
        assert removed == len(gone)
        self.model -= gone
        self._moved(before, bool(gone))

    def _expected(self, positions, query: list[Row]) -> Counter:
        return Counter(
            (rep, row) for rep, q in enumerate(query) for row in self.model
            if all(row[pos] == q[pos] for pos in positions))

    @rule(positions=POSITIONS, query=ROWS)
    def probe(self, positions, query):
        q = cols(query)
        (s, p, o), reps = self.store.probe(
            positions, tuple(q[pos] for pos in positions))
        got = Counter(zip(reps.tolist(), as_rows(s, p, o)))
        assert got == self._expected(positions, query)

    @precondition(lambda self: isinstance(self.store, IdGraph))
    @rule(positions=POSITIONS, query=ROWS)
    def range_lookup(self, positions, query):
        q = cols(query)
        rows, reps = self.store.range_lookup(
            positions, pack_columns(tuple(q[pos] for pos in positions)))
        s, p, o = self.store.columns()
        got = Counter(zip(reps.tolist(), as_rows(s[rows], p[rows], o[rows])))
        assert got == self._expected(positions, query)

    @precondition(lambda self: isinstance(self.store, IdGraph))
    @rule(positions=POSITIONS)
    def sorted_view(self, positions):
        keys, perm = self.store.sorted_view(positions)
        model = cols(sorted(self.model))
        want = np.sort(pack_columns(tuple(model[pos] for pos in positions)))
        assert np.array_equal(keys, want)
        columns = self.store.columns()
        assert np.array_equal(
            pack_columns(tuple(columns[pos][perm] for pos in positions)), keys)

    @rule(query=ROWS)
    def contains_rows(self, query):
        mask = self.store.contains_rows(*cols(query))
        assert mask.tolist() == [row in self.model for row in query]

    @rule()
    def columns(self):
        rows = as_rows(*self.store.columns())
        assert len(rows) == len(self.model) and set(rows) == self.model

    @invariant()
    def size_and_caches(self):
        assert len(self.store) == len(self.model)
        if self.model:
            assert self.store.contains_rows(*cols(sorted(self.model))).all()
        if isinstance(self.store, IdGraph):
            check_views(self.store)
        else:
            check_run_store(self.store)


class DenseModel(StoreModel):
    def make_store(self):
        return IdGraph(tail_threshold=16)


class RunModel(StoreModel):
    def make_store(self):
        return RunStore(**RUN_SETTINGS)


class SanitizedDenseModel(StoreModel):
    def make_store(self):
        return SanitizedIdGraph(tail_threshold=16, label="model",
                                sample_rate=1.0)


class SanitizedRunModel(StoreModel):
    def make_store(self):
        return SanitizedRunStore(label="model", sample_rate=1.0,
                                 **RUN_SETTINGS)


TestDenseStoreModel = DenseModel.TestCase
TestRunStoreModel = RunModel.TestCase
TestSanitizedDenseStoreModel = SanitizedDenseModel.TestCase
TestSanitizedRunStoreModel = SanitizedRunModel.TestCase
for _case in (TestDenseStoreModel, TestRunStoreModel,
              TestSanitizedDenseStoreModel, TestSanitizedRunStoreModel):
    _case.settings = settings(
        max_examples=40, stateful_step_count=30, deadline=None)
del _case


def test_run_store_model_reaches_every_reorganisation():
    """The run model's store settings make it seal, merge, spill and
    tombstone (checked on one fixed walk)."""
    store = RunStore(**RUN_SETTINGS)
    rng = np.random.default_rng(3)
    for _ in range(12):
        store.add_rows(*cols(rng.integers(0, 5, size=(10, 3)).tolist()))
    store.delete_rows(*store.columns())
    assert store.seals and store.merges and store.spills
    assert store.tombstones_cleared or len(store._tombs)
