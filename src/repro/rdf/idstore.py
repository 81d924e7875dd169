"""Id-native columnar triple store.

:class:`IdGraph` holds a set of triples as three parallel int64 numpy
columns — no term objects, no per-triple Python allocation.  It is the
storage half of the columnar fixpoint path ("Datalog Reasoning over
Compressed RDF Knowledge Bases" makes the case that dictionary-encoded,
column-oriented storage is what keeps rule closure memory- and
CPU-efficient); the execution half lives in :mod:`repro.datalog.columnar`.

Index layout
------------

Instead of the term store's three nested-dict indexes (SPO/POS/OSP), the
columnar store keeps *lazily-built sorted views*: for any subset of bound
positions — ``(p,)``, ``(p, o)``, ``(s, p)``, ``(s, p, o)``, ... — it
materializes, on first use, the rows' keys over those positions sorted
lexicographically together with the permutation back to row numbers
(:meth:`IdGraph.sorted_view`).  A pattern lookup is then a pair of
``searchsorted`` calls yielding a contiguous ``[lo, hi)`` range per query
— the vectorized equivalent of one nested-dict walk per tuple — and a
batch of Q patterns is answered by *one* pair of searchsorted calls over
all Q keys.

Views are cached per position subset and survive appends: a view built
over the first ``covered`` rows stays valid for those rows, and the
*pending tail* ``[covered, n)`` appended since is probed through a small
tail-only sort (O(t log t) for a tail of t rows) merged with the main
view's answer.  Only when the tail outgrows a threshold (a quarter of
the store by default) is the full view re-argsorted.  Alternating
append/probe workloads — the semi-naive loop is exactly that: every
round appends a delta, then probes — therefore pay per round for
sorting the delta, not the store.  ``sorted_view`` still returns a
full-coverage view (rebuilding when stale) for callers that need one
key array over all rows.

Multi-column keys use numpy *structured dtypes* (one int64 field per
position): numpy sorts and searches structured arrays field-
lexicographically, which gives correct multi-column ordering without
bit-packing tricks or precision loss.

Deduplication is vectorized throughout: batch-internal dedup is a
``sort``/``unique`` over packed keys, store-membership is a searchsorted
probe against the sorted (s, p, o) view (:meth:`IdGraph.contains_rows`).
"""

from __future__ import annotations

import numpy as np

#: Growth factor for the amortized column buffers.
_GROWTH = 2
_EMPTY = np.empty(0, dtype=np.int64)


def pack_columns(columns: tuple[np.ndarray, ...]) -> np.ndarray:
    """Pack parallel int64 columns into one structured array (a single
    int64 array when only one column is given), whose element order is the
    lexicographic order of the column tuple — the key representation every
    sorted view and membership probe uses."""
    if len(columns) == 1:
        return np.ascontiguousarray(columns[0], dtype=np.int64)
    dtype = np.dtype([(f"f{i}", np.int64) for i in range(len(columns))])
    out = np.empty(len(columns[0]), dtype=dtype)
    for i, col in enumerate(columns):
        out[f"f{i}"] = col
    return out


def expand_ranges(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-query ``[lo, hi)`` index ranges.

    Returns ``(flat, reps)``: ``flat`` concatenates every range's indices;
    ``reps[i]`` is the query number that produced ``flat[i]``.  This is the
    vectorized "inner loop" of a merge join — each query row fans out to
    its matching sorted-view positions with no Python iteration.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    reps = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    flat = starts + (np.arange(total, dtype=np.int64) - resets)
    return flat, reps


def member_mask(sorted_keys: np.ndarray, query_keys: np.ndarray) -> np.ndarray:
    """Boolean membership of ``query_keys`` in the sorted key array."""
    if len(sorted_keys) == 0:
        return np.zeros(len(query_keys), dtype=bool)
    pos = np.searchsorted(sorted_keys, query_keys)
    pos_clipped = np.minimum(pos, len(sorted_keys) - 1)
    return np.asarray(
        (pos < len(sorted_keys)) & (sorted_keys[pos_clipped] == query_keys)
    )


def concat_columns(
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate ``(s, p, o)`` column triples row-wise (a single part
    is returned as is, no parts as empty columns)."""
    if not parts:
        return _EMPTY, _EMPTY, _EMPTY
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )


class IdGraph:
    """A set of id-encoded triples as growable int64 columns.

    Rows are unique (set semantics, like :class:`repro.rdf.graph.Graph`);
    :meth:`add_rows` performs the vectorized dedup.  The store never
    inspects ids — term semantics (resource-ness, decode) live entirely in
    the dictionary layer.
    """

    __slots__ = ("_s", "_p", "_o", "_n", "_views", "_tail_views",
                 "_tail_threshold", "_version")

    def __init__(
        self, capacity: int = 0, tail_threshold: int | None = None
    ) -> None:
        cap = max(capacity, 0)
        self._s = np.empty(cap, dtype=np.int64)
        self._p = np.empty(cap, dtype=np.int64)
        self._o = np.empty(cap, dtype=np.int64)
        self._n = 0
        #: position-subset -> (sorted keys, permutation to row numbers,
        #: rows covered).  Rows past ``covered`` are the pending tail.
        self._views: dict[
            tuple[int, ...], tuple[np.ndarray, np.ndarray, int]
        ] = {}
        #: position-subset -> (sorted tail keys, global row numbers,
        #: covered, n) — valid only while (covered, n) match the main view.
        self._tail_views: dict[
            tuple[int, ...], tuple[np.ndarray, np.ndarray, int, int]
        ] = {}
        #: Pending-tail size past which a probe rebuilds the full view
        #: instead of tail-probing; ``None`` = adaptive (a quarter of the
        #: store), ``0`` = always rebuild (the pre-tail-probing behavior,
        #: kept for the ablation microbench).
        self._tail_threshold = tail_threshold
        #: Monotone content version: bumped whenever the row set actually
        #: changes.  Anything derived from the rows (result caches, query
        #: mirrors) keys on this and is thereby invalidated by mutation.
        self._version = 0

    def __len__(self) -> int:
        return self._n

    @property
    def version(self) -> int:
        """Monotone counter distinguishing row-set states (caches key on
        it, mirroring :attr:`repro.rdf.graph.Graph.version`)."""
        return self._version

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live ``(s, p, o)`` columns (views, not copies — treat as
        read-only)."""
        n = self._n
        return self._s[:n], self._p[:n], self._o[:n]

    def column(self, position: int) -> np.ndarray:
        """One live column by triple position (0=s, 1=p, 2=o)."""
        return self.columns()[position]

    # -- mutation ---------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need <= len(self._s):
            return
        cap = max(need, _GROWTH * len(self._s), 1024)
        for name in ("_s", "_p", "_o"):
            buf = np.empty(cap, dtype=np.int64)
            buf[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, buf)

    def add_rows(
        self, s: np.ndarray, p: np.ndarray, o: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insert rows, deduplicating against the batch and the store.

        Returns the rows actually added (unique, in key-sorted order) —
        the semi-naive "new facts" of a round.
        """
        if len(s) == 0:
            return _EMPTY, _EMPTY, _EMPTY
        keys = pack_columns((s, p, o))
        uniq, first = np.unique(keys, return_index=True)
        s, p, o = s[first], p[first], o[first]
        if self._n:
            fresh = ~self._member_packed(uniq)
        else:
            fresh = np.ones(len(uniq), dtype=bool)
        s, p, o = s[fresh], p[fresh], o[fresh]
        if len(s):
            self._reserve(len(s))
            n = self._n
            self._s[n: n + len(s)] = s
            self._p[n: n + len(p)] = p
            self._o[n: n + len(o)] = o
            self._n = n + len(s)
            self._version += 1
        return s, p, o

    def delete_rows(self, s: np.ndarray, p: np.ndarray, o: np.ndarray) -> int:
        """Remove rows from the store; rows not present are ignored.

        Returns the number of rows actually removed.  Deletion is a
        validity-mask compaction: the matching rows are located through the
        canonical (s, p, o) view, a keep mask over the live rows is built,
        and the column buffers are rewritten densely in one pass.  Every
        cached sorted view is dropped (row numbers shift), so the next
        probe after a deletion pays one re-sort — the DRed maintenance
        loop deletes once per update batch, not per row, so this amortizes
        the same way the append path does.
        """
        if len(s) == 0 or self._n == 0:
            return 0
        keys = np.unique(pack_columns((s, p, o)))
        rows, _reps = self.range_lookup((0, 1, 2), keys)
        if len(rows) == 0:
            return 0
        n = self._n
        keep = np.ones(n, dtype=bool)
        keep[rows] = False
        for name in ("_s", "_p", "_o"):
            buf = getattr(self, name)
            buf[: n - len(rows)] = buf[:n][keep]
        self._n = n - len(rows)
        self._views.clear()
        self._tail_views.clear()
        self._version += 1
        return len(rows)

    # -- queries ----------------------------------------------------------

    def contains_rows(
        self, s: np.ndarray, p: np.ndarray, o: np.ndarray
    ) -> np.ndarray:
        """Vectorized membership: ``mask[i]`` iff row i is in the store."""
        if self._n == 0:
            return np.zeros(len(s), dtype=bool)
        return self._member_packed(pack_columns((s, p, o)))

    def _member_packed(self, query_keys: np.ndarray) -> np.ndarray:
        """Membership of packed (s, p, o) keys, via the two-part view."""
        mask: np.ndarray | None = None
        for keys, _perm in self._view_parts((0, 1, 2)):
            part = member_mask(keys, query_keys)
            mask = part if mask is None else mask | part
        if mask is None:
            return np.zeros(len(query_keys), dtype=bool)
        return mask

    def _rebuild(
        self, positions: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray, int]:
        keys = pack_columns(tuple(self.column(pos) for pos in positions))
        perm = np.argsort(keys, kind="stable")
        cached = self._views[positions] = (keys[perm], perm, self._n)
        self._tail_views.pop(positions, None)
        return cached

    def _view_parts(
        self, positions: tuple[int, ...]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The sorted segments answering a probe over ``positions``: the
        cached main view plus (when the pending tail is small enough) a
        tail-only sorted segment; a tail past the rebuild threshold folds
        into a fresh full view instead."""
        n = self._n
        cached = self._views.get(positions)
        if cached is None:
            keys, perm, _cov = self._rebuild(positions)
            return [(keys, perm)]
        keys, perm, covered = cached
        tail = n - covered
        if tail == 0:
            return [(keys, perm)]
        threshold = self._tail_threshold
        if threshold is None:
            threshold = max(1024, n // 4)
        if tail > threshold:
            keys, perm, _cov = self._rebuild(positions)
            return [(keys, perm)]
        tail_cached = self._tail_views.get(positions)
        if tail_cached is None or tail_cached[2] != covered or tail_cached[3] != n:
            tkeys = pack_columns(tuple(
                self.column(pos)[covered:n] for pos in positions))
            tperm = np.argsort(tkeys, kind="stable")
            tail_cached = self._tail_views[positions] = (
                tkeys[tperm], tperm + covered, covered, n)
        return [(keys, perm), (tail_cached[0], tail_cached[1])]

    def sorted_view(
        self, positions: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows' keys over ``positions``, sorted, plus the permutation
        mapping sorted index -> row number.  Built lazily, cached, and kept
        full-coverage: a view gone stale by appends is rebuilt here (probes
        that tolerate a two-part answer go through :meth:`range_lookup`,
        which tail-probes instead of rebuilding)."""
        cached = self._views.get(positions)
        if cached is None or cached[2] != self._n:
            cached = self._rebuild(positions)
        return cached[0], cached[1]

    def range_lookup(
        self, positions: tuple[int, ...], query_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch pattern lookup: for each query key over ``positions``,
        the matching row numbers.

        Returns ``(rows, reps)`` where ``rows`` are store row numbers and
        ``reps[i]`` is the query that matched ``rows[i]`` — one
        searchsorted pair per view segment for the whole batch.  Rows
        appended since the main view was built are answered from the
        tail segment, so matches for one query may arrive main-part
        first, tail-part second (not globally key-sorted).
        """
        parts_rows: list[np.ndarray] = []
        parts_reps: list[np.ndarray] = []
        for keys, perm in self._view_parts(positions):
            lo = np.searchsorted(keys, query_keys, side="left")
            hi = np.searchsorted(keys, query_keys, side="right")
            flat, reps = expand_ranges(lo, hi)
            if len(flat):
                parts_rows.append(perm[flat])
                parts_reps.append(reps)
        if not parts_rows:
            return _EMPTY, _EMPTY
        if len(parts_rows) == 1:
            return parts_rows[0], parts_reps[0]
        return np.concatenate(parts_rows), np.concatenate(parts_reps)

    def count_matching(
        self, positions: tuple[int, ...], query_cols: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """Per-query count of matching rows, without materializing them —
        one searchsorted pair per view segment.  This is the cardinality
        estimate feeding join ordering in :mod:`repro.rdf.idquery`."""
        query_keys = pack_columns(query_cols)
        total = np.zeros(len(query_keys), dtype=np.int64)
        for keys, _perm in self._view_parts(positions):
            lo = np.searchsorted(keys, query_keys, side="left")
            hi = np.searchsorted(keys, query_keys, side="right")
            total += hi - lo
        return total

    def probe(
        self, positions: tuple[int, ...], query_cols: tuple[np.ndarray, ...]
    ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
        """Batch pattern lookup returning the matching rows' *values*.

        ``query_cols[i]`` is the query column for ``positions[i]``; returns
        ``((s, p, o), reps)`` with one entry per matching row.  This is the
        store-agnostic probe surface shared with
        :class:`repro.rdf.runstore.RunStore` — kernels that consume values
        instead of row numbers run unchanged over either store.
        """
        rows, reps = self.range_lookup(positions, pack_columns(query_cols))
        s, p, o = self.columns()
        return (s[rows], p[rows], o[rows]), reps

    def memory_bytes(self) -> int:
        """Resident bytes of the store: column buffers (at capacity) plus
        every cached view — the dense baseline the run store's budget
        accounting is compared against."""
        total = self._s.nbytes + self._p.nbytes + self._o.nbytes
        for keys, perm, _cov in self._views.values():
            total += keys.nbytes + perm.nbytes
        for tkeys, tperm, _cov, _n in self._tail_views.values():
            total += tkeys.nbytes + tperm.nbytes
        return total

    def __repr__(self) -> str:
        return f"<IdGraph with {self._n} rows>"
