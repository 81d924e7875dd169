"""Memory-budgeted compressed run store.

:class:`RunStore` holds id-encoded triples as a log-structured
collection of *immutable sorted runs* plus a small mutable
:class:`~repro.rdf.idstore.IdGraph` tail, behind the same probe surface
as the dense store (``add_rows`` / ``contains_rows`` / ``probe`` /
``columns``).  It is the out-of-core storage half of the columnar
fixpoint path: "Datalog Reasoning over Compressed RDF Knowledge Bases"
(PAPERS.md) shows semi-naive evaluation can run directly over
compressed sorted representations without inflating them, and because
rows here are plain int64 ids, compressed runs would ship across
partitions unchanged ("Datalog Materialisation in Distributed RDF
Stores with Dynamic Data Exchange").

Run layout
----------

A sealed run is one or more :class:`_OrderIndex` projections.  Each
index stores the run's rows sorted by a 3-position *order* — canonical
``(0, 1, 2)`` (s, p, o) built at seal/merge time, plus ``(1, 2, 0)``
and ``(2, 0, 1)`` built lazily on first probe so that every bound-
position subset is a *prefix* of some order.  An index is cut into
blocks of ``block_rows`` rows; per block, each column is compressed
independently:

* **delta mode** — a non-decreasing column becomes first value + gaps;
* **frame-of-reference mode** — otherwise, min value + offsets;

either way the residuals are packed at the smallest unsigned byte
width in {1, 2, 4, 8} that fits.  Block payloads live in one ``bytes``
buffer (optionally spilled to a memory-mapped temp file, see below);
the uncompressed *first-row key* of every block is kept as a sorted
``samples`` array, so a batch of Q pattern queries prunes to the
touched blocks with two ``searchsorted`` calls over the samples
(non-prefix key fields are filled with int64 min/max sentinels).
Only touched blocks are decoded; the union of decoded blocks is still
key-sorted, so the per-run probe is the same searchsorted-pair +
``expand_ranges`` dance the dense store does — summed over runs it
yields *exactly* the dense candidate multiset, which is what keeps the
engine's work counters identical store for store.

Merge policy
------------

Appends dedup against the store (per-run compressed membership probes
plus the tail — never one giant array) and land in the tail; a full
tail is sealed into a new run.  Runs compact size-tiered: when a size
class (``tail_rows * fanout^c``) accumulates ``fanout`` runs they are
k-way merged into one.  The merge *streams*: each source run is
decoded a few blocks at a time, rows up to the minimum of the
cursors' buffer-last keys are emitted per round, and the block encoder
re-compresses incrementally — peak transient memory is bounded by
cursor buffers, not run size.  Rows are globally unique across runs
(insert-time dedup), so merges concatenate without re-deduplicating —
except for *tombstoned* rows (see below), which the canonical merge
drops and whose tombstones it consumes.

Deletions
---------

Runs are immutable, so :meth:`RunStore.delete_rows` is two-sided:
rows still in the mutable tail are deleted physically
(:meth:`IdGraph.delete_rows`); rows frozen into a sealed run are
recorded in a small dense *tombstone* set instead.  Every read surface
(``probe`` / ``contains_rows`` / ``columns`` / ``__len__``) subtracts
tombstoned rows, so a tombstoned row is indistinguishable from an
absent one; re-adding a tombstoned row consumes its tombstone rather
than writing a duplicate (the run copy becomes live again).  The
tombstones are *annihilated* at compaction: the canonical k-way merge
filters tombstoned rows out of the merged run and deletes the matched
tombstones, so the steady state carries no deletion debt.  A
tombstoned row exists in exactly one sealed run (global uniqueness),
which is what makes consume-on-match safe.

Budget accounting
-----------------

``memory_budget_bytes`` caps *accounted resident bytes*: tail buffers
and views, per-index metadata and in-RAM payloads, and the decode
cache.  Enforcement runs at seal/merge/index-build time, but residency
also grows *between* those points — probes fill the decode cache and
inserts refill the tail — so both are charged at capacity rather than
current fill: the cache at its cap, the tail at ``tail_rows`` fully
materialized rows.  Over budget, the store spills the largest payload
buffers to memory-mapped temp files (metadata and samples stay
resident; decoding reads straight from the map).  The decode cache
(default: unbounded without a budget, ``budget / 4`` with one) holds
whole-run decoded columns and packed key arrays when a run fits,
falling back to per-block entries when it does not.
"""

from __future__ import annotations

import mmap
import tempfile
from collections import OrderedDict
from typing import IO

import numpy as np

from repro.rdf.idstore import (
    IdGraph,
    concat_columns,
    expand_ranges,
    member_mask,
    pack_columns,
)
from repro.rdf.versioned import Versioned

_EMPTY = np.empty(0, dtype=np.int64)

#: Rows per compressed block.
_BLOCK_ROWS = 4096
#: Mutable-tail capacity before sealing into a run (no budget given).
_TAIL_ROWS = 65536
#: Size-tiered compaction fanout.
_FANOUT = 4
#: Estimated resident bytes/row of a fully decoded, key-packed run —
#: used to decide whole-run vs per-block cache granularity.
_DECODED_ROW_BYTES = 56
#: Resident bytes/row of a *full* mutable tail with every probe-order
#: view materialized (columns + sorted views + tail views, measured on
#: IdGraph).  The budget pre-charges the tail at this rate so refills
#: between enforcement points can never push residency past the cap.
_TAIL_ROW_CHARGE = 176
#: Target decoded rows per merge-cursor refill.
_MERGE_CHUNK_ROWS = 1 << 17

Columns = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Decode-cache key: (index serial, kind, extra) where kind 0 is the
#: whole-run decoded columns (extra 0), kind 1 a packed key array over
#: the first ``extra`` order positions, kind 2 one decoded block.
_CacheKey = tuple[int, int, int]


def order_for(positions: tuple[int, ...]) -> tuple[int, int, int]:
    """The canonical sort order whose *prefix* covers ``positions``
    (given ascending): SPO for s-anchored and full-key patterns, POS
    for p-anchored, OSP for o-anchored."""
    if positions in ((1,), (1, 2)):
        return (1, 2, 0)
    if positions in ((2,), (0, 2)):
        return (2, 0, 1)
    return (0, 1, 2)


def _width_for(max_value: int) -> int:
    if max_value < 1 << 8:
        return 1
    if max_value < 1 << 16:
        return 2
    if max_value < 1 << 32:
        return 4
    return 8


def _nbytes(arrays: tuple[np.ndarray, ...]) -> int:
    return sum(int(a.nbytes) for a in arrays)


class _OrderIndex:
    """One immutable sorted projection of a run: block-compressed
    columns (in *index order*), per-block first-row key samples, and
    codec metadata.  The payload buffer can be spilled to a
    memory-mapped temp file; everything else stays resident."""

    __slots__ = (
        "order", "serial", "n_rows", "row_counts", "samples",
        "modes", "widths", "bases", "payload_offsets",
        "_buf", "_file", "_mmap",
    )

    def __init__(
        self,
        order: tuple[int, int, int],
        serial: int,
        n_rows: int,
        row_counts: np.ndarray,
        samples: np.ndarray,
        modes: np.ndarray,
        widths: np.ndarray,
        bases: np.ndarray,
        payload_offsets: np.ndarray,
        buf: bytes,
    ) -> None:
        self.order = order
        self.serial = serial
        self.n_rows = n_rows
        self.row_counts = row_counts
        self.samples = samples
        self.modes = modes
        self.widths = widths
        self.bases = bases
        self.payload_offsets = payload_offsets
        self._buf: bytes | None = buf
        self._file: IO[bytes] | None = None
        self._mmap: mmap.mmap | None = None

    @property
    def n_blocks(self) -> int:
        return len(self.row_counts)

    @property
    def spilled(self) -> bool:
        return self._buf is None

    def payload_bytes(self) -> int:
        return int(self.payload_offsets[-1]) if len(self.payload_offsets) else 0

    def in_ram_bytes(self) -> int:
        """Accounted resident bytes: metadata always, payload unless
        spilled."""
        total = (
            self.row_counts.nbytes + self.samples.nbytes + self.modes.nbytes
            + self.widths.nbytes + self.bases.nbytes
            + self.payload_offsets.nbytes
        )
        if self._buf is not None:
            total += len(self._buf)
        return int(total)

    def spill(self) -> None:
        """Move the payload into a memory-mapped temporary file.  Reads
        keep working (the decoder slices the map); accounted resident
        bytes drop by the payload size."""
        if self._buf is None or len(self._buf) == 0:
            return
        f = tempfile.TemporaryFile()
        f.write(self._buf)
        f.flush()
        self._mmap = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        self._file = f
        self._buf = None

    def _data(self) -> "bytes | mmap.mmap":
        if self._buf is not None:
            return self._buf
        if self._mmap is None:
            return b""
        return self._mmap

    def decode_block(self, block: int) -> Columns:
        """Decode one block's three columns, *in index order*."""
        data = self._data()
        n = int(self.row_counts[block])
        cols: list[np.ndarray] = []
        for c in range(3):
            off = int(self.payload_offsets[3 * block + c])
            mode = int(self.modes[block, c])
            width = int(self.widths[block, c])
            base = int(self.bases[block, c])
            n_vals = n - 1 if mode == 1 else n
            vals = np.frombuffer(
                data, dtype=f"<u{width}", count=n_vals, offset=off
            ).astype(np.int64)
            if mode == 1:
                out = np.empty(n, dtype=np.int64)
                out[0] = base
                np.cumsum(vals, out=out[1:])
                out[1:] += base
                cols.append(out)
            else:
                cols.append(base + vals)
        return (cols[0], cols[1], cols[2])

    def close(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None


class _IndexBuilder:
    """Incremental block encoder: feed globally key-sorted column slabs
    (in index order), get a finished :class:`_OrderIndex`.  Holds at
    most one block of pending rows plus the compressed payload."""

    def __init__(self, order: tuple[int, int, int], block_rows: int) -> None:
        self.order = order
        self.block_rows = block_rows
        self.n_rows = 0
        self._pending: list[Columns] = []
        self._pending_rows = 0
        self._payload: list[bytes] = []
        self._payload_lens: list[int] = []
        self._row_counts: list[int] = []
        self._samples: list[np.ndarray] = []
        self._modes: list[tuple[int, int, int]] = []
        self._widths: list[tuple[int, int, int]] = []
        self._bases: list[tuple[int, int, int]] = []

    def append(self, cols: Columns) -> None:
        n = len(cols[0])
        if n == 0:
            return
        self._pending.append(cols)
        self._pending_rows += n
        self.n_rows += n
        if self._pending_rows >= self.block_rows:
            self._flush(final=False)

    def _emit(self, cols: Columns) -> None:
        self._row_counts.append(len(cols[0]))
        self._samples.append(
            pack_columns((cols[0][:1], cols[1][:1], cols[2][:1])))
        modes: list[int] = []
        widths: list[int] = []
        bases: list[int] = []
        for col in cols:
            mode, width, base, payload = _encode_block_column(col)
            modes.append(mode)
            widths.append(width)
            bases.append(base)
            self._payload.append(payload)
            self._payload_lens.append(len(payload))
        self._modes.append((modes[0], modes[1], modes[2]))
        self._widths.append((widths[0], widths[1], widths[2]))
        self._bases.append((bases[0], bases[1], bases[2]))

    def _flush(self, final: bool) -> None:
        if self._pending_rows == 0:
            return
        cols = concat_columns(self._pending)
        total = self._pending_rows
        self._pending = []
        self._pending_rows = 0
        stop = total if final else (total // self.block_rows) * self.block_rows
        start = 0
        while start < stop:
            end = min(start + self.block_rows, stop)
            self._emit((cols[0][start:end], cols[1][start:end],
                        cols[2][start:end]))
            start = end
        if stop < total:
            self._pending = [(cols[0][stop:], cols[1][stop:], cols[2][stop:])]
            self._pending_rows = total - stop

    def finish(self, serial: int) -> _OrderIndex:
        self._flush(final=True)
        nb = len(self._row_counts)
        row_counts = np.asarray(self._row_counts, dtype=np.int64)
        if self._samples:
            samples = np.concatenate(self._samples)
        else:
            samples = np.empty(
                0, dtype=np.dtype([(f"f{i}", np.int64) for i in range(3)]))
        modes = np.asarray(self._modes, dtype=np.uint8).reshape(nb, 3)
        widths = np.asarray(self._widths, dtype=np.uint8).reshape(nb, 3)
        bases = np.asarray(self._bases, dtype=np.int64).reshape(nb, 3)
        payload_offsets = np.zeros(3 * nb + 1, dtype=np.int64)
        if nb:
            np.cumsum(
                np.asarray(self._payload_lens, dtype=np.int64),
                out=payload_offsets[1:])
        return _OrderIndex(
            self.order, serial, self.n_rows, row_counts, samples,
            modes, widths, bases, payload_offsets, b"".join(self._payload))


def _encode_block_column(col: np.ndarray) -> tuple[int, int, int, bytes]:
    """Compress one int64 column of a block.

    Returns ``(mode, width, base, payload)``: mode 1 delta-encodes a
    non-decreasing column as first value + gaps, mode 0 frame-of-
    reference encodes as min + offsets; residuals are packed at the
    smallest unsigned byte width in {1, 2, 4, 8} that fits."""
    n = len(col)
    if n == 0:
        return 0, 1, 0, b""
    diffs = np.diff(col)
    if n > 1 and bool((diffs >= 0).all()):
        mode, base, vals = 1, int(col[0]), diffs
    else:
        base = int(col.min())
        mode, vals = 0, col - base
    width = _width_for(int(vals.max(initial=0)))
    return mode, width, base, vals.astype(f"<u{width}").tobytes()


class _MergeCursor:
    """Streams one index's rows in sorted order, a few blocks at a
    time — the bounded-memory source of the k-way merge."""

    __slots__ = ("idx", "chunk_blocks", "_next_block", "cols", "keys")

    def __init__(self, idx: _OrderIndex, chunk_blocks: int) -> None:
        self.idx = idx
        self.chunk_blocks = max(1, chunk_blocks)
        self._next_block = 0
        self.cols: Columns = (_EMPTY, _EMPTY, _EMPTY)
        self.keys: np.ndarray = _EMPTY

    def refill(self) -> bool:
        """Ensure a non-empty buffer; ``False`` when exhausted."""
        if len(self.keys):
            return True
        if self._next_block >= self.idx.n_blocks:
            return False
        end = min(self._next_block + self.chunk_blocks, self.idx.n_blocks)
        parts = [self.idx.decode_block(b)
                 for b in range(self._next_block, end)]
        self._next_block = end
        self.cols = concat_columns(parts)
        self.keys = pack_columns(self.cols)
        return True

    def take(self, limit: np.ndarray) -> Columns:
        """Take buffered rows with key <= ``limit`` (a 1-element key
        array) off the front of the buffer."""
        cut = int(np.searchsorted(self.keys, limit, side="right")[0])
        out = (self.cols[0][:cut], self.cols[1][:cut], self.cols[2][:cut])
        self.cols = (self.cols[0][cut:], self.cols[1][cut:],
                     self.cols[2][cut:])
        self.keys = self.keys[cut:]
        return out

    def take_rest(self) -> Columns:
        out = self.cols
        self.cols = (_EMPTY, _EMPTY, _EMPTY)
        self.keys = _EMPTY
        return out


class _Run:
    """An immutable sorted run: the canonical (s, p, o) index plus
    lazily built secondary sort orders."""

    __slots__ = ("indexes",)

    def __init__(self, canonical: _OrderIndex) -> None:
        self.indexes: dict[tuple[int, int, int], _OrderIndex] = {
            (0, 1, 2): canonical}

    @property
    def canonical(self) -> _OrderIndex:
        return self.indexes[(0, 1, 2)]

    @property
    def n_rows(self) -> int:
        return self.canonical.n_rows


class RunStore(Versioned):
    """Memory-budgeted LSM triple store with the :class:`IdGraph`
    probe surface.

    Rows are unique (set semantics); :meth:`add_rows` returns the rows
    actually added, unique and key-sorted — the same contract as the
    dense store, which is what keeps the columnar engine's work
    counters identical over either.  Its :attr:`version` moves with
    the logical row set only: seals, merges and spills keep it.
    """

    def __init__(
        self,
        memory_budget_bytes: int | None = None,
        tail_rows: int | None = None,
        block_rows: int = _BLOCK_ROWS,
        fanout: int = _FANOUT,
        cache_bytes: int | None = None,
    ) -> None:
        super().__init__()
        self.memory_budget_bytes = memory_budget_bytes
        if tail_rows is None:
            if memory_budget_bytes is None:
                tail_rows = _TAIL_ROWS
            else:
                # The tail is charged at its fully-materialized rate:
                # size it so the mutable layer takes at most a quarter
                # of the budget.
                tail_rows = min(_TAIL_ROWS, max(
                    256, memory_budget_bytes // (4 * _TAIL_ROW_CHARGE)))
        self.tail_rows = max(1, tail_rows)
        self.block_rows = max(64, block_rows)
        self.fanout = max(2, fanout)
        if cache_bytes is None and memory_budget_bytes is not None:
            cache_bytes = max(1 << 16, memory_budget_bytes // 4)
        #: Decode-cache cap; ``None`` = unbounded (no budget given).
        self.cache_bytes = cache_bytes
        self.seals = 0
        self.merges = 0
        self.spills = 0
        self.tombstones_cleared = 0
        self._tail = IdGraph()
        #: Rows deleted from sealed (immutable) runs; filtered out of
        #: every read surface and annihilated at canonical merges.
        self._tombs = IdGraph()
        self._runs: list[_Run] = []
        self._serial = 0
        self._cache: OrderedDict[_CacheKey, tuple[np.ndarray, ...]] = (
            OrderedDict())
        self._cache_used = 0

    # -- basic surface ----------------------------------------------------

    def __len__(self) -> int:
        return (len(self._tail) + sum(r.n_rows for r in self._runs)
                - len(self._tombs))

    def __repr__(self) -> str:
        return (f"<RunStore with {len(self)} rows in {len(self._runs)} "
                f"runs + {len(self._tail)}-row tail>")

    def columns(self) -> Columns:
        """Decode the whole store into dense ``(s, p, o)`` columns.

        Export-only: this inflates every run (the fixpoint path never
        calls it on the store side except for fully unconstrained
        atoms)."""
        parts: list[Columns] = []
        for run in self._runs:
            idx = run.canonical
            parts.append(concat_columns(
                [idx.decode_block(b) for b in range(idx.n_blocks)]))
        if parts and len(self._tombs):
            s, p, o = concat_columns(parts)
            alive = ~self._tombs.contains_rows(s, p, o)
            parts = [(s[alive], p[alive], o[alive])]
        if len(self._tail):
            parts.append(self._tail.columns())
        return concat_columns(parts)

    def column(self, position: int) -> np.ndarray:
        """One fully decoded column by triple position (0=s, 1=p, 2=o)."""
        return self.columns()[position]

    # -- mutation ---------------------------------------------------------

    def add_rows(
        self, s: np.ndarray, p: np.ndarray, o: np.ndarray
    ) -> Columns:
        """Insert rows, deduplicating against the batch and the store;
        returns the rows actually added (unique, key-sorted)."""
        if len(s) == 0:
            return _EMPTY, _EMPTY, _EMPTY
        keys = pack_columns((s, p, o))
        uniq, first = np.unique(keys, return_index=True)
        s, p, o = s[first], p[first], o[first]
        if len(self):
            fresh = ~self.contains_rows(s, p, o)
            s, p, o = s[fresh], p[fresh], o[fresh]
        # Re-adding a tombstoned row consumes the tombstone (the sealed
        # run copy becomes live again) instead of writing a duplicate.
        ts, tp, to = s, p, o
        if len(self._tombs) and len(s):
            dead = self._tombs.contains_rows(s, p, o)
            if dead.any():
                self._tombs.delete_rows(s[dead], p[dead], o[dead])
                live = ~dead
                ts, tp, to = s[live], p[live], o[live]
        start = 0
        n_new = len(ts)
        while start < n_new:
            room = self.tail_rows - len(self._tail)
            if room <= 0:
                self._seal()
                continue
            end = min(n_new, start + room)
            self._tail.add_rows(ts[start:end], tp[start:end], to[start:end])
            start = end
        if len(self._tail) >= self.tail_rows:
            self._seal()
        if len(s):
            self._bump()
        return s, p, o

    def delete_rows(self, s: np.ndarray, p: np.ndarray, o: np.ndarray) -> int:
        """Remove rows from the store; rows not present are ignored.

        Returns the number of rows actually removed.  Rows still in the
        mutable tail are compacted away physically; rows frozen into a
        sealed run become tombstones, filtered out of every read path
        and merged away at the next compaction of their run.
        """
        if len(s) == 0 or len(self) == 0:
            return 0
        keys = pack_columns((s, p, o))
        _uniq, first = np.unique(keys, return_index=True)
        s, p, o = s[first], p[first], o[first]
        present = self.contains_rows(s, p, o)
        if not present.any():
            return 0
        s, p, o = s[present], p[present], o[present]
        in_tail = self._tail.contains_rows(s, p, o)
        if in_tail.any():
            self._tail.delete_rows(s[in_tail], p[in_tail], o[in_tail])
        sealed = ~in_tail
        if sealed.any():
            self._tombs.add_rows(s[sealed], p[sealed], o[sealed])
        self._bump(rewrite=True)
        return len(s)

    def _next_serial(self) -> int:
        self._serial += 1
        return self._serial

    def _seal(self) -> None:
        """Freeze the tail into a new canonical run, then compact."""
        tail = self._tail
        if len(tail) == 0:
            return
        _keys, perm = tail.sorted_view((0, 1, 2))
        s, p, o = tail.columns()
        builder = _IndexBuilder((0, 1, 2), self.block_rows)
        builder.append((s[perm], p[perm], o[perm]))
        self._runs.append(_Run(builder.finish(self._next_serial())))
        self.seals += 1
        self._tail = IdGraph()
        self._compact()
        self._enforce_budget()

    # -- compaction -------------------------------------------------------

    def _size_class(self, n_rows: int) -> int:
        cls = 0
        cap = self.tail_rows
        while n_rows > cap:
            cap *= self.fanout
            cls += 1
        return cls

    def _compact(self) -> None:
        """Size-tiered merge: whenever a size class holds ``fanout``
        runs, k-way merge them into one (repeating upward)."""
        while True:
            by_class: dict[int, list[_Run]] = {}
            for run in self._runs:
                by_class.setdefault(
                    self._size_class(run.n_rows), []).append(run)
            group: list[_Run] | None = None
            for cls in sorted(by_class):
                if len(by_class[cls]) >= self.fanout:
                    group = by_class[cls]
                    break
            if group is None:
                return
            merged = _Run(self._merge_indexes(
                [r.canonical for r in group], (0, 1, 2),
                drop=self._tombs))
            self.merges += 1
            retired = {id(r) for r in group}
            out: list[_Run] = []
            placed = False
            for run in self._runs:
                if id(run) in retired:
                    if not placed:
                        out.append(merged)
                        placed = True
                    self._retire(run)
                else:
                    out.append(run)
            self._runs = out

    def _retire(self, run: _Run) -> None:
        serials = {idx.serial for idx in run.indexes.values()}
        for key in [k for k in self._cache if k[0] in serials]:
            self._cache_used -= _nbytes(self._cache.pop(key))
        for idx in run.indexes.values():
            idx.close()

    def _merge_chunk_blocks(self, n_sources: int) -> int:
        rows = _MERGE_CHUNK_ROWS
        budget = self.memory_budget_bytes
        if budget is not None:
            # Cursor buffers are decoded + keyed (~48 B/row); keep all
            # of them inside a modest slice of the budget.
            rows = min(rows, max(
                self.block_rows, budget // (96 * max(1, n_sources))))
        return max(1, rows // self.block_rows)

    def _merge_indexes(
        self,
        sources: list[_OrderIndex],
        order: tuple[int, int, int],
        drop: IdGraph | None = None,
    ) -> _OrderIndex:
        """Streaming k-way merge of same-order indexes.  Rows are
        globally unique across sources (insert-time dedup), so no
        re-dedup happens here.  With ``drop`` (canonical merges only —
        rows must be in (s, p, o) position order), rows present in it
        are filtered out of the merged index and *consumed* from
        ``drop``: this is the tombstone annihilation step.
        """
        if drop is not None and len(drop) == 0:
            drop = None
        if drop is not None and order != (0, 1, 2):
            raise ValueError("tombstone filtering requires canonical order")
        consumed: list[Columns] = []

        def strip(cols: Columns) -> Columns:
            if drop is None or len(cols[0]) == 0:
                return cols
            dead = drop.contains_rows(cols[0], cols[1], cols[2])
            if not dead.any():
                return cols
            consumed.append((cols[0][dead], cols[1][dead], cols[2][dead]))
            live = ~dead
            return (cols[0][live], cols[1][live], cols[2][live])

        builder = _IndexBuilder(order, self.block_rows)
        chunk = self._merge_chunk_blocks(len(sources))
        active = [c for c in (_MergeCursor(idx, chunk) for idx in sources)
                  if c.refill()]
        while active:
            if len(active) == 1:
                cursor = active[0]
                builder.append(strip(cursor.take_rest()))
                while cursor.refill():
                    builder.append(strip(cursor.take_rest()))
                break
            limit = np.sort(
                np.concatenate([c.keys[-1:] for c in active]))[:1]
            slabs = [c.take(limit) for c in active]
            merged = concat_columns(slabs)
            perm = np.argsort(pack_columns(merged), kind="stable")
            builder.append(strip(
                (merged[0][perm], merged[1][perm], merged[2][perm])))
            active = [c for c in active if c.refill()]
        if drop is not None and consumed:
            gone = concat_columns(consumed)
            drop.delete_rows(*gone)
            self.tombstones_cleared += len(gone[0])
        return builder.finish(self._next_serial())

    # -- secondary orders -------------------------------------------------

    def _index(
        self, run: _Run, order: tuple[int, int, int]
    ) -> _OrderIndex:
        idx = run.indexes.get(order)
        if idx is None:
            idx = self._build_secondary(run, order)
            run.indexes[order] = idx
            self._enforce_budget()
        return idx

    def _build_secondary(
        self, run: _Run, order: tuple[int, int, int]
    ) -> _OrderIndex:
        """Re-sort a run into a secondary order via bounded external
        sort: decode canonical chunks, sort each into a runlet, then
        stream-merge the runlets."""
        can = run.canonical
        chunk = self._merge_chunk_blocks(1)
        runlets: list[_OrderIndex] = []
        b = 0
        while b < can.n_blocks:
            end = min(b + chunk, can.n_blocks)
            cols = concat_columns([can.decode_block(i) for i in range(b, end)])
            b = end
            ocols = (cols[order[0]], cols[order[1]], cols[order[2]])
            perm = np.argsort(pack_columns(ocols), kind="stable")
            builder = _IndexBuilder(order, self.block_rows)
            builder.append((ocols[0][perm], ocols[1][perm], ocols[2][perm]))
            runlets.append(builder.finish(self._next_serial()))
        if len(runlets) == 1:
            return runlets[0]
        if not runlets:
            return _IndexBuilder(order, self.block_rows).finish(
                self._next_serial())
        return self._merge_indexes(runlets, order)

    # -- decode cache -----------------------------------------------------

    def _cache_get(self, key: _CacheKey) -> tuple[np.ndarray, ...] | None:
        val = self._cache.get(key)
        if val is not None:
            self._cache.move_to_end(key)
        return val

    def _cache_put(self, key: _CacheKey, val: tuple[np.ndarray, ...]) -> None:
        old = self._cache.pop(key, None)
        if old is not None:
            self._cache_used -= _nbytes(old)
        self._cache[key] = val
        self._cache_used += _nbytes(val)
        cap = self.cache_bytes
        if cap is not None:
            while self._cache_used > cap and len(self._cache) > 1:
                self._cache_used -= _nbytes(
                    self._cache.popitem(last=False)[1])

    def _whole_run_fits(self, idx: _OrderIndex) -> bool:
        cap = self.cache_bytes
        if cap is None:
            return True
        return idx.n_rows * _DECODED_ROW_BYTES <= cap // 2

    def _full_arrays(
        self, idx: _OrderIndex, prefix_len: int
    ) -> tuple[Columns, np.ndarray]:
        """Whole-run decoded columns (index order) + packed keys over
        the order prefix, through the cache."""
        cached = self._cache_get((idx.serial, 0, 0))
        if cached is None:
            cols = concat_columns(
                [idx.decode_block(b) for b in range(idx.n_blocks)])
            self._cache_put((idx.serial, 0, 0), cols)
        else:
            cols = (cached[0], cached[1], cached[2])
        kcached = self._cache_get((idx.serial, 1, prefix_len))
        if kcached is None:
            keys = pack_columns(cols[:prefix_len])
            self._cache_put((idx.serial, 1, prefix_len), (keys,))
        else:
            keys = kcached[0]
        return cols, keys

    def _block_cols(self, idx: _OrderIndex, block: int) -> Columns:
        cached = self._cache_get((idx.serial, 2, block))
        if cached is not None:
            return (cached[0], cached[1], cached[2])
        cols = idx.decode_block(block)
        self._cache_put((idx.serial, 2, block), cols)
        return cols

    # -- probing ----------------------------------------------------------

    def _needed_blocks(
        self, idx: _OrderIndex, prefix_cols: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """Block numbers that may hold matches for any query, via
        sentinel-key searchsorted over the per-block first-key samples."""
        nb = idx.n_blocks
        if nb == 0:
            return _EMPTY
        samples = idx.samples
        prefix_len = len(prefix_cols)
        nq = len(prefix_cols[0])
        lo_key = np.empty(nq, dtype=samples.dtype)
        hi_key = np.empty(nq, dtype=samples.dtype)
        int64 = np.iinfo(np.int64)
        for i in range(3):
            name = f"f{i}"
            if i < prefix_len:
                lo_key[name] = prefix_cols[i]
                hi_key[name] = prefix_cols[i]
            else:
                lo_key[name] = int64.min
                hi_key[name] = int64.max
        blo = np.searchsorted(samples, lo_key, side="right") - 1
        np.clip(blo, 0, None, out=blo)
        bhi = np.searchsorted(samples, hi_key, side="right") - 1
        np.clip(bhi, 0, None, out=bhi)
        diff = np.zeros(nb + 1, dtype=np.int64)
        np.add.at(diff, blo, 1)
        np.add.at(diff, bhi + 1, -1)
        return np.nonzero(np.cumsum(diff[:nb]) > 0)[0]

    def _union_arrays(
        self, idx: _OrderIndex, blocks: np.ndarray, prefix_len: int
    ) -> tuple[Columns, np.ndarray]:
        """Decoded columns + packed prefix keys over a sorted subset of
        blocks (still globally key-sorted — blocks are consecutive runs
        of a sorted sequence)."""
        cols = concat_columns([self._block_cols(idx, int(b)) for b in blocks])
        return cols, pack_columns(cols[:prefix_len])

    def _probe_index(
        self, idx: _OrderIndex, prefix_cols: tuple[np.ndarray, ...]
    ) -> tuple[Columns, np.ndarray]:
        """Probe one index with query columns over its order prefix.
        Returns matching rows' values (index order) + query numbers."""
        if idx.n_rows == 0 or len(prefix_cols[0]) == 0:
            return (_EMPTY, _EMPTY, _EMPTY), _EMPTY
        prefix_len = len(prefix_cols)
        if self._whole_run_fits(idx):
            cols, keys = self._full_arrays(idx, prefix_len)
        else:
            blocks = self._needed_blocks(idx, prefix_cols)
            if len(blocks) == 0:
                return (_EMPTY, _EMPTY, _EMPTY), _EMPTY
            cols, keys = self._union_arrays(idx, blocks, prefix_len)
        query = pack_columns(prefix_cols)
        lo = np.searchsorted(keys, query, side="left")
        hi = np.searchsorted(keys, query, side="right")
        flat, reps = expand_ranges(lo, hi)
        if len(flat) == 0:
            return (_EMPTY, _EMPTY, _EMPTY), _EMPTY
        return (cols[0][flat], cols[1][flat], cols[2][flat]), reps

    def probe(
        self, positions: tuple[int, ...], query_cols: tuple[np.ndarray, ...]
    ) -> tuple[Columns, np.ndarray]:
        """Batch pattern lookup returning matching rows' *values* —
        the store-agnostic probe surface shared with
        :meth:`IdGraph.probe`.  ``query_cols[i]`` binds
        ``positions[i]`` (positions ascending); returns
        ``((s, p, o), reps)`` with one entry per matching row, summed
        over every run and the tail."""
        order = order_for(positions)
        prefix = order[:len(positions)]
        by_pos = dict(zip(positions, query_cols))
        ordered_q = tuple(by_pos[pos] for pos in prefix)
        parts_cols: list[Columns] = []
        parts_reps: list[np.ndarray] = []
        for run in self._runs:
            idx = self._index(run, order)
            vals, reps = self._probe_index(idx, ordered_q)
            if len(reps):
                spo: list[np.ndarray] = [_EMPTY, _EMPTY, _EMPTY]
                for i, pos in enumerate(idx.order):
                    spo[pos] = vals[i]
                if len(self._tombs):
                    alive = ~self._tombs.contains_rows(spo[0], spo[1], spo[2])
                    if not alive.all():
                        spo = [spo[0][alive], spo[1][alive], spo[2][alive]]
                        reps = reps[alive]
                if len(reps):
                    parts_cols.append((spo[0], spo[1], spo[2]))
                    parts_reps.append(reps)
        if len(self._tail):
            tvals, treps = self._tail.probe(positions, query_cols)
            if len(treps):
                parts_cols.append(tvals)
                parts_reps.append(treps)
        if not parts_cols:
            return (_EMPTY, _EMPTY, _EMPTY), _EMPTY
        if len(parts_cols) == 1:
            return parts_cols[0], parts_reps[0]
        return concat_columns(parts_cols), np.concatenate(parts_reps)

    def count_matching(
        self, positions: tuple[int, ...], query_cols: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """Per-query count of rows matching the bound positions, summed
        over every run and the tail — the cardinality estimate feeding
        join ordering in :mod:`repro.rdf.idquery`.  Sealed matches are
        counted *before* tombstone filtering (an upper bound when
        tombstones are pending; exact otherwise): ordering only needs
        relative magnitudes, and exactness would force materializing the
        rows this method exists to avoid."""
        order = order_for(positions)
        prefix = order[:len(positions)]
        by_pos = dict(zip(positions, query_cols))
        ordered_q = tuple(by_pos[pos] for pos in prefix)
        total = self._tail.count_matching(positions, query_cols)
        query = pack_columns(ordered_q)
        for run in self._runs:
            idx = self._index(run, order)
            if idx.n_rows == 0:
                continue
            if self._whole_run_fits(idx):
                _cols, keys = self._full_arrays(idx, len(prefix))
            else:
                blocks = self._needed_blocks(idx, ordered_q)
                if len(blocks) == 0:
                    continue
                _cols, keys = self._union_arrays(idx, blocks, len(prefix))
            lo = np.searchsorted(keys, query, side="left")
            hi = np.searchsorted(keys, query, side="right")
            total = total + (hi - lo)
        return total

    def contains_rows(
        self, s: np.ndarray, p: np.ndarray, o: np.ndarray
    ) -> np.ndarray:
        """Vectorized membership over every run (canonical index, block
        pruned) and the tail."""
        nq = len(s)
        if nq == 0 or len(self) == 0:
            return np.zeros(nq, dtype=bool)
        tail_mask = self._tail.contains_rows(s, p, o)
        run_mask = np.zeros(nq, dtype=bool)
        cols = (s, p, o)
        for run in self._runs:
            idx = run.canonical
            if idx.n_rows == 0:
                continue
            if self._whole_run_fits(idx):
                _cols, keys = self._full_arrays(idx, 3)
            else:
                blocks = self._needed_blocks(idx, cols)
                if len(blocks) == 0:
                    continue
                _cols, keys = self._union_arrays(idx, blocks, 3)
            run_mask = run_mask | member_mask(keys, pack_columns(cols))
        if len(self._tombs):
            run_mask &= ~self._tombs.contains_rows(s, p, o)
        return tail_mask | run_mask

    # -- accounting -------------------------------------------------------

    def in_ram_bytes(self) -> int:
        """Accounted resident bytes: tail, per-index metadata and
        unspilled payloads, and the decode cache."""
        total = self._tail.memory_bytes() + self._tombs.memory_bytes()
        for run in self._runs:
            for idx in run.indexes.values():
                total += idx.in_ram_bytes()
        return total + self._cache_used

    def memory_bytes(self) -> int:
        """Alias for :meth:`in_ram_bytes` (dense-store API parity)."""
        return self.in_ram_bytes()

    def payload_bytes(self) -> int:
        """Total compressed payload bytes across all indexes (resident
        or spilled)."""
        return sum(idx.payload_bytes() for run in self._runs
                   for idx in run.indexes.values())

    def _enforce_budget(self) -> None:
        budget = self.memory_budget_bytes
        if budget is None:
            return
        # Charge the decode cache at its *cap* and the tail at *full*
        # capacity, not their current fill: probes grow the cache and
        # inserts refill the tail between enforcement points (seals and
        # index builds), and pre-charging both means that growth can
        # never push accounted residency past the budget.
        cap = self.cache_bytes if self.cache_bytes is not None else 0
        tail_charge = self.tail_rows * _TAIL_ROW_CHARGE

        def resident() -> int:
            return (self.in_ram_bytes() - self._cache_used + cap
                    - self._tail.memory_bytes() + tail_charge)

        if resident() <= budget:
            return
        spillable = [idx for run in self._runs
                     for idx in run.indexes.values()
                     if not idx.spilled and idx.payload_bytes()]
        spillable.sort(key=lambda idx: idx.payload_bytes(), reverse=True)
        for idx in spillable:
            idx.spill()
            self.spills += 1
            if resident() <= budget:
                break

    def store_stats(self) -> dict[str, int]:
        """Observability snapshot for benches and tests."""
        return {
            "rows": len(self),
            "runs": len(self._runs),
            "tail_rows": len(self._tail),
            "tombstones": len(self._tombs),
            "tombstones_cleared": self.tombstones_cleared,
            "seals": self.seals,
            "merges": self.merges,
            "spills": self.spills,
            "in_ram_bytes": self.in_ram_bytes(),
            "payload_bytes": self.payload_bytes(),
            "cache_bytes_used": self._cache_used,
        }
