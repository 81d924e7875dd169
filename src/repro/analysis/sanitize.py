"""Runtime store sanitizer (SAN): sampled dynamic invariant checks.

The static dataflow pass (:mod:`repro.analysis.dataflow`, ST300-series)
proves the *code* follows the store discipline; this module checks the
*data* at runtime.  It is the dynamic half of the two-sided contract: an
opt-in layer that wraps the id-native stores with sampled checks of the
invariants the closure silently relies on —

* sorted-view monotonicity and permutation validity after every rebuild
  (``sorted-view-*``),
* run/block key ordering, per-block row counts and sample-key agreement
  across the LSM tiers (``run-*``), plus cross-tier and cross-run dedup
  (``lsm-*``),
* tombstone/resurrection consistency after ``add_rows``/``delete_rows``
  (``insert-visibility``/``delete-visibility``/``tombstone-*``),
* stripe disjointness of minted term ids across workers and epochs
  (``stripe-*``), checked at every executor's gather, and
* Safra ledger conservation — sent == received + outstanding has drained
  — at async termination (``ledger-*``).

A violated invariant raises a typed :class:`SanitizerError` naming the
store, the invariant, and the offending rows.  Enable with
``REPRO_SANITIZE=1`` in the environment or ``sanitize=True`` through
:class:`~repro.owl.kb.MaterializedKB`, the parallel driver, or the worker
config — the flag only selects the sanitized store subclasses at
construction time (in :func:`repro.rdf.stores.make_store`, the only
production importer of this module), so the unsanitized hot path carries
zero overhead.

Sampling policy: structures at or below ``_SMALL_ROWS`` rows are checked
on every event (the vector ops cost microseconds there); larger ones are
checked with probability ``sample_rate`` (default 1/16) drawn from a
:func:`repro.util.seeding.rng_for` generator, so a failing run replays
deterministically.  ``verify()`` on either store runs the full
(unsampled) sweep — the smoke tests use it directly.

The sanitizer reads store privates but never mutates them; it is listed
in the dataflow pass's consumer-module scan to keep that one-way promise
checked.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.rdf.idstore import IdGraph, member_mask, pack_columns
from repro.rdf.runstore import RunStore
from repro.util.seeding import rng_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.parallel.messages import OutputMsg
    from repro.parallel.termination import CountingTermination
    from repro.rdf.dictionary import PartitionDictionary
    from repro.rdf.runstore import _OrderIndex, _Run

#: Structures at or below this many rows are checked on every event.
_SMALL_ROWS = 4096

#: Default probability of checking a larger structure per event.
_DEFAULT_RATE = 1.0 / 16.0

#: Rows probed per membership spot-check.
_PROBE_ROWS = 64

class SanitizerError(RuntimeError):
    """A store invariant observed broken at runtime.

    ``store`` names the wrapped instance, ``invariant`` the violated rule
    (e.g. ``sorted-view-monotonic``), ``detail`` the offending rows.
    """

    def __init__(self, store: str, invariant: str, detail: str) -> None:
        self.store = store
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"[{invariant}] {store}: {detail}")


# -- shared primitives ---------------------------------------------------------


def _keys_lt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``a < b`` for packed keys (plain int64 or the
    structured multi-column dtype, whose voids have no ``<`` ufunc)."""
    if a.dtype.names is None:
        return np.asarray(a < b)
    out = np.zeros(a.shape, dtype=bool)
    tie = np.ones(a.shape, dtype=bool)
    for name in a.dtype.names:
        out |= tie & (a[name] < b[name])
        tie &= a[name] == b[name]
    return out


def _keys_eq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype.names is None:
        return np.asarray(a == b)
    out = np.ones(a.shape, dtype=bool)
    for name in a.dtype.names:
        out &= a[name] == b[name]
    return out


def _key_str(keys: np.ndarray, i: int) -> str:
    return str(keys[i].item())


def _check_sorted(store: str, invariant: str, keys: np.ndarray) -> None:
    if len(keys) > 1:
        bad = np.flatnonzero(_keys_lt(keys[1:], keys[:-1]))
        if len(bad):
            i = int(bad[0])
            raise SanitizerError(
                store,
                invariant,
                f"keys out of order at index {i}: "
                f"{_key_str(keys, i)} > {_key_str(keys, i + 1)}",
            )


def _check_permutation(
    store: str, invariant: str, perm: np.ndarray, covered: int
) -> None:
    if len(perm) != covered:
        raise SanitizerError(
            store,
            invariant,
            f"permutation has {len(perm)} entries for {covered} covered rows",
        )
    if covered == 0:
        return
    if int(perm.min()) < 0 or int(perm.max()) >= covered:
        raise SanitizerError(
            store,
            invariant,
            f"permutation entries outside [0, {covered}): "
            f"min={int(perm.min())} max={int(perm.max())}",
        )
    seen = np.zeros(covered, dtype=bool)
    seen[perm] = True
    if not bool(seen.all()):
        missing = int(np.flatnonzero(~seen)[0])
        raise SanitizerError(
            store,
            invariant,
            f"permutation is not a bijection: row {missing} never mapped "
            "(a duplicate entry shadows it)",
        )


def _sample_rows(rng: random.Random, n: int, want: int) -> np.ndarray:
    """Up to ``want`` distinct row indices into ``n`` rows (sorted)."""
    if n <= want:
        return np.arange(n)
    return np.asarray(sorted(rng.sample(range(n), want)), dtype=np.intp)


# -- sanitized IdGraph ---------------------------------------------------------


class SanitizedIdGraph(IdGraph):
    """:class:`IdGraph` with sampled runtime invariant checks.

    Drop-in: same constructor plus keyword-only ``label``/``seed``/
    ``sample_rate``.  Checks fire after rebuilds, probes, and mutations;
    :meth:`verify` runs the full unsampled sweep.
    """

    def __init__(
        self,
        capacity: int = 0,
        tail_threshold: int | None = None,
        *,
        label: str = "IdGraph",
        seed: int = 0,
        sample_rate: float | None = None,
    ) -> None:
        super().__init__(capacity, tail_threshold)
        self._san_label = label
        self._san_rng = rng_for(seed, "sanitize", label)
        self._san_rate = _DEFAULT_RATE if sample_rate is None else sample_rate

    def _san_hit(self, size: int) -> bool:
        if size <= _SMALL_ROWS or self._san_rate >= 1.0:
            return True
        return bool(self._san_rng.random() < self._san_rate)

    def _rebuild(
        self, positions: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray, int]:
        cached = super()._rebuild(positions)
        keys, perm, covered = cached
        if self._san_hit(len(keys)):
            _check_sorted(self._san_label, "sorted-view-monotonic", keys)
            _check_permutation(
                self._san_label, "sorted-view-permutation", perm, covered
            )
        return cached

    def _view_parts(
        self, positions: tuple[int, ...]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        parts = super()._view_parts(positions)
        n = self._n
        for keys, rows in parts:
            if not self._san_hit(len(keys)):
                continue
            _check_sorted(self._san_label, "sorted-view-monotonic", keys)
            if len(rows) and (int(rows.min()) < 0 or int(rows.max()) >= n):
                raise SanitizerError(
                    self._san_label,
                    "sorted-view-rows",
                    f"view over positions {positions} maps to rows outside "
                    f"[0, {n}): min={int(rows.min())} max={int(rows.max())}",
                )
        return parts

    def add_rows(
        self, s: np.ndarray, p: np.ndarray, o: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        added = super().add_rows(s, p, o)
        n_added = len(added[0])
        if n_added and self._san_hit(n_added):
            take = _sample_rows(self._san_rng, n_added, _PROBE_ROWS)
            present = self.contains_rows(
                added[0][take], added[1][take], added[2][take]
            )
            if not bool(present.all()):
                raise SanitizerError(
                    self._san_label,
                    "insert-visibility",
                    f"{int((~present).sum())} of {len(take)} freshly added "
                    "rows are not visible to membership probes",
                )
        return added

    def delete_rows(self, s: np.ndarray, p: np.ndarray, o: np.ndarray) -> int:
        removed = super().delete_rows(s, p, o)
        if removed and len(s) and self._san_hit(len(s)):
            take = _sample_rows(self._san_rng, len(s), _PROBE_ROWS)
            still = self.contains_rows(s[take], p[take], o[take])
            if bool(still.any()):
                raise SanitizerError(
                    self._san_label,
                    "delete-visibility",
                    f"{int(still.sum())} of {len(take)} deleted rows are "
                    "still visible to membership probes",
                )
        return removed

    def verify(self) -> None:
        """Full (unsampled) sweep over every cached view."""
        n = self._n
        for key, view in self._cached_items():
            if key[0] not in ("view", "tail"):
                continue
            kind, positions = key
            keys, rows, covered = view
            _check_sorted(self._san_label, "sorted-view-monotonic", keys)
            if kind == "view":
                _check_permutation(
                    self._san_label, "sorted-view-permutation", rows, covered
                )
            if covered > n:
                raise SanitizerError(
                    self._san_label,
                    "sorted-view-coverage",
                    f"{kind} over positions {positions} covers {covered} "
                    f"rows but the store holds {n}",
                )
            if kind == "tail" and len(rows) and (
                int(rows.min()) < covered or int(rows.max()) >= n
            ):
                raise SanitizerError(
                    self._san_label,
                    "sorted-view-rows",
                    f"tail view over positions {positions} maps outside "
                    f"[{covered}, {n})",
                )


# -- sanitized RunStore --------------------------------------------------------


class SanitizedRunStore(RunStore):
    """:class:`RunStore` with sampled runtime invariant checks.

    Seals check the newest run's block structure and the tail/sealed
    dedup; mutations spot-check visibility and tombstone consistency;
    :meth:`verify` decodes every run for the full sweep.
    """

    def __init__(
        self,
        memory_budget_bytes: int | None = None,
        tail_rows: int | None = None,
        *,
        label: str = "RunStore",
        seed: int = 0,
        sample_rate: float | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(memory_budget_bytes, tail_rows, **kwargs)
        self._san_label = label
        self._san_rng = rng_for(seed, "sanitize", label)
        self._san_rate = _DEFAULT_RATE if sample_rate is None else sample_rate

    def _san_hit(self, size: int) -> bool:
        if size <= _SMALL_ROWS or self._san_rate >= 1.0:
            return True
        return bool(self._san_rng.random() < self._san_rate)

    def _seal(self) -> None:
        sealing = len(self._tail) > 0
        super()._seal()
        if sealing and self._runs:
            newest = self._runs[-1]
            if self._san_hit(newest.n_rows):
                self._check_run(newest.canonical, sample_blocks=True)
                self._check_tier_overlap(newest)

    def add_rows(
        self, s: np.ndarray, p: np.ndarray, o: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        added = super().add_rows(s, p, o)
        n_added = len(added[0])
        if n_added and self._san_hit(n_added):
            take = _sample_rows(self._san_rng, n_added, _PROBE_ROWS)
            ts, tp, to = added[0][take], added[1][take], added[2][take]
            present = self.contains_rows(ts, tp, to)
            if not bool(present.all()):
                raise SanitizerError(
                    self._san_label,
                    "insert-visibility",
                    f"{int((~present).sum())} of {len(take)} freshly added "
                    "rows are not visible (a resurrection may have failed "
                    "to consume its tombstone)",
                )
            if len(self._tombs):
                dead = self._tombs.contains_rows(ts, tp, to)
                if bool(dead.any()):
                    raise SanitizerError(
                        self._san_label,
                        "tombstone-resurrection",
                        f"{int(dead.sum())} of {len(take)} re-added rows are "
                        "still tombstoned",
                    )
        return added

    def delete_rows(self, s: np.ndarray, p: np.ndarray, o: np.ndarray) -> int:
        removed = super().delete_rows(s, p, o)
        if removed and len(s) and self._san_hit(len(s)):
            take = _sample_rows(self._san_rng, len(s), _PROBE_ROWS)
            still = self.contains_rows(s[take], p[take], o[take])
            if bool(still.any()):
                raise SanitizerError(
                    self._san_label,
                    "delete-visibility",
                    f"{int(still.sum())} of {len(take)} deleted rows are "
                    "still visible to membership probes",
                )
            self._check_tombstones_sampled()
        return removed

    # -- check bodies --

    def _check_run(self, idx: "_OrderIndex", sample_blocks: bool) -> None:
        _check_sorted(self._san_label, "run-sample-order", idx.samples)
        n_blocks = idx.n_blocks
        if n_blocks == 0:
            return
        if sample_blocks:
            blocks = {0, n_blocks - 1}
            if n_blocks > 2:
                blocks.add(int(self._san_rng.randrange(n_blocks)))
        else:
            blocks = set(range(n_blocks))
        prev_block: int | None = None
        prev_last: np.ndarray | None = None
        for b in sorted(blocks):
            cols = idx.decode_block(b)
            keys = pack_columns(cols)
            if len(keys) != int(idx.row_counts[b]):
                raise SanitizerError(
                    self._san_label,
                    "run-block-rows",
                    f"run {idx.serial} block {b} decoded {len(keys)} rows, "
                    f"metadata says {int(idx.row_counts[b])}",
                )
            if len(keys) == 0:
                continue
            if len(keys) > 1:
                viol = _keys_lt(keys[1:], keys[:-1]) | _keys_eq(
                    keys[1:], keys[:-1]
                )
                if bool(viol.any()):
                    i = int(np.flatnonzero(viol)[0])
                    raise SanitizerError(
                        self._san_label,
                        "run-key-order",
                        f"run {idx.serial} block {b} keys not strictly "
                        f"increasing at index {i} (duplicate or disorder)",
                    )
            if not bool(_keys_eq(keys[:1], idx.samples[b : b + 1])[0]):
                raise SanitizerError(
                    self._san_label,
                    "run-sample-drift",
                    f"run {idx.serial} block {b} first key "
                    f"{_key_str(keys, 0)} != sample key "
                    f"{_key_str(idx.samples, b)}",
                )
            if (
                prev_block == b - 1
                and prev_last is not None
                and not bool(_keys_lt(prev_last, keys[:1])[0])
            ):
                raise SanitizerError(
                    self._san_label,
                    "run-key-order",
                    f"run {idx.serial} block {b} starts at "
                    f"{_key_str(keys, 0)}, not after block {b - 1}'s last "
                    f"key {_key_str(prev_last, 0)}",
                )
            prev_block, prev_last = b, keys[-1:]

    def _check_tier_overlap(self, run: "_Run") -> None:
        """A sealed run's rows must not also live in the mutable tail."""
        idx = run.canonical
        if idx.n_blocks == 0 or len(self._tail) == 0:
            return
        cols = idx.decode_block(int(self._san_rng.randrange(idx.n_blocks)))
        take = _sample_rows(self._san_rng, len(cols[0]), _PROBE_ROWS)
        in_tail = self._tail.contains_rows(
            cols[0][take], cols[1][take], cols[2][take]
        )
        if bool(in_tail.any()):
            raise SanitizerError(
                self._san_label,
                "lsm-tier-dedup",
                f"{int(in_tail.sum())} of {len(take)} sealed rows from run "
                f"{idx.serial} also live in the tail",
            )

    def _check_tombstones_sampled(self) -> None:
        """Tombstones reference sealed rows only — never tail rows."""
        if len(self._tombs) == 0:
            return
        ts, tp, to = self._tombs.columns()
        take = _sample_rows(self._san_rng, len(ts), _PROBE_ROWS)
        in_tail = self._tail.contains_rows(ts[take], tp[take], to[take])
        if bool(in_tail.any()):
            raise SanitizerError(
                self._san_label,
                "tombstone-tail-overlap",
                f"{int(in_tail.sum())} of {len(take)} tombstones shadow "
                "live tail rows (tail deletes must compact physically)",
            )

    def verify(self) -> None:
        """Full (unsampled) sweep: every block of every run decoded."""
        sealed_parts: list[np.ndarray] = []
        for run in self._runs:
            idx = run.canonical
            self._check_run(idx, sample_blocks=False)
            for b in range(idx.n_blocks):
                sealed_parts.append(pack_columns(idx.decode_block(b)))
        if sealed_parts:
            sealed = np.sort(np.concatenate(sealed_parts))
        else:
            sealed = pack_columns(tuple(self._tail.columns())[:3])[:0]
        n_dupes = len(sealed) - len(np.unique(sealed))
        if n_dupes:
            raise SanitizerError(
                self._san_label,
                "lsm-cross-run-dedup",
                f"{n_dupes} duplicate rows across sealed runs",
            )
        tail_keys = np.sort(pack_columns(self._tail.columns()))
        if len(tail_keys) and len(sealed):
            overlap = member_mask(sealed, tail_keys)
            if bool(overlap.any()):
                raise SanitizerError(
                    self._san_label,
                    "lsm-tier-dedup",
                    f"{int(overlap.sum())} rows live in both the tail and "
                    "a sealed run",
                )
        tomb_keys = pack_columns(self._tombs.columns())
        if len(tomb_keys):
            orphans = ~member_mask(sealed, tomb_keys)
            if bool(orphans.any()):
                raise SanitizerError(
                    self._san_label,
                    "tombstone-orphan",
                    f"{int(orphans.sum())} tombstones reference rows absent "
                    "from every sealed run",
                )
            in_tail = member_mask(tail_keys, tomb_keys)
            if bool(in_tail.any()):
                raise SanitizerError(
                    self._san_label,
                    "tombstone-tail-overlap",
                    f"{int(in_tail.sum())} tombstones shadow live tail rows",
                )


# -- protocol-level checks -----------------------------------------------------


def check_stripe_disjointness(
    dictionaries: Sequence["PartitionDictionary"],
) -> None:
    """Minted term ids must be disjoint across workers and epochs.

    Each :class:`PartitionDictionary` mints ``base_size + j*k + node_id``;
    the check replays that formula per dictionary and verifies the mint
    sets never collide, every minted id decodes, and the decode
    round-trips through the encode map.
    """
    seen: dict[int, int] = {}
    for i, d in enumerate(dictionaries):
        if d.node_id < 0 or d.node_id >= d.k:
            raise SanitizerError(
                "PartitionDictionary",
                "stripe-config",
                f"dictionary {i} has node_id {d.node_id} outside "
                f"[0, {d.k}) — its stripe overlaps a sibling's",
            )
        for j in range(d._minted):
            tid = d._base_size + j * d.k + d.node_id
            if tid in seen:
                raise SanitizerError(
                    "PartitionDictionary",
                    "stripe-disjoint",
                    f"id {tid} minted by both dictionary {seen[tid]} and "
                    f"dictionary {i}",
                )
            seen[tid] = i
            term = d._by_id.get(tid)
            if term is None:
                raise SanitizerError(
                    "PartitionDictionary",
                    "stripe-mint",
                    f"minted id {tid} missing from dictionary {i}'s "
                    "decode map",
                )
            if d._to_id.get(term) != tid:
                raise SanitizerError(
                    "PartitionDictionary",
                    "stripe-roundtrip",
                    f"minted id {tid} decodes to {term!r} but that term "
                    f"encodes to {d._to_id.get(term)!r} in dictionary {i}",
                )


def check_minted_ids(outputs: Sequence["OutputMsg"]) -> None:
    """Stripe disjointness as the master sees it at the gather: across
    every node's :class:`~repro.parallel.messages.OutputMsg` delta, one
    non-base id names one term — two stripes that overlapped would hand
    the same id to two different terms."""
    seen: dict[int, tuple[object, int]] = {}
    for out in outputs:
        for tid, term in out.delta:
            first = seen.setdefault(tid, (term, out.node_id))
            if first[0] != term:
                raise SanitizerError(
                    "OutputMsg",
                    "stripe-disjoint",
                    f"id {tid} names {first[0]!r} on node {first[1]} but "
                    f"{term!r} on node {out.node_id}",
                )


def check_ledger(det: "CountingTermination") -> None:
    """Safra ledger conservation at termination: every message the master
    forwarded has been acknowledged as consumed, nothing is outstanding,
    and no worker reports more consumption than was ever sent to it."""
    for node in range(det.k):
        forwarded, consumed = det.counts(node)
        if consumed > forwarded:
            raise SanitizerError(
                "CountingTermination",
                "ledger-negative",
                f"node {node} acknowledged {consumed} messages but only "
                f"{forwarded} were forwarded to it",
            )
    if not det.quiescent():
        raise SanitizerError(
            "CountingTermination",
            "ledger-conservation",
            f"termination declared with {det.in_flight()} messages in "
            f"flight (forwarded={det.forwarded} consumed={det.consumed})",
        )
