"""Inter-partition message types.

One payload kind, on every transport: :class:`EncodedBatch` — triples as
three parallel int64 id columns plus a *delta-dictionary* (the
``(id, term)`` pairs the receiver has not seen yet).  A tuple costs 24
bytes on the wire, and a term's serialization travels at most once per
(sender, receiver) pair.  (:class:`RemovalBatch` is the same layout with
delete semantics.)  The payload size is fixed at construction — cost
models call ``payload_bytes()`` repeatedly.

Plus the typed *control messages* of the round-free runtime's protocol
(:mod:`repro.parallel.coordinator`).  Worker-originated messages carry
the logical node id and an *epoch*: recovery re-runs a lost node as a
fresh incarnation with a bumped epoch, and the master discards anything
stamped with an older one — a message from a dead incarnation can still
be sitting in the outbox when its replacement boots, and must never
corrupt the termination ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro.rdf.terms import Term
from repro.rdf.triple import Triple

if TYPE_CHECKING:
    from repro.datalog.engine import EngineStats
    from repro.parallel.worker import PartitionWorker

#: Wire cost of one id-encoded tuple: three little-endian int64 columns.
ROW_BYTES = 24
#: Per-entry framing overhead of a delta-dictionary record: the 8-byte id
#: plus a length prefix for the term's serialized form.
DELTA_ENTRY_OVERHEAD = 12


class Message(Protocol):
    """What every wire message exposes to transports and cost models."""

    sender: int
    dest: int
    round_no: int

    def __len__(self) -> int: ...

    def payload_bytes(self) -> int: ...


class SupportsDecode(Protocol):
    """What :meth:`EncodedBatch.decode` needs from a dictionary."""

    def apply_delta(self, delta: Sequence[tuple[int, Term]]) -> None: ...

    def decode(self, term_id: int) -> Term: ...

    def decode_many(self, ids: np.ndarray) -> list[Term]: ...


class EncodedBatch:
    """A batch of id-encoded tuples plus the delta-dictionary to read them.

    ``s_ids``/``p_ids``/``o_ids`` are parallel int64 columns; row i is one
    triple.  ``delta`` carries the ``(id, term)`` pairs for ids the
    destination cannot yet decode — newly minted terms ship exactly once
    per peer, enforced by the sender's per-destination bookkeeping
    (:class:`repro.parallel.worker.PartitionWorker`).  Ship-once requires
    FIFO (sender, dest) channels: a later batch may reference an id whose
    delta entry traveled in an earlier one.  Queue and MPI transports
    guarantee this; only cross-channel arrival order is unconstrained.

    The payload size is fixed at construction: 24 bytes per row plus the
    delta entries' serialized terms — by design O(1) to query, since the
    async master asks for it on every relay.
    """

    __slots__ = ("sender", "dest", "round_no", "s_ids", "p_ids", "o_ids",
                 "delta", "_payload_bytes")

    def __init__(
        self,
        sender: int,
        dest: int,
        round_no: int,
        s_ids: np.ndarray,
        p_ids: np.ndarray,
        o_ids: np.ndarray,
        delta: tuple[tuple[int, Term], ...] = (),
    ) -> None:
        if not (len(s_ids) == len(p_ids) == len(o_ids)):
            raise ValueError("id columns must have equal length")
        self.sender = sender
        self.dest = dest
        self.round_no = round_no
        self.s_ids = s_ids
        self.p_ids = p_ids
        self.o_ids = o_ids
        self.delta = tuple(delta)
        self._payload_bytes = ROW_BYTES * len(s_ids) + sum(
            DELTA_ENTRY_OVERHEAD + len(term.n3().encode("utf-8"))
            for _tid, term in self.delta
        )

    @classmethod
    def make(
        cls,
        sender: int,
        dest: int,
        round_no: int,
        rows: Sequence[tuple[int, int, int]],
        delta: Sequence[tuple[int, Term]] = (),
    ) -> "EncodedBatch":
        """Build from ``(s_id, p_id, o_id)`` rows."""
        if rows:
            arr = np.asarray(rows, dtype=np.int64)
            s_ids, p_ids, o_ids = arr[:, 0], arr[:, 1], arr[:, 2]
        else:
            s_ids = p_ids = o_ids = np.empty(0, dtype=np.int64)
        return cls(sender, dest, round_no, s_ids, p_ids, o_ids, tuple(delta))

    def __len__(self) -> int:
        return len(self.s_ids)

    def payload_bytes(self) -> int:
        return self._payload_bytes

    def rows(self) -> list[tuple[int, int, int]]:
        """The id rows as Python int tuples (dedup/test helper)."""
        return list(
            zip(
                (int(i) for i in self.s_ids),
                (int(i) for i in self.p_ids),
                (int(i) for i in self.o_ids),
            )
        )

    def decode(self, dictionary: "SupportsDecode") -> list[Triple]:
        """Materialize term-level triples.  Registers this batch's delta
        into ``dictionary`` (a :class:`~repro.rdf.dictionary.PartitionDictionary`
        or anything with ``apply_delta``/``decode``) first, so rows are
        always decodable."""
        if self.delta:
            dictionary.apply_delta(self.delta)
        subjects = dictionary.decode_many(self.s_ids)
        predicates = dictionary.decode_many(self.p_ids)
        objects = dictionary.decode_many(self.o_ids)
        return [Triple(s, p, o) for s, p, o in zip(subjects, predicates, objects)]

    def __repr__(self) -> str:
        return (
            f"<EncodedBatch {self.sender}->{self.dest} round={self.round_no} "
            f"rows={len(self)} delta={len(self.delta)}>"
        )


class RemovalBatch(EncodedBatch):
    """An id-encoded batch of rows to *delete* — the wire payload of
    distributed DRed's overdeletion phase.

    Same columns/delta layout and payload accounting as its parent (the
    delta-dictionary matters here too: a removal may reference a term
    the receiver has never decoded, e.g. when removals are broadcast to
    nodes that never held the row).  Removals are a *data* payload, not
    a control message: they travel inside :class:`Deliver`.  Receivers
    must dispatch on it *before* :class:`EncodedBatch` — ``isinstance``
    matches the parent too.

    ``retract_base`` distinguishes a user retraction (the initial
    master broadcast: receivers also drop matching rows from their
    asserted base) from a propagated overdeletion cascade (receivers
    treat the rows as derived-only; the asserted base is untouched).
    """

    __slots__ = ("retract_base",)

    def __init__(
        self,
        sender: int,
        dest: int,
        round_no: int,
        s_ids: np.ndarray,
        p_ids: np.ndarray,
        o_ids: np.ndarray,
        delta: tuple[tuple[int, Term], ...] = (),
        retract_base: bool = False,
    ) -> None:
        super().__init__(sender, dest, round_no, s_ids, p_ids, o_ids, delta)
        self.retract_base = retract_base

    @classmethod
    def from_columns(
        cls,
        sender: int,
        dest: int,
        round_no: int,
        columns: tuple[np.ndarray, np.ndarray, np.ndarray],
        delta: Sequence[tuple[int, Term]] = (),
        retract_base: bool = False,
    ) -> "RemovalBatch":
        return cls(sender, dest, round_no, columns[0], columns[1],
                   columns[2], tuple(delta), retract_base)

    def __repr__(self) -> str:
        return (
            f"<RemovalBatch {self.sender}->{self.dest} "
            f"round={self.round_no} rows={len(self)} "
            f"retract_base={self.retract_base}>"
        )


# -- control messages (the coordinator <-> worker-host protocol) --------------


@dataclass(frozen=True)
class Heartbeat:
    """Worker -> master liveness ping, sent whenever an idle inbox poll
    times out.  Carries the cumulative consumed count so a heartbeat also
    refreshes the supervisor's view of the node's progress."""

    node_id: int
    epoch: int
    consumed: int


@dataclass(frozen=True)
class Produced:
    """Worker -> master: one processed inbox message's productions plus
    the acknowledgement (cumulative consumed count) the counting
    termination relies on.  Ack and productions travel together — the
    master can never observe the ack without the productions in hand."""

    node_id: int
    epoch: int
    batches: tuple
    consumed: int


@dataclass(frozen=True, eq=False)
class OutputMsg:
    """Worker -> master: one logical node's final KB as rows — its store's
    id columns plus the ``(id, term)`` pairs of every non-base id in them
    (ids this node minted or learned from a peer; base ids every process
    already decodes) — and its cumulative engine counters.  What
    :func:`repro.parallel.aggregate.gather_rows` unions."""

    node_id: int
    epoch: int
    s: np.ndarray
    p: np.ndarray
    o: np.ndarray
    delta: tuple[tuple[int, Term], ...]
    engine_stats: EngineStats

    @classmethod
    def of(cls, worker: PartitionWorker) -> OutputMsg:
        """A resident worker's final KB as this message."""
        s, p, o = worker.output_rows()
        d = worker.dictionary
        base_size = d.base_size
        minted = np.unique(np.concatenate(
            [s[s >= base_size], p[p >= base_size], o[o >= base_size]]))
        delta = tuple(zip(minted.tolist(), d.decode_many(minted)))
        return cls(worker.node_id, worker.epoch, s, p, o, delta,
                   worker.engine_stats)


@dataclass(frozen=True)
class Deliver:
    """Master -> worker: one relayed batch (dispatched inside the process
    by ``batch.dest``, since a process may host adopted nodes)."""

    batch: Message


@dataclass(frozen=True)
class Adopt:
    """Master -> worker: host a lost node.  Every process holds the whole
    :class:`~repro.parallel.cluster.ClusterSpec`, so the node id and the
    new epoch are all it needs; the master follows with the node's full
    relay log as ordinary :class:`Deliver` messages."""

    node_id: int
    epoch: int


@dataclass(frozen=True)
class Finish:
    """Master -> worker: report every hosted node's output (the worker
    keeps running — recovery may still need it)."""


@dataclass(frozen=True)
class Stop:
    """Master -> worker: outputs are safely gathered; exit now."""
