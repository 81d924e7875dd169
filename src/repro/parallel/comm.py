"""Communication backends.

Both backends implement the same minimal point-to-point interface —
``send`` a batch, ``recv_all`` pending batches for a node — the shape of
the mpi4py ``send``/``recv`` object API, so a real MPI backend would drop
in without touching the driver.

* :class:`InMemoryComm` — per-node mailboxes (deques).  Used by the
  in-process driver and the simulated cluster; accounts *would-be* payload
  bytes per (sender, dest) pair for the cost models.
* :class:`FileComm` — the paper's actual mechanism ("the inter-partition
  communication is through the use of a shared file system"): each batch is
  one pickled file in a spool directory, named so receivers can discover
  their pending messages; files are deleted on receipt.

:class:`ChannelPool` is the in-process async executor's wire: batches in
send order, delivered oldest first among those whose host and channel
may deliver — the hook the fault-injection harness uses to model dead,
frozen, and delayed receivers without breaking the FIFO-per-channel
invariant the delta-dictionary protocol requires.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Protocol

from repro.parallel.messages import Message


@dataclass
class CommStats:
    """Traffic accounting, aggregated per node pair and per node.

    Works for any :class:`~repro.parallel.messages.Message`;
    ``payload_bytes`` is the batch's own wire-size accounting (24 B per
    id row plus its delta-dictionary entries).
    """

    messages: int = 0
    tuples: int = 0
    payload_bytes: int = 0
    #: bytes sent, per sender node id
    sent_bytes: dict[int, int] = field(default_factory=dict)
    #: bytes received, per destination node id
    received_bytes: dict[int, int] = field(default_factory=dict)

    def record(self, batch: Message) -> None:
        size = batch.payload_bytes()
        self.messages += 1
        self.tuples += len(batch)
        self.payload_bytes += size
        self.sent_bytes[batch.sender] = self.sent_bytes.get(batch.sender, 0) + size
        self.received_bytes[batch.dest] = self.received_bytes.get(batch.dest, 0) + size


class CommBackend(Protocol):
    """Point-to-point tuple-batch transport."""

    stats: CommStats

    def send(self, batch: Message) -> None: ...

    def recv_all(self, node_id: int) -> list[Message]: ...

    def pending(self) -> int:
        """Number of batches in transit (for termination detection)."""
        ...


class InMemoryComm:
    """Mailbox transport for in-process runs.

    >>> from repro.parallel.messages import EncodedBatch
    >>> comm = InMemoryComm(k=2)
    >>> comm.send(EncodedBatch.make(0, 1, 0, []))
    >>> len(comm.recv_all(1))
    1
    >>> comm.pending()
    0
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._mailboxes: list[deque[Message]] = [deque() for _ in range(k)]
        self.stats = CommStats()

    def send(self, batch: Message) -> None:
        if not 0 <= batch.dest < self.k:
            raise ValueError(f"destination {batch.dest} outside [0, {self.k})")
        self.stats.record(batch)
        self._mailboxes[batch.dest].append(batch)

    def recv_all(self, node_id: int) -> list[Message]:
        box = self._mailboxes[node_id]
        out = list(box)
        box.clear()
        return out

    def pending(self) -> int:
        return sum(len(box) for box in self._mailboxes)


class ChannelPool:
    """Batches in transit to resident hosts, delivered oldest first.

    Each entry is a Deliver command — ``(host, batch)`` — in send order.
    ``pop_next(eligible)`` takes the oldest entry whose host and (sender,
    dest) channel pass the predicate: the in-process executor marks hosts
    dead or frozen and channels held or blocked, and those entries simply
    wait.  Eligibility is decided per channel, so order within a channel
    is always preserved (the wire protocol's FIFO-channel assumption: a
    delta-dictionary entry must not arrive after a row that needs it).

    >>> from repro.parallel.messages import EncodedBatch
    >>> pool = ChannelPool()
    >>> pool.emit(1, EncodedBatch.make(0, 1, 0, []))
    >>> pool.pop_next(lambda host, key: True)[0]
    1
    >>> pool.pop_next(lambda host, key: True) is None
    True
    """

    def __init__(self) -> None:
        self._pending: list[tuple[int, Message]] = []

    def emit(self, host: int, batch: Message) -> None:
        self._pending.append((host, batch))

    def push_front(self, host: int, batch: Message) -> None:
        """Put a batch back at the head of its channel (a retransmission
        of a batch its channel has been blocked behind)."""
        self._pending.insert(0, (host, batch))

    def pop_next(
        self, eligible: Callable[[int, tuple[int, int]], bool],
    ) -> tuple[int, Message] | None:
        """The oldest deliverable entry, or ``None`` when nothing is
        deliverable (entries may remain pending)."""
        for i, (host, batch) in enumerate(self._pending):
            if eligible(host, (batch.sender, batch.dest)):
                return self._pending.pop(i)
        return None

    def discard_hosts(self, hosts: Collection[int]) -> None:
        """Drop every entry addressed to ``hosts`` (lost with them;
        recovery replays their nodes' batches)."""
        self._pending = [e for e in self._pending if e[0] not in hosts]


class FileComm:
    """Shared-filesystem transport (the paper's mechanism).

    Spool layout: ``<root>/r<round>_s<sender>_d<dest>_<seq>.pkl``, one
    pickled :class:`~repro.parallel.messages.Message` per file (so the
    delta-dictionary of an id-encoded batch travels with its rows).  A
    batch is visible once fully written (written to a ``.tmp`` name and
    renamed, the usual atomic-publish idiom).  ``recv_all`` claims and
    deletes a node's files in name order, so repeated delivery is
    impossible even with concurrent receivers on a POSIX filesystem.  The
    spool holds only what this program wrote — point ``root`` at a
    directory nobody else can write to, since reading unpickles.
    """

    def __init__(self, k: int, root: str | os.PathLike) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CommStats()
        self._seq = 0

    def send(self, batch: Message) -> None:
        if not 0 <= batch.dest < self.k:
            raise ValueError(f"destination {batch.dest} outside [0, {self.k})")
        self.stats.record(batch)
        self._seq += 1
        name = f"r{batch.round_no:06d}_s{batch.sender:04d}_d{batch.dest:04d}_{self._seq:08d}.pkl"
        tmp = self.root / (name + ".tmp")
        tmp.write_bytes(pickle.dumps(batch))
        tmp.rename(self.root / name)

    def recv_all(self, node_id: int) -> list[Message]:
        marker = f"_d{node_id:04d}_"
        batches: list[Message] = []
        for path in sorted(self.root.glob("*.pkl")):
            if marker not in path.name:
                continue
            try:
                batches.append(pickle.loads(path.read_bytes()))
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError) as exc:
                raise ValueError(f"corrupt spool file {path}") from exc
            path.unlink()
        return batches

    def pending(self) -> int:
        return sum(1 for _ in self.root.glob("*.pkl"))
