"""Worker supervision: liveness, hang detection, recovery policy, teardown.

The async runtime's counting termination (:mod:`repro.parallel.termination`)
is exact *if every worker lives forever*: a crashed or wedged worker leaves
``forwarded[i] > consumed[i]`` permanently, and the master blocks on its
outbox with no diagnosis of which node failed or why.  This module turns
those silent stalls into typed :class:`WorkerFailure` events and gives the
backends one shared vocabulary for reacting to them:

* :class:`SupervisionPolicy` — the knobs: ``degrade`` ("abort" raises the
  typed failure, "recover" re-runs the lost partition on a survivor),
  ``max_retries``/``retry_backoff``, heartbeat cadence, hang/idle
  deadlines, and teardown grace periods.
* :func:`start_workers` — one process per node, each with its own inbox
  queue and its own worker -> master pipe.
* :class:`ProcessSupervisor` — folds process ``is_alive``/``exitcode``
  polling into every blocking outbox wait (:meth:`ProcessSupervisor.get`),
  absorbs :class:`~repro.parallel.messages.Heartbeat` messages into
  per-node last-seen timestamps, and escalates teardown
  (:meth:`ProcessSupervisor.shutdown`: bounded join → ``terminate`` →
  ``kill``) so no code path can wedge on a zombie child.
* :class:`WorkerFailure` — the typed error: failed node ids, reason
  (``"exit" | "hang" | "idle" | "killed" | "frozen"``), process exit
  status, and the termination ledger's last sent/acknowledged counts for
  the failed nodes.
* :class:`FailureRecord` — the serializable form of one failure, stored in
  :class:`~repro.parallel.stats.AsyncRunStats` and exported by
  :mod:`repro.parallel.trace`.

Why single-node recovery is *sound* here: under data partitioning every
tuple is replicated to the owner of its subject and of its object, and the
master's counting ledger records, in order, every batch it ever relayed to
each node.  A lost node is therefore reconstructible from (a) its input
partition, which the master still holds, and (b) the replay of its relay
log — the node loop is deterministic given that sequence, and receivers
de-duplicate, so re-derived tuples are harmless.  See DESIGN.md §8.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.parallel.messages import Heartbeat

#: Exit code used by the deterministic fault-injection point
#: (:func:`repro.parallel.faults.maybe_crash`) so tests can tell an
#: injected crash from an organic one.
INJECTED_EXIT_CODE = 86


class WorkerFailure(RuntimeError):
    """A worker process died, wedged, or went silent mid-run.

    Raised by :meth:`ProcessSupervisor.get` (and re-raised by the backends
    when ``degrade="abort"`` or retries are exhausted).  Carries everything
    needed to diagnose — or recover — the failure.
    """

    def __init__(
        self,
        node_ids: Sequence[int],
        reason: str,
        *,
        process_index: int | None = None,
        exitcode: int | None = None,
        forwarded: Sequence[int] = (),
        consumed: Sequence[int] = (),
        epoch: int = 0,
    ) -> None:
        self.node_ids = tuple(node_ids)
        self.reason = reason
        self.process_index = process_index
        self.exitcode = exitcode
        #: Ledger snapshot for the failed nodes, aligned with node_ids.
        self.forwarded = tuple(forwarded)
        self.consumed = tuple(consumed)
        self.epoch = epoch
        nodes = ", ".join(str(n) for n in self.node_ids)
        ledger = "; ".join(
            f"node {n}: forwarded={f} acked={c}"
            for n, f, c in zip(self.node_ids, self.forwarded, self.consumed)
        )
        detail = f" (exitcode={exitcode})" if exitcode is not None else ""
        super().__init__(
            f"worker failure [{reason}] on node(s) {nodes}{detail}"
            + (f" — ledger: {ledger}" if ledger else "")
        )

    def record(self) -> "FailureRecord":
        return FailureRecord(
            node_ids=self.node_ids,
            reason=self.reason,
            exitcode=self.exitcode,
            epoch=self.epoch,
            forwarded=self.forwarded,
            consumed=self.consumed,
        )


@dataclass(frozen=True)
class FailureRecord:
    """One failure event, in the shape stats/trace export.

    >>> r = FailureRecord((1,), "exit", 86, 0, (3,), (1,))
    >>> FailureRecord.from_dict(r.to_dict()) == r
    True
    """

    node_ids: tuple[int, ...]
    reason: str
    exitcode: int | None
    epoch: int
    forwarded: tuple[int, ...]
    consumed: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "node_ids": list(self.node_ids),
            "reason": self.reason,
            "exitcode": self.exitcode,
            "epoch": self.epoch,
            "forwarded": list(self.forwarded),
            "consumed": list(self.consumed),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FailureRecord":
        return cls(
            node_ids=tuple(payload["node_ids"]),
            reason=str(payload["reason"]),
            exitcode=payload.get("exitcode"),
            epoch=int(payload.get("epoch", 0)),
            forwarded=tuple(payload.get("forwarded", ())),
            consumed=tuple(payload.get("consumed", ())),
        )


@dataclass
class SupervisionPolicy:
    """Failure-handling configuration shared by both process backends.

    ``degrade`` picks the reaction to a :class:`WorkerFailure`:
    ``"abort"`` raises it; ``"recover"`` re-runs the lost node's partition
    on a surviving worker (up to ``max_retries`` recoveries per run,
    sleeping ``retry_backoff * attempt`` seconds before each).

    ``hang_timeout=None`` (default) disables freeze detection — a live
    process that is merely slow is indistinguishable from a wedged one,
    so only opt in where heartbeat silence is meaningful.  Process *death*
    is always detected, within ``poll_interval`` of any blocking wait.
    """

    degrade: str = "abort"
    max_retries: int = 2
    retry_backoff: float = 0.0
    heartbeat_interval: float = 0.5
    hang_timeout: float | None = None
    idle_timeout: float = 120.0
    poll_interval: float = 0.05
    #: Bounded post-run join; survivors are terminated, then killed.
    shutdown_grace: float = 5.0

    def __post_init__(self) -> None:
        if self.degrade not in ("abort", "recover"):
            raise ValueError(
                f'degrade must be "abort" or "recover", got {self.degrade!r}'
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


def parent_alive(expected_ppid: int) -> bool:
    """Worker-side liveness probe: has our parent (the master) died?

    When the parent exits, the child is re-parented (to init or a
    subreaper), so a changed ppid means the master is gone and the worker
    should exit instead of blocking on its inbox forever.
    """
    return os.getppid() == expected_ppid


def shutdown_processes(
    processes: Sequence, grace: float = 5.0
) -> None:
    """Teardown that can never wedge: bounded join, then ``terminate``,
    then ``kill``, each escalation sharing one ``grace`` deadline."""
    deadline = time.monotonic() + grace
    for proc in processes:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    stubborn = [p for p in processes if p.is_alive()]
    if not stubborn:
        return
    for proc in stubborn:
        proc.terminate()
    deadline = time.monotonic() + grace
    for proc in stubborn:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for proc in stubborn:
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=grace)


def start_workers(
    ctx: Any, target: Callable, spec: Any
) -> tuple[list, list, list]:
    """Start ``target(spec, i, inbox, outbox)`` in one process per node
    of ``spec``; returns ``(processes, inboxes, outboxes)``.

    Every process sends to the master on a pipe of its own, and holds its
    only write end.  A process that dies mid-message therefore leaves an
    end-of-file on its own pipe — where a queue shared by all workers
    would keep its write lock held by the dead process, and every
    survivor's next send would block behind it forever.
    """
    processes, inboxes, outboxes = [], [], []
    for i in range(spec.k):
        inbox = ctx.Queue()
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=target, args=(spec, i, inbox, writer))
        proc.start()
        writer.close()
        processes.append(proc)
        inboxes.append(inbox)
        outboxes.append(reader)
    return processes, inboxes, outboxes


class ProcessSupervisor:
    """Master-side watchdog over the worker processes.

    Wraps every blocking outbox wait: :meth:`get` polls the queue with a
    short timeout and, on each empty poll, checks process liveness, node
    heartbeat staleness, and the overall idle deadline — converting each
    stall into a :class:`WorkerFailure` naming the node(s) instead of
    blocking forever.  Heartbeat messages are absorbed here (they refresh
    per-node last-seen times and are never returned to the caller).

    ``hosted[p]`` is the set of logical node ids currently running inside
    process ``p`` — initially ``{p}``, updated via :meth:`reassign` when a
    recovery adopts a lost node onto a survivor.  ``outstanding(node)``
    reports the termination ledger's unacknowledged count for a node, so
    death of a fully-drained worker after quiescence is not misreported.
    """

    def __init__(
        self,
        processes: Sequence,
        policy: SupervisionPolicy,
        outstanding: Callable[[int], int] | None = None,
        ledger: Callable[[int], tuple[int, int]] | None = None,
    ) -> None:
        self.processes = list(processes)
        self.policy = policy
        self.hosted: list[set[int]] = [{i} for i in range(len(self.processes))]
        self.outstanding = outstanding or (lambda node: 0)
        self.ledger = ledger or (lambda node: (0, 0))
        self._failed: set[int] = set()
        now = time.monotonic()
        self._last_seen: dict[int, float] = {
            i: now for i in range(len(self.processes))
        }

    # -- bookkeeping ---------------------------------------------------------

    def note(self, node_id: int) -> None:
        """A message (ack, production, heartbeat) arrived from ``node_id``."""
        self._last_seen[node_id] = time.monotonic()

    def reassign(self, node_id: int, process_index: int) -> None:
        """Logical node moved (recovery adoption): update the host map."""
        for nodes in self.hosted:
            nodes.discard(node_id)
        self.hosted[process_index].add(node_id)
        self.note(node_id)

    def mark_failed(self, process_index: int) -> None:
        """Stop supervising a process we have already recovered from.
        A still-running (wedged) process is terminated on the spot."""
        self._failed.add(process_index)
        proc = self.processes[process_index]
        if proc.is_alive():
            proc.terminate()
        self.hosted[process_index] = set()

    def live_process_indexes(self) -> list[int]:
        return [
            i
            for i, p in enumerate(self.processes)
            if i not in self._failed and p.is_alive()
        ]

    def _failure(self, process_index: int, reason: str,
                 exitcode: int | None) -> WorkerFailure:
        nodes = sorted(self.hosted[process_index]) or [process_index]
        counts = [self.ledger(n) for n in nodes]
        return WorkerFailure(
            nodes,
            reason,
            process_index=process_index,
            exitcode=exitcode,
            forwarded=[f for f, _ in counts],
            consumed=[c for _, c in counts],
        )

    # -- the supervised wait -------------------------------------------------

    def check(self) -> None:
        """Raise :class:`WorkerFailure` if any supervised process died or
        (with ``hang_timeout`` set) any hosted node with unacknowledged
        messages has gone silent past the deadline."""
        for i, proc in enumerate(self.processes):
            if i in self._failed:
                continue
            if not proc.is_alive():
                if proc.exitcode == 0 and all(
                    self.outstanding(n) == 0 for n in self.hosted[i]
                ):
                    # Clean exit with a drained ledger (e.g. a lock-step
                    # worker done with its "finish" reply, racing the
                    # master's gather of the others): stop supervising.
                    self._failed.add(i)
                    continue
                raise self._failure(i, "exit", proc.exitcode)
        hang = self.policy.hang_timeout
        if hang is None:
            return
        now = time.monotonic()
        for i in range(len(self.processes)):
            if i in self._failed:
                continue
            for node in sorted(self.hosted[i]):
                if (
                    self.outstanding(node) > 0
                    and now - self._last_seen.get(node, now) > hang
                ):
                    raise self._failure(i, "hang", None)

    def get(self, outboxes: list):
        """The next message from any of the workers' pipes
        (:func:`start_workers`), with liveness folded into the wait.

        Returns the next non-heartbeat message; raises
        :class:`WorkerFailure` on process death, heartbeat-silence beyond
        ``hang_timeout``, or ``idle_timeout`` without any message.  A pipe
        at end-of-file — its process is gone — is dropped from
        ``outboxes``; the next liveness check names the process."""
        from multiprocessing.connection import wait

        deadline = time.monotonic() + self.policy.idle_timeout
        while True:
            self.check()
            ready = wait(outboxes, timeout=self.policy.poll_interval)
            if not ready:
                if time.monotonic() > deadline:
                    silent = [
                        n
                        for i in range(len(self.processes))
                        if i not in self._failed
                        for n in sorted(self.hosted[i])
                        if self.outstanding(n) > 0
                    ]
                    counts = [self.ledger(n) for n in silent]
                    raise WorkerFailure(
                        silent or sorted(
                            n for h in self.hosted for n in h
                        ),
                        "idle",
                        forwarded=[f for f, _ in counts],
                        consumed=[c for _, c in counts],
                    ) from None
                continue
            try:
                msg = ready[0].recv()
            except EOFError:
                outboxes.remove(ready[0])
                continue
            if isinstance(msg, Heartbeat):
                self.note(msg.node_id)
                continue
            node_id = getattr(msg, "node_id", None)
            if node_id is None and isinstance(msg, tuple) and len(msg) > 1:
                # Legacy lock-step tuples: ("produced"|"output", node_id, ...)
                node_id = msg[1] if isinstance(msg[1], int) else None
            if node_id is not None:
                self.note(node_id)
            return msg

    def shutdown(self) -> None:
        """Escalating teardown of every supervised process."""
        shutdown_processes(self.processes, grace=self.policy.shutdown_grace)
