"""Worker supervision: liveness, hang detection, recovery policy, teardown.

The round-free runtime's counting termination
(:mod:`repro.parallel.termination`) is exact *if every worker lives
forever*: a crashed or wedged worker leaves ``forwarded[i] > consumed[i]``
permanently.  This module turns those silent stalls into typed
:class:`WorkerFailure` events (reason ``"exit" | "hang" | "idle" |
"killed" | "frozen"``, with the ledger's counts for the failed nodes;
:class:`FailureRecord` is the form stats and traces keep), for the
coordinator (:mod:`repro.parallel.coordinator`) to recover or raise:

* :class:`SupervisionPolicy` — ``degrade`` ("abort" raises the typed
  failure, "recover" re-runs the lost partition on a survivor),
  ``max_retries``, and the hang/idle deadlines.  The heartbeat cadence,
  the poll interval and the teardown grace are module constants.
* :func:`start_workers` — one process per node, each with its own inbox
  queue and its own worker -> master pipe.
* :class:`ProcessSupervisor` — folds process liveness into every
  blocking outbox wait, absorbs heartbeats into per-node last-seen times,
  and escalates teardown (bounded join → ``terminate`` → ``kill``) so no
  code path can wedge on a zombie child.

Why single-node recovery is *sound* here: under data partitioning every
tuple is replicated to the owner of its subject and of its object, and the
master's counting ledger records, in order, every batch it ever relayed to
each node.  A lost node is therefore reconstructible from (a) its input
partition, which every host holds in the spec, and (b) the replay of its
relay log — the node loop is deterministic given that sequence, and
receivers de-duplicate, so re-derived tuples are harmless.  See DESIGN.md
§8.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.parallel.messages import Heartbeat

#: Idle worker -> master heartbeat cadence, in seconds.
HEARTBEAT_INTERVAL = 0.5
#: How often a blocking outbox wait re-checks process liveness.
POLL_INTERVAL = 0.05
#: Bounded post-run join; survivors are terminated, then killed.
SHUTDOWN_GRACE = 5.0

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
    """Failure-handling configuration of the round-free executors.

    ``degrade`` picks the reaction to a :class:`WorkerFailure`:
    ``"abort"`` raises it; ``"recover"`` re-runs the lost node's partition
    on a surviving worker (up to ``max_retries`` recoveries per run).  An
    ``"idle"`` failure — ``idle_timeout`` seconds without a message from
    anyone — names no culprit and is always raised.

    ``hang_timeout=None`` (default) disables freeze detection — a live
    process that is merely slow is indistinguishable from a wedged one,
    so only opt in where heartbeat silence is meaningful.  Process *death*
    is always detected, within :data:`POLL_INTERVAL` of any blocking wait.
    """

    degrade: str = "abort"
    max_retries: int = 2
    hang_timeout: float | None = None
    idle_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.degrade not in ("abort", "recover"):
            raise ValueError(
                f'degrade must be "abort" or "recover", got {self.degrade!r}'
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


def parent_alive(expected_ppid: int) -> bool:
    """Worker-side liveness probe: has our parent (the master) died?

    When the parent exits, the child is re-parented (to init or a
    subreaper), so a changed ppid means the master is gone and the worker
    should exit instead of blocking on its inbox forever.
    """
    return os.getppid() == expected_ppid


def shutdown_processes(
    processes: Sequence, grace: float = SHUTDOWN_GRACE
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
    """Start ``target(spec, inbox, outbox)`` in one process per node of
    ``spec``; returns ``(processes, inboxes, outboxes)``.

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
        proc = ctx.Process(target=target, args=(spec, inbox, writer))
        proc.start()
        writer.close()
        processes.append(proc)
        inboxes.append(inbox)
        outboxes.append(reader)
    return processes, inboxes, outboxes


class ProcessSupervisor:
    """Master-side watchdog over the worker processes: :meth:`get` turns
    each stall — a dead process, heartbeat silence, the idle deadline —
    into a :class:`WorkerFailure` naming the node(s), and absorbs
    heartbeats (they refresh per-node last-seen times).

    ``hosted[p]`` is the set of logical node ids currently running inside
    process ``p`` — initially ``{p}``, updated via :meth:`reassign` when a
    recovery adopts a lost node onto a survivor.  ``outstanding(node)``
    reports the termination ledger's unacknowledged count for a node (a
    node with nothing outstanding is never reported as hung), and
    ``ledger(node)`` its ``(forwarded, consumed)`` pair for the failure's
    diagnosis.
    """

    def __init__(
        self,
        processes: Sequence,
        policy: SupervisionPolicy,
        outstanding: Callable[[int], int],
        ledger: Callable[[int], tuple[int, int]],
    ) -> None:
        self.processes = list(processes)
        self.policy = policy
        self.hosted: list[set[int]] = [{i} for i in range(len(self.processes))]
        self.outstanding = outstanding
        self.ledger = ledger
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
                # A worker exits only on Stop, which comes after the last
                # wait: any death seen here is a failure.
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
            ready = wait(outboxes, timeout=POLL_INTERVAL)
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
            self.note(msg.node_id)
            if not isinstance(msg, Heartbeat):
                return msg

    def shutdown(self) -> None:
        """Escalating teardown of every supervised process."""
        shutdown_processes(self.processes)
