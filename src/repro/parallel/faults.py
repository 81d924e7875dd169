"""Deterministic fault injection for the parallel runtime.

Two injection surfaces, matching the two transports of the round-free
runtime (:mod:`repro.parallel.async_backend`):

* **In-process** (:func:`repro.parallel.async_backend.run_async_inprocess`)
  — a :class:`FaultPlan` drives per-channel and per-node faults with full
  determinism: kill or freeze a worker after it has consumed N messages,
  and drop, duplicate, or delay the N-th batch of a (sender, dest)
  channel.  Because the executor owns delivery, every schedule is exactly
  reproducible, which makes the recovery path unit-testable.  (The
  schedule explorer of the test suite goes further: it drives the
  coordinator and the worker hosts itself and puts a fault at every
  delivery index.)
* **Multiprocess** — an environment-triggered ``os._exit`` point
  (:func:`maybe_crash`) inside :meth:`PartitionWorker.step
  <repro.parallel.worker.PartitionWorker.step>`.  Setting
  ``REPRO_FAULT_KILL="<node_id>:<nth_step>"`` in the master's environment
  makes that node's process hard-exit on its n-th step call (1-based),
  under both ``fork`` and ``spawn`` (children inherit the environment
  either way).  Replacement workers run at ``epoch >= 1`` and are immune,
  so an injected crash fires exactly once per run.

Fault semantics and why recovery masks them (DESIGN.md §8):

* ``kill`` / ``freeze`` — the node's unacknowledged messages never drain;
  the transport converts the stall into a
  :class:`~repro.parallel.supervisor.WorkerFailure` and, under
  ``degrade="recover"``, the coordinator adopts the node onto a surviving
  host and replays its relay log into the fresh incarnation.
* ``drop`` — the batch is counted as forwarded but never delivered, and
  its channel waits behind it; the counting ledger's imbalance is
  detected when nothing else is deliverable and the batch is
  retransmitted at the head of its channel.
* ``duplicate`` — two wire copies, both relayed and both consumed;
  receiver-side graph dedup makes the second a no-op.
* ``delay`` — the channel is held for N delivery steps.  Order *within*
  the channel is preserved (the wire protocol's FIFO-per-channel
  assumption, which delta dictionaries rely on); only cross-channel
  arrival order shifts, which the fixpoint must tolerate anyway.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

#: ``"<node_id>:<nth_step>"`` — hard-exit that node on its n-th step call.
KILL_ENV = "REPRO_FAULT_KILL"

_ACTIONS = ("drop", "duplicate", "delay")


@dataclass(frozen=True)
class ChannelFault:
    """One fault on one channel: act on the ``index``-th batch (0-based)
    emitted on the (sender, dest) channel."""

    sender: int
    dest: int
    index: int
    action: str
    #: For ``action="delay"``: hold the channel this many delivery steps.
    delay: int = 5

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown channel fault action {self.action!r}; "
                f"expected one of {_ACTIONS}"
            )


@dataclass
class FaultPlan:
    """A deterministic schedule of faults for one in-process run.

    >>> plan = FaultPlan(kill_after={1: 2})
    >>> plan.kill_after[1]
    2
    >>> FaultPlan(channel=[ChannelFault(0, 1, 0, "drop")]).channel_fault((0, 1), 0).action
    'drop'
    """

    #: node -> crash while consuming its (N+1)-th delivered message
    #: (0-based count == N at delivery time).
    kill_after: Mapping[int, int] = field(default_factory=dict)
    #: node -> stop consuming at the same trigger point (process lives on).
    freeze_after: Mapping[int, int] = field(default_factory=dict)
    channel: Sequence[ChannelFault] = ()

    def __post_init__(self) -> None:
        self._by_key = {
            (f.sender, f.dest, f.index): f for f in self.channel
        }

    def channel_fault(self, key: tuple[int, int], index: int) -> ChannelFault | None:
        """The fault scheduled for the ``index``-th batch on channel
        ``key``, if any."""
        return self._by_key.get((key[0], key[1], index))


def env_kill_plan() -> tuple[int, int] | None:
    """Parse :data:`KILL_ENV` into ``(node_id, nth_step)``, or ``None``."""
    raw = os.environ.get(KILL_ENV)
    if not raw:
        return None
    try:
        node_text, step_text = raw.split(":", 1)
        return int(node_text), int(step_text)
    except ValueError as exc:
        raise ValueError(
            f"{KILL_ENV} must be '<node_id>:<nth_step>', got {raw!r}"
        ) from exc


def maybe_crash(node_id: int, epoch: int, steps: int) -> None:
    """The multiprocess injection point (called from the worker's step
    path).  Hard-exits — no cleanup, no queue flush, exactly like a real
    crash — when the env-configured node reaches its n-th step at epoch 0.
    """
    if epoch != 0:
        return  # replacements are immune: a crash injects once per run
    plan = env_kill_plan()
    if plan is not None and plan[0] == node_id and steps >= plan[1]:
        from repro.parallel.supervisor import INJECTED_EXIT_CODE

        os._exit(INJECTED_EXIT_CODE)
