"""The round-free runtime's protocol as two state machines with no I/O.

The master "has no role to play once the initial partition is done"
(Section IV) — here it keeps one: it relays every batch (the paper's
shared filesystem), so it holds the counting ledger that detects
quiescence and the relay log that recovery replays.  Neither it nor the
worker side owns a queue, a process or a clock ("sans-IO"):

* :class:`Coordinator` (the master) takes the worker messages —
  ``Produced(node, epoch, batches, consumed)``, one per Adopt and per
  Deliver, whose cumulative ``consumed`` is the acknowledgement, and
  ``OutputMsg`` — and failures, and returns :data:`Command` lists:
  ``Adopt(node, epoch)`` (build and bootstrap a node; how every node
  starts, at epoch 0), ``Deliver(batch)``, ``Finish()`` (report rows;
  the host keeps running) or ``Stop()``, each addressed to a host.
* :class:`WorkerHost` (one worker process) runs the logical nodes it
  hosts — its own, plus any it adopted — and maps each message to its
  replies.

The executors of :mod:`repro.parallel.async_backend` are two transports
over these classes (resident objects, real processes); the test suite's
schedule explorer is a third, so the code the processes run is checked
by running it.  Recovery is adopt-and-replay: a failed host's nodes move
onto survivors as fresh incarnations (bumped epoch), each followed by
every batch ever relayed to it; a message from an older epoch is
dropped, so a dead incarnation's leftovers never touch the ledger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Union

from repro.parallel.messages import (
    Adopt,
    Deliver,
    Finish,
    Heartbeat,
    Message,
    OutputMsg,
    Produced,
    Stop,
)
from repro.parallel.stats import AsyncRunStats
from repro.parallel.supervisor import WorkerFailure
from repro.parallel.termination import CountingTermination

if TYPE_CHECKING:
    from repro.parallel.cluster import ClusterSpec
    from repro.parallel.worker import PartitionWorker

#: One master action: a control message addressed to a host.
Command = tuple[int, Union[Deliver, Adopt, Finish, Stop]]


class Coordinator:
    """The async master as a state machine.  It owns the counting ledger
    (:class:`~repro.parallel.termination.CountingTermination`), the relay
    log, each node's epoch and host, the run's :class:`~repro.parallel.
    stats.AsyncRunStats`, the retry budget and ``max_messages`` (counted
    over relays, never over recovery replays), and decides one thing on
    its own: whether a failure is recovered or raised."""

    def __init__(self, spec: ClusterSpec, max_messages: int = 1_000_000) -> None:
        k = spec.k
        self.k = k
        self.policy = spec.supervision
        self.sanitize = spec.sanitize
        self.max_messages = max_messages
        self.det = CountingTermination(k)
        self.stats = AsyncRunStats(k=k)
        self.epoch = [0] * k
        #: Logical node -> the host running it (changes on adoption).
        self.host = list(range(k))
        #: Hosts not yet lost to a failure.
        self.live = set(range(k))
        #: Every batch relayed to each node, in relay order — what
        #: recovery replays.
        self.relay_log: list[list[Message]] = [[] for _ in range(k)]
        self.relayed = 0
        self.outputs: dict[int, OutputMsg] = {}
        self.finishing = False

    # -- queries ---------------------------------------------------------------

    def quiescent(self) -> bool:
        """Every node bootstrapped and every relayed batch acknowledged."""
        return self.det.quiescent()

    def done(self) -> bool:
        """Every node's output of its current incarnation is in."""
        return self.finishing and len(self.outputs) == self.k

    # -- commands the transport asks for ---------------------------------------

    def start(self) -> list[Command]:
        """Node i starts on host i, at epoch 0."""
        return [(i, Adopt(i, 0)) for i in range(self.k)]

    def relay(self, batches: Sequence[Message]) -> list[Command]:
        """Put ``batches`` on the wire: counted, logged for replay, and
        addressed to the host of their destination node.  Worker
        productions come through here, and so do the master's own
        broadcasts (distributed DRed)."""
        commands: list[Command] = []
        for batch in batches:
            if self.relayed >= self.max_messages:
                raise RuntimeError(
                    f"no termination after {self.max_messages} messages")
            self.relayed += 1
            self.det.record_forward(batch.dest)
            self.stats.record_batch(batch)
            self.relay_log[batch.dest].append(batch)
            commands.append((self.host[batch.dest], Deliver(batch)))
        return commands

    def finish(self) -> list[Command]:
        """Ask every live host for its nodes' outputs (call at quiescence)."""
        self.finishing = True
        return [(h, Finish()) for h in sorted(self.live)]

    # -- inputs ----------------------------------------------------------------

    def handle(self, msg: Produced | OutputMsg) -> list[Command]:
        """Dispatch one worker-to-master message."""
        if isinstance(msg, Produced):
            return self.on_produced(msg)
        if isinstance(msg, OutputMsg):
            return self.on_output(msg)
        raise TypeError(f"the coordinator cannot handle {msg!r}")

    def _stale(self, msg: Produced | OutputMsg) -> bool:
        """From an incarnation recovery has replaced: drop it."""
        return msg.epoch < self.epoch[msg.node_id]

    def on_produced(self, msg: Produced) -> list[Command]:
        """Relay a delivery's productions, then account its ack — so the
        ledger can only turn quiescent with those productions counted."""
        if self._stale(msg):
            return []
        commands = self.relay(msg.batches)
        self.det.record_ack(msg.node_id, msg.consumed)
        self.det.mark_bootstrapped(msg.node_id)
        return commands

    def on_output(self, msg: OutputMsg) -> list[Command]:
        """Collect one node's rows; once all are in, stop every host."""
        if self._stale(msg):
            return []
        self.outputs[msg.node_id] = msg
        if not self.done():
            return []
        if self.sanitize:
            from repro.analysis.sanitize import check_ledger

            check_ledger(self.det)
        return [(h, Stop()) for h in sorted(self.live)]

    def on_failure(self, failure: WorkerFailure) -> list[Command]:
        """The one recovery decision.  Raise ``failure`` unless the policy
        says ``degrade="recover"``, the retry budget lasts and the reason
        is attributable (``"idle"`` — nothing heard from anyone — is not);
        otherwise move every node of the failed hosts onto survivors,
        round-robin, each as a fresh incarnation followed by the replay of
        its relay log."""
        self.stats.record_failure(failure.record())
        policy = self.policy
        if (policy.degrade != "recover" or failure.reason == "idle"
                or self.stats.retries >= policy.max_retries):
            raise failure
        self.stats.retries += 1
        failed = {self.host[n] for n in failure.node_ids}
        self.live -= failed
        survivors = sorted(self.live)
        if not survivors:
            raise WorkerFailure(
                failure.node_ids, "no-survivors", exitcode=failure.exitcode)
        moved = [n for n in range(self.k) if self.host[n] in failed]
        commands: list[Command] = []
        for offset, node in enumerate(moved):
            target = survivors[
                (node + self.stats.retries + offset) % len(survivors)]
            self.epoch[node] += 1
            self.host[node] = target
            self.det.reset_node(node)
            commands.append((target, Adopt(node, self.epoch[node])))
            for batch in self.relay_log[node]:
                self.det.record_forward(node)
                self.stats.retransmitted += 1
                commands.append((target, Deliver(batch)))
        # Outputs gathered so far may predate the replayed derivations:
        # re-request everything once quiescent again.
        self.outputs.clear()
        self.finishing = False
        return commands


class WorkerHost:
    """One worker process's protocol state: the logical nodes it runs and
    each one's consumed count.  Every Adopt and every Deliver yields
    exactly one :class:`~repro.parallel.messages.Produced` (possibly with
    no batches) whose cumulative ``consumed`` is the acknowledgement the
    coordinator's ledger relies on."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.workers: dict[int, PartitionWorker] = {}
        self.consumed: dict[int, int] = {}
        self.stopped = False

    def handle(self, msg: Deliver | Adopt | Finish | Stop) -> list[Produced | OutputMsg]:
        """One master-to-worker message -> the replies to send back."""
        if isinstance(msg, Deliver):
            batch = msg.batch
            node = batch.dest
            self.consumed[node] += 1
            worker = self.workers[node]
            result = worker.step([batch])
            return [Produced(node, worker.epoch, tuple(result.outgoing),
                             self.consumed[node])]
        if isinstance(msg, Adopt):
            worker = self.spec.worker(msg.node_id, msg.epoch)
            self.workers[msg.node_id] = worker
            self.consumed[msg.node_id] = 0
            return [Produced(msg.node_id, msg.epoch,
                             tuple(worker.bootstrap().outgoing), 0)]
        if isinstance(msg, Finish):
            # An output request, not a shutdown: recovery may still need
            # this host.
            return [OutputMsg.of(w) for w in self.workers.values()]
        if isinstance(msg, Stop):
            self.stopped = True
            return []
        raise TypeError(f"a worker host cannot handle {msg!r}")

    def heartbeats(self) -> list[Heartbeat]:
        """One liveness ping per hosted node (sent on an idle inbox)."""
        return [Heartbeat(node, w.epoch, self.consumed[node])
                for node, w in self.workers.items()]

    def finalize_removals(self) -> list[Produced]:
        """Distributed DRed's last local phase on every hosted node; the
        restored rows go out as ordinary productions, acknowledging
        nothing new."""
        return [Produced(node, w.epoch, tuple(w.finalize_removals().outgoing),
                         self.consumed[node])
                for node, w in self.workers.items()]
