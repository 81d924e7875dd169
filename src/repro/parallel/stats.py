"""Run statistics: everything the experiments need to rebuild the paper's
figures — per-node per-round reasoning times, message volumes, and the
derived reasoning/IO/sync/aggregation breakdown (Fig 2's four series).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NodeRoundStats:
    """One node's measurements for one round."""

    node_id: int
    round_no: int
    reasoning_time: float
    work: int
    derived: int
    received_tuples: int
    sent_tuples: int
    sent_bytes: int
    received_bytes: int
    sent_messages: int


@dataclass
class AsyncRunStats:
    """Accounting for one asynchronous (round-free) run.

    There are no rounds to tabulate; what matters is total wire traffic —
    messages relayed, tuple rows, payload bytes, delta-dictionary entries
    shipped — plus per-node delivery counts (how unevenly the inbox load
    spread), which the cost models consume in place of Fig 2's per-round
    series.

    Fault-tolerance accounting rides along: every
    :class:`~repro.parallel.supervisor.WorkerFailure` the supervisor
    converted into a recovery (or an abort) lands in ``failures`` as a
    :class:`~repro.parallel.supervisor.FailureRecord`, ``retries`` counts
    recovery attempts, and ``retransmitted`` counts ledger-replayed
    batches (relayed again, but not new wire traffic in ``messages``).
    """

    k: int
    messages: int = 0
    tuples: int = 0
    payload_bytes: int = 0
    delta_terms: int = 0
    #: Messages delivered to each node.
    deliveries: list[int] = field(default_factory=list)
    #: One FailureRecord per WorkerFailure event observed.
    failures: list = field(default_factory=list)
    #: Recovery attempts performed (<= the policy's max_retries).
    retries: int = 0
    #: Batches re-delivered from the relay ledger (recovery replay and
    #: dropped-batch retransmission).
    retransmitted: int = 0

    def __post_init__(self) -> None:
        if not self.deliveries:
            self.deliveries = [0] * self.k

    @property
    def worker_failures(self) -> int:
        return len(self.failures)

    def record_batch(self, batch) -> None:
        """Account one relayed batch."""
        self.messages += 1
        self.tuples += len(batch)
        self.payload_bytes += batch.payload_bytes()
        self.delta_terms += len(batch.delta)
        self.deliveries[batch.dest] += 1

    def record_failure(self, record) -> None:
        """Account one WorkerFailure event (a FailureRecord)."""
        self.failures.append(record)


@dataclass
class RunStats:
    """Per-round, per-node measurements of a full parallel run.

    ``rounds[r][i]`` is node i's stats in round r.  Aggregation helpers
    fold these into the per-node and per-run numbers the experiments print.
    """

    k: int
    rounds: list[list[NodeRoundStats]] = field(default_factory=list)
    aggregation_time: float = 0.0
    partition_time: float = 0.0

    # -- foldings -------------------------------------------------------------

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def reasoning_time_per_node(self) -> list[float]:
        out = [0.0] * self.k
        for round_stats in self.rounds:
            for s in round_stats:
                out[s.node_id] += s.reasoning_time
        return out

    def work_per_node(self) -> list[int]:
        out = [0] * self.k
        for round_stats in self.rounds:
            for s in round_stats:
                out[s.node_id] += s.work
        return out

    def bytes_per_node(self) -> list[tuple[int, int]]:
        """(sent, received) byte totals per node."""
        out = [(0, 0)] * self.k
        for round_stats in self.rounds:
            for s in round_stats:
                sent, recv = out[s.node_id]
                out[s.node_id] = (sent + s.sent_bytes, recv + s.received_bytes)
        return out

    def messages_per_node(self) -> list[int]:
        out = [0] * self.k
        for round_stats in self.rounds:
            for s in round_stats:
                out[s.node_id] += s.sent_messages
        return out

    def total_tuples_communicated(self) -> int:
        return sum(s.sent_tuples for r in self.rounds for s in r)

    def total_derived(self) -> int:
        return sum(s.derived for r in self.rounds for s in r)
