"""The round-free runtime's protocol, checked by running it.

Both executors run the same two state machines
(:mod:`repro.parallel.coordinator`): the master as a
:class:`~repro.parallel.coordinator.Coordinator` and each worker process
as a :class:`~repro.parallel.coordinator.WorkerHost`.  This file drives
them through a third transport, :class:`tests.helpers.ScheduleDriver`,
which lets the test choose every delivery: on the tiny LUBM / UOBM / MDC
generators, at k ∈ {2, 3}, under data and rule partitioning, it runs

* every cross-channel delivery order of the first two deliveries, then
  five seeded-random orders;
* a kill, a freeze and a drop at every delivery index;

and checks that each schedule terminates, conserves the counting ledger
at quiescence, yields the BSP rounds' closure on the same spec, and —
where a host froze — drops the wedged host's late, stale-epoch replies.
"""

from functools import lru_cache

import pytest

from repro.parallel import Coordinator, WorkerFailure, WorkerHost
from repro.parallel.messages import (
    Adopt,
    Deliver,
    EncodedBatch,
    Finish,
    Heartbeat,
)

from tests.helpers import (
    ScheduleDriver,
    explore,
    explorer_case,
    run_scheduled,
)

CASES = [
    pytest.param(name, approach, k, id=f"{name}-{approach}-{k}")
    for name in ("lubm", "uobm", "mdc")
    for approach in ("data", "rule")
    for k in (2, 3)
]

#: The tiny scale's generators at one university / one field, built once.
case = lru_cache(maxsize=None)(explorer_case)


@pytest.mark.parametrize("name,approach,k", CASES)
def test_every_order_reaches_the_bsp_closure(name, approach, k):
    spec, oracle = case(name, approach, k)
    assert explore(spec, oracle, faults=()) == []


@pytest.mark.parametrize("action", ["kill", "freeze", "drop"])
@pytest.mark.parametrize("name,approach,k", CASES)
def test_a_fault_at_every_delivery_is_survived(name, approach, k, action):
    spec, oracle = case(name, approach, k)
    assert explore(spec, oracle, bound=0, seeds=0, faults=(action,)) == []


def test_a_frozen_host_wakes_up_stale():
    """Freeze node 1's host at its boot: the coordinator adopts node 1
    elsewhere, and the wedged host's late bootstrap, stamped epoch 0, is
    dropped without a command (the driver asserts that much)."""
    spec, oracle = case("lubm", "data", 3)
    driver = ScheduleDriver(spec, fault=(1, "freeze"))
    driver.drain()
    assert set(driver.result().graph) == oracle
    assert driver.stale == 1
    assert driver.coord.epoch == [0, 1, 0]
    assert driver.coord.host[1] != 1
    assert driver.coord.stats.failures[0].reason == "frozen"


def test_abort_policy_raises_the_typed_failure():
    spec, _ = case("lubm", "data", 3, degrade="abort")
    with pytest.raises(WorkerFailure) as err:
        run_scheduled(spec, fault=(4, "kill"))
    assert err.value.reason == "killed"


def test_a_drop_is_retransmitted_in_channel_order():
    spec, oracle = case("uobm", "data", 3)
    driver = ScheduleDriver(spec, fault=(3, "drop"))
    driver.drain()
    assert set(driver.result().graph) == oracle
    assert driver.coord.stats.retransmitted == 1
    assert driver.coord.stats.worker_failures == 0


# -- the coordinator's decisions, one input at a time -------------------------


def test_recovery_adopts_onto_a_survivor_round_robin():
    spec, _ = case("lubm", "data", 3)
    coord = Coordinator(spec)
    # Nothing relayed to node 1 yet: the replay is the Adopt alone.
    commands = coord.on_failure(WorkerFailure([1], "exit", process_index=1))
    # Survivors are hosts 0 and 2; node 1 after one retry: (1 + 1) % 2.
    assert commands == [(0, Adopt(1, 1))]
    assert coord.host == [0, 0, 2] and coord.epoch == [0, 1, 0]
    assert coord.live == {0, 2}


@pytest.mark.parametrize("reason", ["exit", "hang", "killed", "frozen"])
def test_attributable_failures_are_recovered(reason):
    spec, _ = case("lubm", "data", 2)
    assert Coordinator(spec).on_failure(WorkerFailure([0], reason))


def test_idle_is_raised_even_under_recover():
    """``idle`` means nothing was heard from anyone: no culprit to move."""
    spec, _ = case("lubm", "data", 2)
    coord = Coordinator(spec)
    with pytest.raises(WorkerFailure, match="idle"):
        coord.on_failure(WorkerFailure([0, 1], "idle"))
    assert coord.stats.retries == 0 and coord.stats.worker_failures == 1


def test_no_survivors_raises():
    spec, _ = case("lubm", "data", 2)
    with pytest.raises(WorkerFailure, match="no-survivors"):
        Coordinator(spec).on_failure(WorkerFailure([0, 1], "killed"))


def test_max_messages_counts_relays_not_replays():
    spec, _ = case("lubm", "data", 3)
    coord = Coordinator(spec, max_messages=1)
    [(host, deliver)] = coord.relay([EncodedBatch.make(0, 1, 0, [])])
    assert (host, type(deliver)) == (1, Deliver)
    replay = coord.on_failure(WorkerFailure([1], "killed"))
    assert [type(m) for _h, m in replay] == [Adopt, Deliver]
    with pytest.raises(RuntimeError, match="no termination after 1 messages"):
        coord.relay([EncodedBatch.make(0, 2, 0, [])])


def test_stale_epochs_are_dropped_by_the_coordinator():
    spec, _ = case("lubm", "data", 2)
    coord = Coordinator(spec)
    host = WorkerHost(spec)
    [boot] = host.handle(Adopt(1, 0))
    coord.on_failure(WorkerFailure([1], "killed"))
    before = (list(coord.det.forwarded), list(coord.det.consumed))
    assert coord.handle(boot) == []
    [output] = host.handle(Finish())
    assert coord.handle(output) == []
    assert (list(coord.det.forwarded), list(coord.det.consumed)) == before
    assert coord.outputs == {}


def test_each_side_rejects_what_it_does_not_speak():
    spec, _ = case("lubm", "data", 2)
    with pytest.raises(TypeError):
        WorkerHost(spec).handle(Heartbeat(0, 0, 0))
    with pytest.raises(TypeError):
        Coordinator(spec).handle(Heartbeat(0, 0, 0))
