"""Fault-injection tests for the supervised parallel runtime.

The contract under test (DESIGN.md §8): a worker failure — killed,
frozen, or crashed process — must never hang the master.  Failure
handling is configured only by the spec's
:class:`~repro.parallel.supervisor.SupervisionPolicy`.  With
``degrade="abort"`` a failure surfaces as a typed
:class:`~repro.parallel.supervisor.WorkerFailure` naming the dead node;
with ``degrade="recover"`` the lost node's partition is re-run from its
input triples plus the replay of the master's relay ledger, and the final
closure must be *identical* to the serial fixpoint.  Dropped, duplicated,
and delayed batches must leave the fixpoint unchanged without any
recovery at all.

Every test that waits on real processes sets explicit, short
``idle_timeout`` bounds in its policy so a regression fails fast instead of wedging the
suite (CI adds a job-level timeout and pytest-timeout on top).
"""

import json
import multiprocessing as mp
import os
import string
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import NaiveEngine, parse_rules
from repro.owl import HorstReasoner
from repro.owl.compiler import compile_ontology
from repro.owl.vocabulary import OWL, RDF
from repro.parallel import (
    INJECTED_EXIT_CODE,
    ChannelFault,
    ClusterSpec,
    DataPartitionRouter,
    FailureRecord,
    FaultPlan,
    ParallelReasoner,
    SupervisionPolicy,
    WorkerFailure,
    run_async_inprocess,
    run_multiprocess,
    run_multiprocess_async,
    shutdown_processes,
)
from repro.parallel.faults import KILL_ENV, env_kill_plan
from repro.parallel.trace import async_stats_from_json, async_stats_to_json
from repro.partitioning import (
    GraphPartitioningPolicy,
    HashPartitioningPolicy,
    partition_data,
)
from repro.rdf import Graph, Triple, URI


def u(name):
    return URI(f"ex:{name}")


START_METHODS = [
    pytest.param(
        method,
        marks=pytest.mark.skipif(
            method not in mp.get_all_start_methods(),
            reason=f"start method {method!r} unavailable on this platform",
        ),
    )
    for method in ("fork", "spawn")
]


@pytest.fixture
def tbox():
    g = Graph()
    g.add_spo(u("partOf"), RDF.type, OWL.TransitiveProperty)
    g.add_spo(u("linkedTo"), RDF.type, OWL.SymmetricProperty)
    return g


@pytest.fixture
def data():
    g = Graph()
    for c in range(2):
        for i in range(6):
            g.add_spo(u(f"c{c}n{i}"), u("partOf"), u(f"c{c}n{i + 1}"))
    g.add_spo(u("c0n6"), u("partOf"), u("c1n0"))
    g.add_spo(u("c0n0"), u("linkedTo"), u("c1n3"))
    return g


@pytest.fixture
def kill_env(monkeypatch):
    """Set REPRO_FAULT_KILL for one test (and guarantee cleanup)."""

    def _set(node_id, nth_step):
        monkeypatch.setenv(KILL_ENV, f"{node_id}:{nth_step}")

    return _set


def _setup(tbox, data, k):
    crs = compile_ontology(tbox)
    serial = HorstReasoner(tbox).materialize(data).graph
    dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=k)
    return crs, serial, dp


def _spec(dp, rules, **policy):
    """Data partitioning over ``dp``, every node running ``rules``; the
    failure handling is the policy and nothing else."""
    return ClusterSpec.build(
        dp.partitions, [rules] * len(dp.partitions),
        DataPartitionRouter(dp.owner),
        supervision=SupervisionPolicy(**policy))


# --- in-process fault plans ---------------------------------------------------


class TestInProcessKill:
    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_recover_matches_serial(self, tbox, data, victim):
        crs, serial, dp = _setup(tbox, data, k=3)
        result = run_async_inprocess(
            _spec(dp, crs.rules, degrade="recover"),
            faults=FaultPlan(kill_after={victim: 1}),
        )
        assert result.graph == serial
        assert result.stats.worker_failures == 1
        assert result.stats.retries == 1
        record = result.stats.failures[0]
        assert record.reason == "killed"
        assert victim in record.node_ids
        # The counting ledger caught the crash as an imbalance.
        assert record.forwarded[record.node_ids.index(victim)] > \
            record.consumed[record.node_ids.index(victim)]
        # After recovery the ledger balances again.
        assert result.forwarded == result.consumed

    def test_abort_raises_typed_error_naming_node(self, tbox, data):
        crs, _, dp = _setup(tbox, data, k=3)
        with pytest.raises(WorkerFailure) as err:
            run_async_inprocess(
                _spec(dp, crs.rules, degrade="abort"),
                faults=FaultPlan(kill_after={1: 1}),
            )
        assert err.value.node_ids == (1,)
        assert err.value.reason == "killed"
        assert "node(s) 1" in str(err.value)

    def test_retries_exhausted_raises(self, tbox, data):
        crs, _, dp = _setup(tbox, data, k=3)
        with pytest.raises(WorkerFailure):
            run_async_inprocess(
                _spec(dp, crs.rules, degrade="recover", max_retries=0),
                faults=FaultPlan(kill_after={1: 1}),
            )

    def test_freeze_recover_matches_serial(self, tbox, data):
        crs, serial, dp = _setup(tbox, data, k=3)
        result = run_async_inprocess(
            _spec(dp, crs.rules, degrade="recover"),
            faults=FaultPlan(freeze_after={2: 0}),
        )
        assert result.graph == serial
        assert result.stats.failures[0].reason == "frozen"


class TestChannelFaults:
    """Dropped/duplicated/delayed batches leave the fixpoint unchanged —
    without recovery: retransmission (drop) rides the same ledger, and
    dedup/FIFO absorb duplicates and delays."""

    def _channels(self, tbox, data, k=3):
        """All (sender, dest) channels that actually carry a batch in a
        fault-free run, so fault indexes below always hit a real batch."""
        crs, serial, dp = _setup(tbox, data, k=k)
        clean = run_async_inprocess(_spec(dp, crs.rules))
        return crs, serial, dp, clean

    @pytest.mark.parametrize("action", ["drop", "duplicate", "delay"])
    def test_fixpoint_unchanged(self, tbox, data, action):
        crs, serial, dp, clean = self._channels(tbox, data)
        busiest = max(range(3), key=lambda i: clean.stats.deliveries[i])
        faults = FaultPlan(channel=[
            ChannelFault(s, busiest, 0, action)
            for s in range(3) if s != busiest
        ])
        result = run_async_inprocess(_spec(dp, crs.rules), faults=faults)
        assert result.graph == serial
        assert result.stats.worker_failures == 0
        if action == "drop":
            assert result.stats.retransmitted > 0
        if action == "duplicate":
            # Both wire copies were counted and consumed.
            assert result.stats.messages > clean.stats.messages

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            ChannelFault(0, 1, 0, "scramble")


# --- hypothesis differential: recovery == serial naive closure ----------------

_name = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)
_uris = st.builds(lambda s: URI("ex:" + s), _name)
_preds = st.builds(lambda s: URI("p:" + s), st.sampled_from(["p", "q"]))
_triples = st.builds(Triple, _uris, _preds, _uris)
_graphs = st.builds(Graph, st.lists(_triples, max_size=25))

_DIFF_RULES = parse_rules(
    "@prefix ex: <ex:>\n"
    "@prefix p: <p:>\n"
    "[chain: (?x p:p ?y) (?y p:p ?z) -> (?x p:q ?z)]\n"
    "[mint: (?x p:q ?y) -> (?x p:p ex:minted)]\n"
)


@given(_graphs, st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_kill_recover_equals_naive_closure(g, k, victim_seed):
    """Random graphs, shuffled delivery, one worker killed mid-run: the
    recovered closure must equal the serial naive fixpoint exactly.  The
    minting rule guarantees the dead incarnation may have shipped
    delta-dictionary entries for runtime-minted terms, exercising the
    per-epoch id-stripe isolation."""
    serial = g.copy()
    NaiveEngine(_DIFF_RULES).run(serial)

    dp = partition_data(g, HashPartitioningPolicy(), k=k)
    victim = victim_seed % k
    result = run_async_inprocess(
        _spec(dp, _DIFF_RULES, degrade="recover"),
        delivery="shuffle", seed=victim_seed,
        faults=FaultPlan(kill_after={victim: 0}),
    )
    assert result.graph == serial
    # Either the victim never received a message (no stall, no failure)
    # or exactly one failure was recovered.
    assert result.stats.worker_failures in (0, 1)
    assert result.forwarded == result.consumed


# --- multiprocess: env-triggered crashes --------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("start_method", START_METHODS)
def test_mp_kill_recover_matches_serial(tbox, data, start_method, kill_env):
    crs, serial, dp = _setup(tbox, data, k=3)
    kill_env(1, 1)  # node 1 hard-exits on its first step
    result = run_multiprocess_async(
        _spec(dp, crs.rules, idle_timeout=60.0, degrade="recover"),
        start_method=start_method,
    )
    assert result.graph == serial
    assert result.stats.worker_failures == 1
    assert result.stats.retries == 1
    record = result.stats.failures[0]
    assert 1 in record.node_ids
    assert record.exitcode == INJECTED_EXIT_CODE
    assert result.stats.retransmitted >= 0


@pytest.mark.slow
def test_mp_abort_raises_typed_error_within_deadline(tbox, data, kill_env):
    crs, _, dp = _setup(tbox, data, k=3)
    kill_env(2, 1)
    start = time.monotonic()
    with pytest.raises(WorkerFailure) as err:
        run_multiprocess_async(
            _spec(dp, crs.rules, idle_timeout=30.0, degrade="abort"))
    elapsed = time.monotonic() - start
    assert 2 in err.value.node_ids
    assert err.value.reason == "exit"
    assert err.value.exitcode == INJECTED_EXIT_CODE
    assert "node(s) 2" in str(err.value)
    # Detection is liveness-driven (poll on every blocking wait), far
    # inside the idle deadline.
    assert elapsed < 30.0


@pytest.mark.slow
def test_mp_recovery_stats_exported_for_ci(tbox, data, kill_env, tmp_path):
    """Runs the recovery scenario and archives its AsyncRunStats JSON —
    CI uploads the file (FAULT_STATS_JSON) as a build artifact."""
    crs, serial, dp = _setup(tbox, data, k=3)
    kill_env(0, 2)
    result = run_multiprocess_async(
        _spec(dp, crs.rules, idle_timeout=60.0, degrade="recover"))
    assert result.graph == serial
    document = async_stats_to_json(result.stats)
    out = os.environ.get("FAULT_STATS_JSON")
    path = out if out else tmp_path / "fault_recovery_stats.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
    payload = json.loads(document)
    assert payload["retries"] == 1
    assert len(payload["failures"]) == 1
    assert payload["failures"][0]["exitcode"] == INJECTED_EXIT_CODE


# --- LUBM(1): recovery at dataset scale ---------------------------------------


@pytest.mark.slow
def test_lubm_kill_recover_matches_serial():
    from repro.datasets.lubm import LUBM

    ds = LUBM(1, seed=0)
    serial = HorstReasoner(ds.ontology).materialize(ds.data).graph
    pr = ParallelReasoner(
        ds.ontology, k=3, supervision=SupervisionPolicy(degrade="recover"))
    sync = pr.materialize(ds.data).graph
    # Node 1 is delivered two batches here: it dies on the second.
    result = pr.materialize_async(
        ds.data, faults=FaultPlan(kill_after={1: 1}),
    )
    assert result.graph == sync
    # The serial instance closure is contained in the recovered output
    # (the parallel graph additionally carries the schema closure).
    assert set(iter(serial)) <= set(iter(result.graph))
    assert result.stats.worker_failures == 1
    assert result.stats.retries == 1


# --- lock-step backend: diagnostic instead of hang ----------------------------


@pytest.mark.slow
@pytest.mark.parametrize("start_method", START_METHODS)
def test_lockstep_dead_worker_raises_instead_of_hanging(
    tbox, data, start_method, kill_env
):
    crs, _, dp = _setup(tbox, data, k=2)
    kill_env(1, 1)
    start = time.monotonic()
    with pytest.raises(WorkerFailure) as err:
        run_multiprocess(
            _spec(dp, crs.rules, idle_timeout=30.0),
            start_method=start_method,
        )
    assert 1 in err.value.node_ids
    assert err.value.exitcode == INJECTED_EXIT_CODE
    assert time.monotonic() - start < 30.0


@pytest.mark.slow
def test_lockstep_still_correct_under_supervision(tbox, data):
    crs, serial, dp = _setup(tbox, data, k=2)
    union = run_multiprocess(_spec(dp, crs.rules, idle_timeout=60.0))
    assert union.graph == serial


# --- shutdown escalation ------------------------------------------------------


def _ignore_sigterm_and_sleep():
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(300)


@pytest.mark.slow
def test_shutdown_escalates_to_kill():
    """A worker that ignores SIGTERM must still be torn down, via the
    bounded join -> terminate -> kill escalation."""
    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() \
        else mp.get_context()
    proc = ctx.Process(target=_ignore_sigterm_and_sleep)
    proc.start()
    time.sleep(0.3)  # let the child install its handler
    start = time.monotonic()
    shutdown_processes([proc], grace=1.0)
    assert not proc.is_alive()
    assert time.monotonic() - start < 10.0


# --- policy & plumbing --------------------------------------------------------


class TestPolicyValidation:
    def test_bad_degrade_rejected(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(degrade="retry")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(max_retries=-1)

    def test_driver_rejects_bad_degrade(self, tbox):
        # Failure handling reaches the driver only as a SupervisionPolicy.
        with pytest.raises(TypeError):
            ParallelReasoner(tbox, k=2, degrade="recover")
        with pytest.raises(ValueError):
            ParallelReasoner(
                tbox, k=2, supervision=SupervisionPolicy(degrade="panic"))

    def test_backend_rejects_bad_degrade(self, data):
        # ... and reaches an executor only inside the spec.
        dp = partition_data(data, HashPartitioningPolicy(), k=1)
        with pytest.raises(TypeError):
            run_async_inprocess(_spec(dp, []), degrade="recover")
        with pytest.raises(ValueError):
            _spec(dp, [], degrade="panic")

    def test_env_plan_parsing(self, monkeypatch):
        monkeypatch.delenv(KILL_ENV, raising=False)
        assert env_kill_plan() is None
        monkeypatch.setenv(KILL_ENV, "2:5")
        assert env_kill_plan() == (2, 5)
        monkeypatch.setenv(KILL_ENV, "nonsense")
        with pytest.raises(ValueError):
            env_kill_plan()


class TestFailureRecordSerialization:
    def test_async_stats_json_roundtrip_with_failures(self):
        from repro.parallel.stats import AsyncRunStats

        stats = AsyncRunStats(k=3, messages=10, tuples=40,
                              retries=2, retransmitted=7)
        stats.failures.append(
            FailureRecord((1,), "exit", INJECTED_EXIT_CODE, 0, (5,), (2,))
        )
        stats.failures.append(
            FailureRecord((0, 2), "hang", None, 1, (3, 4), (3, 1))
        )
        reloaded = async_stats_from_json(async_stats_to_json(stats))
        assert reloaded == stats
        assert reloaded.worker_failures == 2

    def test_worker_failure_record_conversion(self):
        err = WorkerFailure(
            (1,), "exit", process_index=1, exitcode=86,
            forwarded=(5,), consumed=(2,), epoch=0,
        )
        record = err.record()
        assert record.node_ids == (1,)
        assert record.exitcode == 86
        assert FailureRecord.from_dict(record.to_dict()) == record
