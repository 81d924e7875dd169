"""Differential tests for the asynchronous, id-encoded backend.

The contract: for any input and any delivery order, the async backend's
unioned output is set-equal to the serial fixpoint and to the lock-step
oracle — including when several workers concurrently mint dictionary ids
for the same runtime-derived term.  Every executor runs one
:class:`~repro.parallel.cluster.ClusterSpec`: the router object the BSP
rounds route with is the one the round-free runtimes route with.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import NaiveEngine, parse_rules
from repro.datasets.lubm import LUBM
from repro.owl import HorstReasoner
from repro.owl.compiler import compile_ontology
from repro.owl.reasoner import split_schema
from repro.owl.vocabulary import OWL, RDF
from repro.parallel import (
    ClusterSpec,
    InMemoryComm,
    ParallelReasoner,
    RunStats,
    build_base_dictionary,
    run_async_inprocess,
    run_multiprocess_async,
    run_rounds,
)
from repro.parallel.messages import OutputMsg
from repro.parallel.routing import DataPartitionRouter, RulePartitionRouter
from repro.partitioning import GraphPartitioningPolicy, HashPartitioningPolicy, partition_data, partition_rules
from repro.rdf import Graph, Triple, URI

from tests.helpers import newest_first, run_scheduled, run_shuffled


def u(name):
    return URI(f"ex:{name}")


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


def data_spec(dp, rules, **kw):
    """The data-partitioning spec over ``dp``: every node runs ``rules``,
    routed by the partitioning's own owner function."""
    k = len(dp.partitions)
    return ClusterSpec.build(
        dp.partitions, [rules] * k, DataPartitionRouter(dp.owner), **kw)


def run_lockstep(spec, max_rounds=1000):
    """In-process lock-step oracle over the async executor's spec (same
    nodes, same router, same wire)."""
    spec = spec.for_run()
    workers = [spec.worker(i) for i in range(spec.k)]
    produced = [b for w in workers for b in w.bootstrap().outgoing]
    for _ in range(max_rounds):
        if not produced:
            break
        by_dest = {}
        for b in produced:
            by_dest.setdefault(b.dest, []).append(b)
        produced = [
            b
            for w in workers
            for b in w.step(by_dest.get(w.node_id, [])).outgoing
        ]
    else:
        raise RuntimeError("lock-step oracle did not terminate")
    union = Graph()
    for w in workers:
        union.update(iter(w.output_graph()))
    return union


class TestAsyncMatchesOracles:
    def test_data_routing_matches_serial_and_lockstep(self, tbox, data):
        crs = compile_ontology(tbox)
        serial = HorstReasoner(tbox).materialize(data).graph
        dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=2)
        spec = data_spec(dp, crs.rules)
        lockstep = run_lockstep(spec)
        result = run_async_inprocess(spec)
        assert result.graph == serial
        assert result.graph == lockstep

    def test_rule_routing_matches_serial_and_lockstep(self, tbox, data):
        crs = compile_ontology(tbox)
        serial = HorstReasoner(tbox).materialize(data).graph
        rp = partition_rules(crs.rules, k=2, seed=0)
        spec = ClusterSpec.build(
            [data, data], rp.rule_sets, RulePartitionRouter(rp.rule_sets))
        lockstep = run_lockstep(spec)
        result = run_async_inprocess(spec)
        assert result.graph == serial
        assert result.graph == lockstep

    def test_counters_balance_at_termination(self, tbox, data):
        crs = compile_ontology(tbox)
        dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=2)
        result = run_async_inprocess(data_spec(dp, crs.rules))
        assert result.forwarded == result.consumed
        assert sum(result.consumed) == result.stats.messages

    def test_engine_stats_gathered_with_the_rows(self, tbox, data):
        crs = compile_ontology(tbox)
        dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=2)
        result = run_async_inprocess(data_spec(dp, crs.rules))
        assert result.engine_stats.derived > 0
        assert result.engine_stats.derived == sum(
            w.engine_stats.derived for w in result.workers)
        assert result.engine_stats.work == sum(
            w.engine_stats.work for w in result.workers)

    def test_driver_encode_wire_matches_plain(self, tbox, data):
        plain = ParallelReasoner(tbox, k=3).materialize(data)
        encoded = ParallelReasoner(tbox, k=3, encode_wire=True).materialize(data)
        assert encoded.graph == plain.graph
        # Same tuples crossed the wire; the encoded run just paid fewer
        # bytes for them.
        assert encoded.stats.total_tuples_communicated() == \
            plain.stats.total_tuples_communicated()


class TestOutOfOrderDelivery:
    """The acceptance property: no hang and no premature stop when inbox
    arrival order is shuffled (the explorer's driver picks the order)."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_shuffled_delivery_reaches_same_fixpoint(self, tbox, data, seed):
        crs = compile_ontology(tbox)
        serial = HorstReasoner(tbox).materialize(data).graph
        dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=3)
        result = run_shuffled(data_spec(dp, crs.rules), seed)
        assert result.graph == serial
        assert result.forwarded == result.consumed

    def test_lifo_delivery_reaches_same_fixpoint(self, tbox, data):
        crs = compile_ontology(tbox)
        serial = HorstReasoner(tbox).materialize(data).graph
        dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=3)
        result = run_scheduled(data_spec(dp, crs.rules), newest_first)
        assert result.graph == serial


class TestDeltaDictionaryReconciliation:
    """Terms first derived at runtime (absent from the base dictionary)
    are minted concurrently on several workers; the outputs must still
    reconcile to one term."""

    RULES = (
        "@prefix ex: <ex:>\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
        "[mint: (?a ex:p ?b) -> (?a rdf:type ex:FreshClass)]\n"
        "[copy: (?a ex:p ?b) -> (?a ex:freshPred ?b)]\n"
        "[join: (?a ex:freshPred ?b) (?b ex:freshPred ?c) -> (?a ex:p ?c)]\n"
    )

    def minting_spec(self):
        rules = parse_rules(self.RULES)
        g = Graph()
        # Two disjoint chains -> land on different partitions, both fire
        # the minting rules independently.
        for c in range(2):
            for i in range(4):
                g.add_spo(u(f"m{c}n{i}"), u("p"), u(f"m{c}n{i + 1}"))
        serial = g.copy()
        NaiveEngine(rules).run(serial)
        dp = partition_data(g, HashPartitioningPolicy(), k=2)
        # A base of the data's terms only keeps the rules' constants out
        # of it, forcing every one of them through the delta path.
        spec = data_spec(dp, rules, base=build_base_dictionary(dp.partitions))
        return spec, serial

    def test_concurrent_minting_reconciles(self):
        spec, serial = self.minting_spec()
        result = run_shuffled(spec, 11)
        assert result.graph == serial
        # Both workers minted their own id for ex:FreshClass (same term,
        # two stripes); the gathered store holds each triple once, re-keyed
        # into a copy — the resident workers' shared base did not grow.
        fresh = u("FreshClass")
        a, b = (w.dictionary for w in result.workers)
        assert a.base is b.base and a.get(fresh) != b.get(fresh)
        assert min(a.get(fresh), b.get(fresh)) >= len(a.base) == a.base_size
        assert len(result.store) == len(serial)
        assert result.dictionary is not a.base
        # The fresh terms shipped as delta entries, not as re-serialized
        # term text per tuple.
        assert result.stats.delta_terms > 0
        # Both chains' subjects got typed with the one reconciled term.
        assert Triple(u("m0n0"), RDF.type, u("FreshClass")) in result.graph
        assert Triple(u("m1n0"), RDF.type, u("FreshClass")) in result.graph

    def test_output_msg_is_id_columns_plus_minted_terms(self):
        spec, _serial = self.minting_spec()
        result = run_shuffled(spec, 11)
        base_size = len(spec.base)
        messages = [OutputMsg.of(w) for w in result.workers]
        for w, msg in zip(result.workers, messages):
            columns = (msg.s, msg.p, msg.o)
            assert all(c.dtype == np.int64 and c.ndim == 1 for c in columns)
            assert len({len(c) for c in columns}) == 1
            # The delta names exactly the non-base ids of the rows, each
            # once, with the term the node decodes it to.
            ids = np.concatenate(columns)
            assert [tid for tid, _term in msg.delta] == sorted(
                set(ids[ids >= base_size].tolist()))
            assert all(isinstance(tid, int) and not isinstance(term, Triple)
                       and w.dictionary.decode(tid) == term
                       for tid, term in msg.delta)
        assert all(msg.delta for msg in messages)

    @pytest.mark.slow
    def test_two_processes_reconcile_minted_ids_to_one_row(self):
        spec, serial = self.minting_spec()
        base_size = len(spec.base)
        result = run_multiprocess_async(spec)
        assert result.graph == serial
        # Each process minted its own id for ex:FreshClass; the gather
        # re-keyed both through the shipped deltas into one row each, in
        # a private copy of the base — the spec's base did not grow.
        assert len(result.store) == len(serial)
        assert result.dictionary is not spec.base
        assert len(spec.base) == base_size
        assert result.engine_stats.derived > 0


# --- hypothesis differential: naive == lock-step == async -------------------

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
def test_naive_equals_lockstep_equals_async(g, k, seed):
    """Random graphs, a chain rule plus a constant-minting rule (ex:minted
    is never in the base dictionary): serial naive fixpoint, lock-step
    relay, and shuffled async execution must agree exactly."""
    serial = g.copy()
    NaiveEngine(_DIFF_RULES).run(serial)

    dp = partition_data(g, HashPartitioningPolicy(), k=k)
    spec = data_spec(dp, _DIFF_RULES)

    lockstep = run_lockstep(spec)
    async_result = run_shuffled(spec, seed)
    assert lockstep == serial
    assert async_result.graph == serial


# --- real processes ----------------------------------------------------------

@pytest.mark.slow
def test_multiprocess_async_matches_serial_data(tbox, data):
    crs = compile_ontology(tbox)
    serial = HorstReasoner(tbox).materialize(data).graph
    dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=2)
    result = run_multiprocess_async(data_spec(dp, crs.rules))
    assert result.graph == serial
    assert len(result.store) == len(serial)


@pytest.mark.slow
def test_multiprocess_async_matches_serial_rule(tbox, data):
    crs = compile_ontology(tbox)
    serial = HorstReasoner(tbox).materialize(data).graph
    rp = partition_rules(crs.rules, k=2, seed=0)
    result = run_multiprocess_async(ClusterSpec.build(
        [data, data], rp.rule_sets, RulePartitionRouter(rp.rule_sets)))
    assert result.graph == serial


def test_mismatched_configuration_rejected(data):
    router = RulePartitionRouter([[], []])
    with pytest.raises(ValueError):
        ClusterSpec.build([data, data], [[]], router)
    with pytest.raises(ValueError):
        ClusterSpec.build([data], [[]], router)


# --- one spec, every executor ------------------------------------------------


def test_async_ships_exactly_what_bsp_ships_on_one_spec():
    """The round-free runtime routes with the spec's router object — owner
    function *and* vocabulary — so on LUBM-2 (graph policy, k=4, fifo) it
    ships the BSP rounds' tuples and bytes.  A router rebuilt from a bare
    owner table loses the vocabulary: it shipped 1,777 tuples / 42,648 B."""
    ds = LUBM(2, seed=1)
    pr = ParallelReasoner(ds.ontology, k=4)
    schema, instance = split_schema(ds.data)
    _data, _rules, spec = pr._plan(instance, schema)
    stats = RunStats(k=4)
    bsp = run_rounds(spec, InMemoryComm(4), stats)
    sent = sum(s.sent_tuples for r in stats.rounds for s in r)
    sent_bytes = sum(s.sent_bytes for r in stats.rounds for s in r)
    asynchronous = run_async_inprocess(spec)
    assert (sent, sent_bytes) == (602, 14_448)
    assert (asynchronous.stats.tuples,
            asynchronous.stats.payload_bytes) == (sent, sent_bytes)
    assert asynchronous.graph == bsp.graph


class TestHashPolicyOnEveryExecutor:
    """A hash owner has no table to flatten: the spec ships the router —
    the owner function, salt included — to every executor."""

    @pytest.fixture(scope="class")
    def lubm(self):
        ds = LUBM(1, seed=0)
        return ds, HorstReasoner(ds.ontology).materialize(ds.data).graph

    @staticmethod
    def instance_closure(result, pr):
        return Graph(t for t in result.graph if t not in pr.compiled.schema)

    @pytest.mark.parametrize("salt", [0, 7])
    def test_materialize_async_in_process(self, lubm, salt):
        ds, serial = lubm
        pr = ParallelReasoner(ds.ontology, k=3,
                              policy=HashPartitioningPolicy(salt=salt))
        assert self.instance_closure(pr.materialize_async(ds.data), pr) == serial

    @pytest.mark.slow
    def test_materialize_async_multiprocess(self, lubm):
        ds, serial = lubm
        pr = ParallelReasoner(ds.ontology, k=3,
                              policy=HashPartitioningPolicy(salt=7))
        result = pr.materialize_async(ds.data, multiprocess=True)
        assert self.instance_closure(result, pr) == serial

    def test_apply_async(self, lubm):
        ds, _serial = lubm
        data = sorted(ds.data)
        removes = data[:5]
        adds = [Triple(u("newcomer"), RDF.type, t.o)
                for t in data if t.p == RDF.type][:1]
        pr = ParallelReasoner(ds.ontology, k=3,
                              policy=HashPartitioningPolicy(salt=7))
        result = pr.apply_async(ds.data, adds=adds, removes=removes)
        kept = Graph(t for t in data if t not in removes)
        kept.update(iter(adds))
        expected = HorstReasoner(ds.ontology).materialize(kept).graph
        assert self.instance_closure(result, pr) == expected
