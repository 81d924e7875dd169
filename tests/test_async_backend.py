"""Differential tests for the asynchronous, id-encoded backend.

The contract: for any input and any delivery order, the async backend's
unioned output is set-equal to the serial fixpoint and to the lock-step
oracle — including when several workers concurrently mint dictionary ids
for the same runtime-derived term.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import NaiveEngine, parse_rules
from repro.owl import HorstReasoner
from repro.owl.compiler import compile_ontology
from repro.owl.vocabulary import OWL, RDF
from repro.parallel import (
    ParallelReasoner,
    PartitionWorker,
    run_async_inprocess,
    run_multiprocess_async,
)
from repro.parallel.async_backend import _make_router
from repro.partitioning import GraphPartitioningPolicy, HashPartitioningPolicy, partition_data, partition_rules
from repro.rdf import Graph, Triple, URI

from tests.helpers import stripes


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


def run_lockstep(partitions, rules_per_node, router_kind,
                 owner_table=None, rule_sets=None, max_rounds=1000):
    """In-process lock-step oracle with the exact configuration surface of
    the async executor (same router construction, same wire)."""
    k = len(partitions)
    router = _make_router(router_kind, owner_table, k, rule_sets)
    dictionaries = stripes(
        k, *partitions, rules=[r for rs in rules_per_node for r in rs])
    workers = [
        PartitionWorker(node_id=i, base=partitions[i],
                        rules=rules_per_node[i], router=router,
                        dictionary=dictionaries[i])
        for i in range(k)
    ]
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
        table = dict(dp.owner.table)
        lockstep = run_lockstep(dp.partitions, [crs.rules] * 2, "data",
                                owner_table=table)
        result = run_async_inprocess(dp.partitions, [crs.rules] * 2, "data",
                                     owner_table=table)
        assert result.graph == serial
        assert result.graph == lockstep

    def test_rule_routing_matches_serial_and_lockstep(self, tbox, data):
        crs = compile_ontology(tbox)
        serial = HorstReasoner(tbox).materialize(data).graph
        rp = partition_rules(crs.rules, k=2, seed=0)
        lockstep = run_lockstep([data, data], rp.rule_sets, "rule",
                                rule_sets=rp.rule_sets)
        result = run_async_inprocess([data, data], rp.rule_sets, "rule",
                                     rule_sets=rp.rule_sets)
        assert result.graph == serial
        assert result.graph == lockstep

    def test_counters_balance_at_termination(self, tbox, data):
        crs = compile_ontology(tbox)
        dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=2)
        result = run_async_inprocess(dp.partitions, [crs.rules] * 2, "data",
                                     owner_table=dict(dp.owner.table))
        assert result.forwarded == result.consumed
        assert sum(result.consumed) == result.stats.messages

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
    arrival order is shuffled."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_shuffled_delivery_reaches_same_fixpoint(self, tbox, data, seed):
        crs = compile_ontology(tbox)
        serial = HorstReasoner(tbox).materialize(data).graph
        dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=3)
        result = run_async_inprocess(
            dp.partitions, [crs.rules] * 3, "data",
            owner_table=dict(dp.owner.table),
            delivery="shuffle", seed=seed,
        )
        assert result.graph == serial
        assert result.forwarded == result.consumed

    def test_lifo_delivery_reaches_same_fixpoint(self, tbox, data):
        crs = compile_ontology(tbox)
        serial = HorstReasoner(tbox).materialize(data).graph
        dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=3)
        result = run_async_inprocess(
            dp.partitions, [crs.rules] * 3, "data",
            owner_table=dict(dp.owner.table), delivery="lifo",
        )
        assert result.graph == serial

    def test_unknown_delivery_rejected(self, data):
        with pytest.raises(ValueError):
            run_async_inprocess([data], [[]], "data", owner_table={},
                                delivery="random")


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

    def test_concurrent_minting_reconciles(self):
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
        # Hash partitioning has no explicit table; an empty TableOwner
        # falls back to the identical salt-0 hash on every worker.
        # seed_rule_terms=False keeps the rules' constants out of the base
        # dictionary, forcing every one of them through the delta path.
        result = run_async_inprocess(dp.partitions, [rules] * 2, "data",
                                     owner_table={}, delivery="shuffle",
                                     seed=11, seed_rule_terms=False)
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
    rules_per_node = [_DIFF_RULES] * k

    lockstep = run_lockstep(dp.partitions, rules_per_node, "data",
                            owner_table={})
    async_result = run_async_inprocess(dp.partitions, rules_per_node, "data",
                                       owner_table={},
                                       delivery="shuffle", seed=seed)
    assert lockstep == serial
    assert async_result.graph == serial


# --- real processes ----------------------------------------------------------

@pytest.mark.slow
def test_multiprocess_async_matches_serial_data(tbox, data):
    crs = compile_ontology(tbox)
    serial = HorstReasoner(tbox).materialize(data).graph
    dp = partition_data(data, GraphPartitioningPolicy(seed=0), k=2)
    result = run_multiprocess_async(
        dp.partitions, [crs.rules] * 2, "data",
        owner_table=dict(dp.owner.table),
    )
    assert result.graph == serial
    assert len(result.store) == len(serial)


@pytest.mark.slow
def test_multiprocess_async_matches_serial_rule(tbox, data):
    crs = compile_ontology(tbox)
    serial = HorstReasoner(tbox).materialize(data).graph
    rp = partition_rules(crs.rules, k=2, seed=0)
    result = run_multiprocess_async(
        [data, data], rp.rule_sets, "rule", rule_sets=rp.rule_sets,
    )
    assert result.graph == serial


def test_mismatched_configuration_rejected(data):
    with pytest.raises(ValueError):
        run_async_inprocess([data, data], [[]], "data", owner_table={})
