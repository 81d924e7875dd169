"""Unit tests for the worker loop, the synchronous driver, the cost models,
and the simulated cluster."""

import pytest

from repro.datalog import parse_rules
from repro.owl import HorstReasoner
from repro.owl.vocabulary import OWL, RDF, RDFS
from repro.parallel import (
    BroadcastRouter,
    CostModel,
    FileComm,
    ParallelReasoner,
    PartitionWorker,
    SimulatedCluster,
)
from repro.partitioning.policies import HashPartitioningPolicy
from repro.rdf import Graph, Triple, URI

from tests.helpers import decoded, stripes, wire_batch


def u(name):
    return URI(f"ex:{name}")


TRANS_RULES = parse_rules(
    "@prefix ex: <ex:>\n[t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]"
)


@pytest.fixture
def tbox():
    g = Graph()
    g.add_spo(u("partOf"), RDF.type, OWL.TransitiveProperty)
    g.add_spo(u("Sub"), RDFS.subClassOf, u("Super"))
    return g


@pytest.fixture
def chain_data():
    g = Graph()
    for i in range(8):
        g.add_spo(u(f"n{i}"), u("partOf"), u(f"n{i + 1}"))
    g.add_spo(u("n0"), RDF.type, u("Sub"))
    return g


class TestPartitionWorker:
    def test_bootstrap_derives_and_routes(self):
        base = Graph()
        base.add_spo(u("a"), u("p"), u("b"))
        base.add_spo(u("b"), u("p"), u("c"))
        worker = PartitionWorker(
            0, base, TRANS_RULES, BroadcastRouter(2), stripes(2, base)[0])
        result = worker.bootstrap()
        assert result.derived == 1
        assert result.sent_tuples == 1
        assert result.outgoing[0].dest == 1

    def test_step_ingests_and_extends(self):
        base = Graph()
        base.add_spo(u("a"), u("p"), u("b"))
        mine, peer = stripes(2, base)
        worker = PartitionWorker(0, base, TRANS_RULES, BroadcastRouter(2), mine)
        worker.bootstrap()
        # ex:c is new to everyone: it travels in the batch's delta.
        incoming = wire_batch(peer, 1, 0, 0, [Triple(u("b"), u("p"), u("c"))])
        assert len(incoming.delta) == 1
        result = worker.step([incoming])
        assert result.received == 1
        assert Triple(u("a"), u("p"), u("c")) in worker.output_graph()

    def test_no_duplicate_sends(self):
        base = Graph()
        base.add_spo(u("a"), u("p"), u("b"))
        base.add_spo(u("b"), u("p"), u("c"))
        mine, peer = stripes(2, base)
        worker = PartitionWorker(0, base, TRANS_RULES, BroadcastRouter(2), mine)
        first = worker.bootstrap()
        # Re-delivering its own derivation must not cause a re-send.
        echo = wire_batch(peer, 1, 0, 0, first.outgoing[0].decode(peer))
        result = worker.step([echo])
        assert result.sent_tuples == 0

    def test_empty_step_is_cheap(self):
        worker = PartitionWorker(
            0, Graph(), TRANS_RULES, BroadcastRouter(2), stripes(2)[0])
        worker.bootstrap()
        result = worker.step([])
        assert result.work == 0 and result.derived == 0

    def test_schema_replicated_to_worker(self, tbox):
        """Schema triples handed to a worker as base data stay in its
        output (the drivers replicate the schema at aggregation instead:
        see test_result_graph_decodes_on_first_read)."""
        worker = PartitionWorker(
            0, tbox, TRANS_RULES, BroadcastRouter(2), stripes(2, tbox)[0])
        worker.bootstrap()
        assert worker.output_graph() == tbox


class TestParallelReasonerDriver:
    def test_matches_serial_closure(self, tbox, chain_data):
        serial = HorstReasoner(tbox).materialize(chain_data)
        pr = ParallelReasoner(tbox, k=3, approach="data")
        result = pr.materialize(chain_data)
        instance = Graph(t for t in result.graph if t not in pr.compiled.schema)
        assert instance == serial.graph

    def test_rule_approach_matches_serial(self, tbox, chain_data):
        serial = HorstReasoner(tbox).materialize(chain_data)
        pr = ParallelReasoner(tbox, k=2, approach="rule")
        result = pr.materialize(chain_data)
        instance = Graph(t for t in result.graph if t not in pr.compiled.schema)
        assert instance == serial.graph

    def test_file_comm_backend(self, tbox, chain_data, tmp_path):
        serial = HorstReasoner(tbox).materialize(chain_data)
        pr = ParallelReasoner(
            tbox, k=2, approach="data", comm=FileComm(2, tmp_path)
        )
        result = pr.materialize(chain_data)
        instance = Graph(t for t in result.graph if t not in pr.compiled.schema)
        assert instance == serial.graph

    def test_stats_recorded_per_round(self, tbox, chain_data):
        pr = ParallelReasoner(tbox, k=2, approach="data")
        result = pr.materialize(chain_data)
        assert result.stats.num_rounds >= 1
        for round_stats in result.stats.rounds:
            assert len(round_stats) == 2

    def test_received_bytes_match_sent(self, tbox, chain_data):
        pr = ParallelReasoner(tbox, k=3, approach="data")
        result = pr.materialize(chain_data)
        sent = sum(s.sent_bytes for r in result.stats.rounds for s in r)
        received = sum(s.received_bytes for r in result.stats.rounds for s in r)
        # Last round's sends are never received (termination) — but the
        # last round sends nothing, so totals match.
        assert sent == received

    def test_node_outputs_union_is_result(self, tbox, chain_data):
        pr = ParallelReasoner(tbox, k=2, approach="data")
        result = pr.materialize(chain_data)
        union = Graph()
        for g in result.node_outputs:
            union.update(iter(g))
        for t in union:
            assert t in result.graph

    def test_result_graph_decodes_on_first_read(self, tbox, chain_data):
        """A run ends in id rows; the term graph is a view nobody pays
        for until it is read, and then it is the old term union."""
        pr = ParallelReasoner(tbox, k=2, approach="data")
        result = pr.materialize(chain_data)
        assert not decoded(result.store) and result._node_outputs is None
        old_union = Graph(pr.compiled.schema)
        for worker in result.workers:
            old_union.update(iter(worker.output_graph()))
        assert len(result.store) == len(old_union)
        assert result.graph == old_union
        assert result.graph is result.graph  # decoded once

    @pytest.mark.parametrize(
        "knob", [{"engine": "compiled"}, {"encode_wire": False}])
    def test_term_mode_knobs_rejected(self, tbox, knob):
        with pytest.raises(ValueError, match="PR 21"):
            ParallelReasoner(tbox, k=2, **knob)
        ParallelReasoner(tbox, k=2, engine="columnar", encode_wire=True)

    def test_invalid_approach(self, tbox):
        with pytest.raises(ValueError):
            ParallelReasoner(tbox, k=2, approach="bogus")

    def test_invalid_k(self, tbox):
        with pytest.raises(ValueError):
            ParallelReasoner(tbox, k=0)

    def test_k1_works(self, tbox, chain_data):
        serial = HorstReasoner(tbox).materialize(chain_data)
        pr = ParallelReasoner(tbox, k=1, approach="data")
        result = pr.materialize(chain_data)
        instance = Graph(t for t in result.graph if t not in pr.compiled.schema)
        assert instance == serial.graph
        assert result.stats.total_tuples_communicated() == 0


class TestCostModel:
    def test_transfer_time_formula(self):
        cm = CostModel("test", per_message_overhead=0.01, bandwidth=1000,
                       aggregation_bandwidth=1000)
        assert cm.transfer_time(500, 2) == pytest.approx(0.02 + 0.5)

    def test_zero_model_free(self):
        cm = CostModel.zero()
        assert cm.transfer_time(10**9, 10**6) == 0.0
        assert cm.aggregation_time(10**9) == 0.0

    def test_negative_traffic_rejected(self):
        with pytest.raises(ValueError):
            CostModel.mpi().transfer_time(-1, 0)

    def test_preset_ordering(self):
        """file IPC >> MPI >> shared memory for the same traffic."""
        traffic = (10**6, 100)
        file_t = CostModel.file_ipc().transfer_time(*traffic)
        mpi_t = CostModel.mpi().transfer_time(*traffic)
        shm_t = CostModel.shared_memory().transfer_time(*traffic)
        assert file_t > mpi_t > shm_t


class TestSimulatedCluster:
    def test_breakdown_components_nonnegative(self, tbox, chain_data):
        pr = ParallelReasoner(tbox, k=2, approach="data")
        run = SimulatedCluster(pr, CostModel.file_ipc()).run(chain_data)
        b = run.breakdown()
        assert b.reasoning >= 0 and b.io >= 0 and b.sync >= 0
        assert b.total == pytest.approx(b.reasoning + b.io + b.sync + b.aggregation)

    def test_makespan_at_least_aggregation(self, tbox, chain_data):
        pr = ParallelReasoner(tbox, k=2, approach="data")
        run = SimulatedCluster(pr, CostModel.file_ipc()).run(chain_data)
        assert run.makespan >= run.aggregation_time

    def test_async_not_slower(self, tbox, chain_data):
        # Reconstruct both timelines from the same measured run, so the
        # comparison is exact rather than wall-clock-noise-dependent.
        pr = ParallelReasoner(tbox, k=3, approach="data")
        result = pr.materialize(chain_data)
        sync_run = SimulatedCluster(pr, CostModel.file_ipc(),
                                    mode="sync").reconstruct(result)
        async_run = SimulatedCluster(pr, CostModel.file_ipc(),
                                     mode="async").reconstruct(result)
        assert async_run.makespan <= sync_run.makespan + 1e-9

    def test_reconstruct_is_replayable(self, tbox, chain_data):
        pr = ParallelReasoner(tbox, k=2, approach="data")
        result = pr.materialize(chain_data)
        run_file = SimulatedCluster(pr, CostModel.file_ipc()).reconstruct(result)
        run_mpi = SimulatedCluster(pr, CostModel.mpi()).reconstruct(result)
        assert max(run_mpi.per_node_io) <= max(run_file.per_node_io)

    def test_invalid_mode(self, tbox):
        with pytest.raises(ValueError):
            SimulatedCluster(ParallelReasoner(tbox, k=2), mode="warp")

    def test_work_makespan_positive(self, tbox, chain_data):
        pr = ParallelReasoner(tbox, k=2, approach="data")
        run = SimulatedCluster(pr).run(chain_data)
        assert run.work_makespan > 0
