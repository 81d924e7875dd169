"""Failure-injection tests: the runtime's behaviour under duplicate
delivery, message re-ordering, routing cycles, and resource limits."""

import pytest

from repro.datalog import parse_rules
from repro.owl import HorstReasoner
from repro.owl.vocabulary import OWL, RDF
from repro.parallel import (
    BroadcastRouter,
    InMemoryComm,
    ParallelReasoner,
    PartitionWorker,
)
from repro.rdf import Graph, Triple, URI

from tests.helpers import stripes, wire_batch


def u(name):
    return URI(f"ex:{name}")


TRANS = parse_rules(
    "@prefix ex: <ex:>\n[t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]"
)


@pytest.fixture
def tbox():
    g = Graph()
    g.add_spo(u("p"), RDF.type, OWL.TransitiveProperty)
    return g


@pytest.fixture
def chain():
    g = Graph()
    for i in range(6):
        g.add_spo(u(f"n{i}"), u("p"), u(f"n{i + 1}"))
    return g


class TestDuplicateDelivery:
    def test_duplicate_batches_are_idempotent(self, tbox, chain):
        """Delivering the same batch twice (file systems do that) must not
        change the closure or provoke extra sends."""
        serial = HorstReasoner(tbox).materialize(chain)
        mine, peer = stripes(2, chain)
        worker = PartitionWorker(0, chain, TRANS, BroadcastRouter(2), mine)
        worker.bootstrap()
        batch = wire_batch(
            peer, 1, 0, 0, [Triple(u("n6"), u("p"), u("n7"))]
        )
        first = worker.step([batch])
        second = worker.step([batch])  # replay
        assert second.received == 0
        assert second.derived == 0
        assert second.sent_tuples == 0

    def test_self_echo_does_not_loop(self):
        """A worker receiving its own earlier output must not re-send it
        (the dedup that guarantees termination)."""
        g = Graph()
        g.add_spo(u("a"), u("p"), u("b"))
        g.add_spo(u("b"), u("p"), u("c"))
        mine, peer = stripes(2, g)
        worker = PartitionWorker(0, g, TRANS, BroadcastRouter(2), mine)
        boot = worker.bootstrap()
        assert boot.sent_tuples == 1
        echo = wire_batch(peer, 1, 0, 0, boot.outgoing[0].decode(peer))
        result = worker.step([echo])
        assert result.sent_tuples == 0


class TestReordering:
    def test_out_of_order_batches_same_closure(self, tbox, chain):
        """Algorithm 3's correctness does not depend on arrival order;
        deliver round-0 batches shuffled."""
        serial = HorstReasoner(tbox).materialize(chain)
        pr = ParallelReasoner(tbox, k=3, approach="data", seed=7)
        result = pr.materialize(chain)
        instance = Graph(t for t in result.graph if t not in pr.compiled.schema)
        assert instance == serial.graph
        # (The InMemoryComm delivers FIFO; a shuffled comm is equivalent
        # because workers union all received batches before reasoning.)
        comm = InMemoryComm(2)
        sender, receiver = stripes(2)
        comm.send(wire_batch(sender, 0, 1, 0, [Triple(u("x"), u("p"), u("y"))]))
        comm.send(wire_batch(sender, 0, 1, 1, [Triple(u("y"), u("p"), u("z"))]))
        batches = comm.recv_all(1)
        worker = PartitionWorker(
            1, Graph(), TRANS, BroadcastRouter(2), receiver)
        worker.bootstrap()
        result = worker.step(reversed(batches))
        assert Triple(u("x"), u("p"), u("z")) in worker.output_graph()


class TestResourceLimits:
    def test_max_rounds_guard_trips(self, tbox, chain):
        pr = ParallelReasoner(tbox, k=3, approach="data", max_rounds=0)
        with pytest.raises(RuntimeError, match="no termination"):
            pr.materialize(chain)

    def test_engine_iteration_guard(self):
        from repro.datalog import SemiNaiveEngine

        g = Graph()
        for i in range(12):
            g.add_spo(u(f"c{i}"), u("p"), u(f"c{i + 1}"))
        with pytest.raises(RuntimeError, match="fixpoint"):
            SemiNaiveEngine(TRANS, max_iterations=1).run(g)


class TestCorruptTransport:
    def test_file_comm_ignores_foreign_files(self, tmp_path, tbox, chain):
        """Unrelated files in the spool directory must not be consumed."""
        from repro.parallel import FileComm

        comm = FileComm(2, tmp_path)
        (tmp_path / "README.txt").write_text("not a batch")
        comm.send(wire_batch(
            stripes(2)[0], 0, 1, 0, [Triple(u("a"), u("p"), u("b"))]))
        received = comm.recv_all(1)
        assert len(received) == 1
        assert (tmp_path / "README.txt").exists()

    def test_file_comm_corrupt_batch_raises_cleanly(self, tmp_path):
        from repro.parallel import FileComm

        comm = FileComm(2, tmp_path)
        bad = tmp_path / "r000000_s0000_d0001_00000001.pkl"
        bad.write_text("THIS IS NOT A PICKLED BATCH\n", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt spool file"):
            comm.recv_all(1)
