"""Unit tests for messages, communication backends, and routers."""

import pytest

import numpy as np

from repro.datalog import parse_rules
from repro.owl.vocabulary import RDF
from repro.parallel import (
    BroadcastRouter,
    DataPartitionRouter,
    EncodedBatch,
    FileComm,
    InMemoryComm,
    RulePartitionRouter,
)
from repro.parallel.messages import DELTA_ENTRY_OVERHEAD, ROW_BYTES, RemovalBatch
from repro.partitioning.base import TableOwner
from repro.rdf import Graph, Literal, PartitionDictionary, TermDictionary, Triple, URI


def u(name):
    return URI(f"ex:{name}")


def batch(sender=0, dest=1, round_no=0, n=3):
    return EncodedBatch.make(
        sender, dest, round_no, [(i, 100, 200 + i) for i in range(n)])


class TestEncodedBatch:
    def _dictionary(self):
        base = TermDictionary()
        for t in (u("s"), u("p"), u("o")):
            base.encode(t)
        return PartitionDictionary(base, node_id=0, k=2)

    def test_make_and_len(self):
        b = EncodedBatch.make(0, 1, 0, [(0, 1, 2), (2, 1, 0)])
        assert len(b) == 2
        assert b.rows() == [(0, 1, 2), (2, 1, 0)]

    def test_empty_batch(self):
        b = EncodedBatch.make(0, 1, 0, [])
        assert len(b) == 0
        assert b.payload_bytes() == 0

    def test_payload_formula(self):
        term = u("freshly-minted")
        b = EncodedBatch.make(0, 1, 0, [(0, 1, 3), (3, 1, 2)], delta=[(3, term)])
        expected = 2 * ROW_BYTES + DELTA_ENTRY_OVERHEAD + len(term.n3().encode())
        assert b.payload_bytes() == expected

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            EncodedBatch(
                0, 1, 0,
                np.array([0], dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
                np.array([0], dtype=np.int64),
            )

    def test_decode_round_trip(self):
        pd = self._dictionary()
        b = EncodedBatch.make(0, 1, 0, [(0, 1, 2)])
        assert b.decode(pd) == [Triple(u("s"), u("p"), u("o"))]

    def test_decode_applies_delta_first(self):
        sender = self._dictionary()
        minted = sender.encode(u("new"))
        receiver = self._dictionary()
        b = EncodedBatch.make(
            0, 1, 0, [(0, 1, minted)], delta=[(minted, u("new"))]
        )
        assert b.decode(receiver) == [Triple(u("s"), u("p"), u("new"))]
        # The delta is now registered: a later batch on the same channel
        # may reference the id without re-shipping the term.
        later = EncodedBatch.make(0, 1, 1, [(minted, 1, 0)])
        assert later.decode(receiver) == [Triple(u("new"), u("p"), u("s"))]


class TestInMemoryComm:
    def test_send_recv(self):
        comm = InMemoryComm(2)
        comm.send(batch(dest=1))
        received = comm.recv_all(1)
        assert len(received) == 1
        assert comm.recv_all(1) == []

    def test_pending_tracks_in_transit(self):
        comm = InMemoryComm(3)
        comm.send(batch(dest=1))
        comm.send(batch(dest=2))
        assert comm.pending() == 2
        comm.recv_all(1)
        assert comm.pending() == 1

    def test_stats_accounting(self):
        comm = InMemoryComm(2)
        b = batch(dest=1)
        comm.send(b)
        assert comm.stats.messages == 1
        assert comm.stats.tuples == 3
        assert comm.stats.payload_bytes == b.payload_bytes()
        assert comm.stats.sent_bytes[0] == b.payload_bytes()
        assert comm.stats.received_bytes[1] == b.payload_bytes()

    def test_destination_out_of_range(self):
        with pytest.raises(ValueError):
            InMemoryComm(2).send(batch(dest=5))

    def test_accepts_encoded_batches(self):
        comm = InMemoryComm(2)
        b = EncodedBatch.make(0, 1, 0, [(0, 1, 2)], delta=[(3, u("fresh"))])
        comm.send(b)
        assert comm.recv_all(1) == [b]
        assert comm.stats.tuples == 1
        assert comm.stats.payload_bytes == b.payload_bytes()


class TestFileComm:
    def test_send_recv_round_trip(self, tmp_path):
        comm = FileComm(2, tmp_path)
        sent = batch(dest=1)
        comm.send(sent)
        assert comm.pending() == 1
        received = comm.recv_all(1)
        assert len(received) == 1
        assert received[0].rows() == sent.rows()
        assert received[0].sender == 0
        assert received[0].round_no == 0
        assert comm.pending() == 0

    def test_only_destination_receives(self, tmp_path):
        comm = FileComm(3, tmp_path)
        comm.send(batch(dest=1))
        comm.send(batch(dest=2))
        assert len(comm.recv_all(1)) == 1
        assert len(comm.recv_all(2)) == 1
        assert comm.recv_all(0) == []

    def test_files_deleted_on_receipt(self, tmp_path):
        comm = FileComm(2, tmp_path)
        comm.send(batch(dest=1))
        comm.recv_all(1)
        assert list(tmp_path.iterdir()) == []

    def test_literals_survive_file_transport(self, tmp_path):
        """The spool carries a batch whole: rows, the delta-dictionary
        that makes them decodable (tricky literal included), and a
        removal's flag."""
        comm = FileComm(2, tmp_path)
        tricky = Literal('tricky "str"\n', language=None)
        comm.send(EncodedBatch.make(
            0, 1, 0, [(0, 1, 7)], delta=[(7, tricky)]))
        comm.send(RemovalBatch.from_columns(
            0, 1, 1, (np.array([0]), np.array([1]), np.array([7])),
            retract_base=True))
        added, removed = comm.recv_all(1)
        assert added.rows() == [(0, 1, 7)]
        assert added.delta == ((7, tricky),)
        assert added.payload_bytes() == ROW_BYTES + DELTA_ENTRY_OVERHEAD + len(
            tricky.n3().encode("utf-8"))
        assert isinstance(removed, RemovalBatch) and removed.retract_base
        assert removed.rows() == [(0, 1, 7)]


class TestDataPartitionRouter:
    def test_routes_to_owner_of_both_ends(self):
        owner = TableOwner(3, {u("a"): 0, u("b"): 2})
        router = DataPartitionRouter(owner)
        dests = router.destinations(1, Triple(u("a"), u("p"), u("b")))
        assert dests == [0, 2]

    def test_excludes_self(self):
        owner = TableOwner(3, {u("a"): 0, u("b"): 2})
        router = DataPartitionRouter(owner)
        assert router.destinations(0, Triple(u("a"), u("p"), u("b"))) == [2]

    def test_literal_objects_not_routed(self):
        owner = TableOwner(2, {u("a"): 0})
        router = DataPartitionRouter(owner)
        assert router.destinations(0, Triple(u("a"), u("p"), Literal("x"))) == []

    def test_vocabulary_objects_not_routed(self):
        owner = TableOwner(4, {u("a"): 0})
        router = DataPartitionRouter(owner, vocabulary=frozenset({u("Student")}))
        dests = router.destinations(0, Triple(u("a"), RDF.type, u("Student")))
        assert dests == []


class TestRulePartitionRouter:
    @pytest.fixture
    def rule_sets(self):
        rules = parse_rules(
            "@prefix ex: <ex:>\n"
            "[r0: (?a ex:p ?b) -> (?a ex:q ?b)]"
            "[r1: (?a ex:q ?b) -> (?a ex:r ?b)]"
        )
        return [[rules[0]], [rules[1]]]

    def test_routes_to_consuming_partition(self, rule_sets):
        router = RulePartitionRouter(rule_sets)
        t = Triple(u("x"), u("q"), u("y"))
        assert router.destinations(0, t) == [1]

    def test_no_match_no_destinations(self, rule_sets):
        router = RulePartitionRouter(rule_sets)
        t = Triple(u("x"), u("unrelated"), u("y"))
        assert router.destinations(0, t) == []

    def test_wildcard_predicate_bodies_match_everything(self):
        rules = parse_rules(
            "@prefix ex: <ex:>\n[w: (?a ?p ?b) (?b ?p ?c) -> (?a ?p ?c)]"
        )
        router = RulePartitionRouter([[], [rules[0]]])
        t = Triple(u("x"), u("whatever"), u("y"))
        assert router.destinations(0, t) == [1]


class TestBroadcastRouter:
    def test_everyone_but_self(self):
        router = BroadcastRouter(4)
        t = Triple(u("a"), u("p"), u("b"))
        assert router.destinations(2, t) == [0, 1, 3]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            BroadcastRouter(0)
