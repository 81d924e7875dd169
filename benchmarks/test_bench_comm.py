"""Bytes-on-wire benches for the id-encoded wire protocol (DESIGN.md §7).

One lock-step run; every batch it ships is priced in three wire formats:

* N-Triples text (the paper's shared-file scheme) — ``serialize_ntriples``
  over the decoded rows,
* pickled ``Triple`` tuples (the obvious ``mp.Queue`` baseline),
* what actually travelled: flat int64 rows plus once-per-peer delta
  dictionaries.

The headline assertion is the acceptance criterion: the id-encoded format
moves at least 5x fewer bytes than either baseline.  Results are also
written as JSON (``BENCH_COMM_JSON`` env var, else into the test tmpdir)
so CI can archive the trend as an artifact.
"""

import json
import os
import pickle
from pathlib import Path

from repro.parallel import InMemoryComm, ParallelReasoner
from repro.partitioning.policies import GraphPartitioningPolicy
from repro.rdf.ntriples import serialize_ntriples

K = 4


class _KeepingComm(InMemoryComm):
    """InMemoryComm that keeps every batch it relayed, so the run's
    traffic can be re-priced in the term-level formats afterwards."""

    def __init__(self, k):
        super().__init__(k)
        self.sent = []

    def send(self, batch):
        self.sent.append(batch)
        super().send(batch)


def _run(dataset, comm):
    reasoner = ParallelReasoner(
        dataset.ontology, k=K, approach="data",
        policy=GraphPartitioningPolicy(seed=0), strategy="forward",
        comm=comm,
    )
    return reasoner.materialize(dataset.data)


def _results_path(tmp_path: Path) -> Path:
    override = os.environ.get("BENCH_COMM_JSON")
    return Path(override) if override else tmp_path / "bench_comm_results.json"


def test_bench_wire_format_reduction(lubm_tiny, tmp_path, benchmark):
    comm = _KeepingComm(K)
    result = benchmark.pedantic(
        _run, args=(lubm_tiny, comm), rounds=1, iterations=1)

    # What the same traffic would have cost as terms: each batch decoded
    # through its sender's dictionary (which knows every id it shipped).
    ntriples_bytes = pickled_bytes = 0
    for batch in comm.sent:
        triples = batch.decode(result.workers[batch.sender].dictionary)
        ntriples_bytes += len(serialize_ntriples(triples))
        pickled_bytes += len(
            pickle.dumps(tuple(triples), protocol=pickle.HIGHEST_PROTOCOL))
    encoded_bytes = comm.stats.payload_bytes
    assert encoded_bytes > 0
    assert comm.stats.tuples == result.stats.total_tuples_communicated()

    results = {
        "dataset": "lubm_tiny",
        "k": K,
        "tuples_communicated": result.stats.total_tuples_communicated(),
        "batches": comm.stats.messages,
        "bytes_on_wire": {
            "ntriples": ntriples_bytes,
            "pickled_triples": pickled_bytes,
            "encoded": encoded_bytes,
        },
        "reduction": {
            "vs_ntriples": round(ntriples_bytes / encoded_bytes, 2),
            "vs_pickled": round(pickled_bytes / encoded_bytes, 2),
        },
    }
    path = _results_path(tmp_path)
    path.write_text(json.dumps(results, indent=2) + "\n")
    benchmark.extra_info.update(results["reduction"])

    # The acceptance bar: >= 5x fewer bytes than either term-level format.
    assert ntriples_bytes >= 5 * encoded_bytes, results
    assert pickled_bytes >= 5 * encoded_bytes, results


def test_bench_payload_bytes_is_constant_time():
    """payload_bytes() must be O(1): cost models and the async master call
    it per relay.  The size is fixed at construction, which this guards
    structurally rather than with a flaky timing threshold."""
    from repro.parallel.messages import DELTA_ENTRY_OVERHEAD, ROW_BYTES, EncodedBatch
    from repro.rdf import URI

    fresh = URI("ex:fresh")
    eb = EncodedBatch.make(
        0, 1, 0, [(i, 0, i + 1) for i in range(64)], [(64, fresh)])
    assert eb.payload_bytes() == eb._payload_bytes == (
        64 * ROW_BYTES + DELTA_ENTRY_OVERHEAD + len(fresh.n3().encode("utf-8")))
