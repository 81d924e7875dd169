"""Ablation benches for the reasoning engines.

DESIGN.md §5: semi-naive vs naive evaluation, forward vs the
(deliberately Jena-shaped, super-linear) backward materialization, the
semi-naive engine on a mixed Horst workload, and the columnar closure of
LUBM (DESIGN.md §11).

The columnar closure bench also writes the consolidated
``BENCH_core.json`` (``BENCH_CORE_JSON`` env var, else the test tmpdir):
closure triples/sec, the join-probe count, and the id-native runtime's
bytes-on-wire — the headline numbers CI archives as one artifact.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datalog import NaiveEngine, SemiNaiveEngine, parse_rules
from repro.datalog.backward import materialize_backward
from repro.datalog.columnar import ColumnarEngine
from repro.owl import HorstReasoner
from repro.rdf import Graph, URI
from repro.rdf.dictionary import TermDictionary
from repro.rdf.idstore import IdGraph
from repro.rdf.runstore import RunStore

TRANS = parse_rules("@prefix ex: <ex:>\n"
                    "[t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]")

#: A mixed Horst-shaped workload: scan rules (subproperty/inverse-style
#: rewrites), join rules (two transitive closures), and rules over
#: predicates absent from the data (exercising predicate dispatch) — the
#: shape a compiled ontology produces, not just one transitive chain.
MIXED = parse_rules(
    "@prefix ex: <ex:>\n"
    "[t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]"
    "[inv: (?x ex:p ?y) -> (?y ex:q ?x)]"
    "[typ: (?x ex:p ?y) -> (?x ex:type ex:Thing)]"
    "[jq: (?x ex:q ?y) (?y ex:q ?z) -> (?x ex:qq ?z)]"
    "[u1: (?x ex:absent1 ?y) -> (?x ex:a1 ?y)]"
    "[u2: (?x ex:absent2 ?y) (?y ex:absent2 ?z) -> (?x ex:a2 ?z)]"
    "[u3: (?x ex:absent3 ?y) (?y ex:absent4 ?z) -> (?x ex:a3 ?z)]"
)


def _chain(n):
    g = Graph()
    for i in range(n):
        g.add_spo(URI(f"ex:n{i}"), URI("ex:p"), URI(f"ex:n{i + 1}"))
    return g


def _mixed_graph(n):
    """A chain plus a deterministic pseudo-random functional graph — deep
    transitive closure with branching joins."""
    g = _chain(n)
    for i in range(n):
        g.add_spo(URI(f"ex:m{i}"), URI("ex:p"), URI(f"ex:m{(i * 7) % n}"))
    return g


def test_bench_semi_naive(benchmark):
    result = benchmark(lambda: SemiNaiveEngine(TRANS).run(_chain(25)))
    benchmark.extra_info["join_probes"] = result.stats.join_probes


def test_bench_naive(benchmark):
    result = benchmark(lambda: NaiveEngine(TRANS).run(_chain(25)))
    benchmark.extra_info["join_probes"] = result.stats.join_probes


def test_ablation_semi_naive_beats_naive():
    semi = SemiNaiveEngine(TRANS).run(_chain(30))
    naive = NaiveEngine(TRANS).run(_chain(30))
    # Transitive chains converge in few rounds, so the gap is moderate
    # here; the margin widens with iteration count (see the unit test on
    # longer mixed rule sets).
    assert semi.stats.join_probes < 0.75 * naive.stats.join_probes


def test_bench_semi_naive_mixed(benchmark):
    result = benchmark(
        lambda: SemiNaiveEngine(MIXED).run(_mixed_graph(40))
    )
    benchmark.extra_info["join_probes"] = result.stats.join_probes
    benchmark.extra_info["rules_skipped"] = result.stats.rules_skipped
    assert result.stats.rules_skipped > 0


def _encode_graph(graph, dictionary):
    """Bulk-encode a term graph into a fresh :class:`IdGraph` — the same
    ingest the id-native workers perform on their partitions."""
    enc = dictionary.encode
    s_list, p_list, o_list = [], [], []
    for s, p, o in graph.spo_items():
        s_list.append(enc(s))
        p_list.append(enc(p))
        o_list.append(enc(o))
    store = IdGraph(capacity=len(s_list))
    store.add_rows(
        np.asarray(s_list, dtype=np.int64),
        np.asarray(p_list, dtype=np.int64),
        np.asarray(o_list, dtype=np.int64),
    )
    return store


def _core_results_path(tmp_path: Path) -> Path:
    override = os.environ.get("BENCH_CORE_JSON")
    return Path(override) if override else tmp_path / "bench_core_results.json"


def test_columnar_closure_core_numbers(tmp_path):
    """The columnar engine's LUBM(8) closure (DESIGN.md §11): ingest of
    int64 rows plus the id-space fixpoint, best-of-3, recorded with the
    wire numbers into ``BENCH_core.json``.  Gate: the closure and its
    work counters equal the numbers every engine has reported on this
    input (exactness, not speed — there is one engine left to time)."""
    from repro.datasets import LUBM

    lubm = LUBM(8, seed=0)
    base = lubm.data.copy()
    base.update(lubm.ontology)
    rules = HorstReasoner(lubm.ontology).rules

    columnar_best = float("inf")
    for _ in range(3):
        dictionary = TermDictionary()
        t0 = time.perf_counter()
        store = _encode_graph(base, dictionary)
        columnar = ColumnarEngine(rules, dictionary).run(store)
        columnar_best = min(columnar_best, time.perf_counter() - t0)

    closure = len(store)
    assert (closure, columnar.stats.derived, columnar.stats.join_probes) \
        == (11534, 5024, 19328)
    results = {
        "dataset": "LUBM(8)",
        "closure_triples": closure,
        "derived": columnar.stats.derived,
        "join_probes": columnar.stats.join_probes,
        "columnar": {
            "seconds": round(columnar_best, 6),
            "triples_per_sec": round(closure / columnar_best),
        },
        "wire": _wire_numbers(),
    }
    path = _core_results_path(tmp_path)
    path.write_text(json.dumps(results, indent=2) + "\n")


def _wire_numbers():
    """Bytes-on-wire of the id-native parallel runtime: a k=4 data-
    partitioned run with id-encoded messages and columnar workers, priced
    by the comm layer's payload accounting (24 bytes/row + once-per-peer
    delta dictionaries)."""
    from repro.datasets import LUBM
    from repro.parallel import InMemoryComm, ParallelReasoner
    from repro.partitioning.policies import GraphPartitioningPolicy

    lubm = LUBM(2, seed=0)
    comm = InMemoryComm(4)
    reasoner = ParallelReasoner(
        lubm.ontology, k=4, approach="data",
        policy=GraphPartitioningPolicy(seed=0), strategy="forward",
        comm=comm,
    )
    result = reasoner.materialize(lubm.data)
    tuples = result.stats.total_tuples_communicated()
    payload = comm.stats.payload_bytes
    return {
        "dataset": "LUBM(2)",
        "k": 4,
        "tuples_communicated": tuples,
        "bytes_on_wire": payload,
        "bytes_per_tuple": round(payload / tuples, 2) if tuples else 0.0,
    }


_RSS_PROBE = """\
import json, resource, sys
import numpy as np
from repro.datasets import LUBM
from repro.datalog.columnar import ColumnarEngine
from repro.owl import HorstReasoner
from repro.rdf.dictionary import TermDictionary
from repro.rdf.idstore import IdGraph
from repro.rdf.runstore import RunStore

kind, budget = sys.argv[1], int(sys.argv[2])
lubm = LUBM(8, seed=0)
base = lubm.data.copy()
base.update(lubm.ontology)
rules = HorstReasoner(lubm.ontology).rules
dictionary = TermDictionary()
enc = dictionary.encode
s, p, o = [], [], []
for a, b, c in base.spo_items():
    s.append(enc(a)), p.append(enc(b)), o.append(enc(c))
if kind == "dense":
    store = IdGraph(capacity=len(s))
else:
    store = RunStore(memory_budget_bytes=budget)
store.add_rows(np.asarray(s, dtype=np.int64), np.asarray(p, dtype=np.int64),
               np.asarray(o, dtype=np.int64))
result = ColumnarEngine(rules, dictionary).run(store)
print(json.dumps({
    "rows": len(store),
    "store_bytes": store.memory_bytes(),
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "derived": result.stats.derived,
}))
"""


def _closure_peak_rss(kind: str, budget: int) -> dict:
    """Close LUBM(8) in a fresh interpreter and report its peak RSS
    (``ru_maxrss``) plus the store's accounted bytes — process-level
    ground truth for the budget accounting, free of this process's
    allocator history."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) \
        + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, kind, str(budget)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_ablation_run_store_memory_budget(tmp_path):
    """Acceptance gate for the memory-budgeted run store (DESIGN.md §12).

    Three closures of the same LUBM(8) KB through the columnar kernels:

    * dense — the ``IdGraph`` mirror (baseline);
    * in-RAM run store — ``tail_rows=4096`` forces real seals/merges
      while everything stays resident: the throughput comparison;
    * budgeted — ``memory_budget_bytes`` set to a third of what the
      dense mirror measures *after* closure, i.e. a cap under which the
      dense store could not even hold the result.

    Gates: identical work counters on all three paths (the run store is
    an exact drop-in, not an approximation), in-RAM throughput >= 0.8x
    dense, budgeted residency within the cap, and compressed payload
    <= 0.5x dense bytes/triple.  Peak-RSS numbers come from subprocess
    probes and are recorded (not gated — interpreter baseline dominates
    at this scale) in ``BENCH_core.json`` for CI to archive.
    """
    from repro.datasets import LUBM

    lubm = LUBM(8, seed=0)
    base = lubm.data.copy()
    base.update(lubm.ontology)
    rules = HorstReasoner(lubm.ontology).rules

    def closure(store):
        dictionary = TermDictionary()
        t0 = time.perf_counter()
        enc = dictionary.encode
        s_list, p_list, o_list = [], [], []
        for s, p, o in base.spo_items():
            s_list.append(enc(s)), p_list.append(enc(p)), o_list.append(enc(o))
        store.add_rows(
            np.asarray(s_list, dtype=np.int64),
            np.asarray(p_list, dtype=np.int64),
            np.asarray(o_list, dtype=np.int64),
        )
        result = ColumnarEngine(rules, dictionary).run(store)
        return store, result.stats, time.perf_counter() - t0

    dense_best = run_best = float("inf")
    for _ in range(3):
        dense, dense_stats, seconds = closure(IdGraph(capacity=len(base)))
        dense_best = min(dense_best, seconds)
        run, run_stats, seconds = closure(RunStore(tail_rows=4096))
        run_best = min(run_best, seconds)

    # A budget the dense mirror demonstrably cannot fit under.
    budget = dense.memory_bytes() // 3
    assert dense.memory_bytes() > budget
    budgeted, budgeted_stats, _ = closure(
        RunStore(memory_budget_bytes=budget))

    # Exact drop-in: same closure, same counters, on both run-store paths.
    for stats in (run_stats, budgeted_stats):
        assert len(budgeted) == len(dense)
        assert stats.join_probes == dense_stats.join_probes
        assert stats.firings == dense_stats.firings
        assert stats.derived == dense_stats.derived

    assert budgeted.in_ram_bytes() <= budget
    dense_bpt = dense.memory_bytes() / len(dense)
    run_bpt = run.payload_bytes() / len(run)
    assert run_bpt <= 0.5 * dense_bpt
    assert run_best <= dense_best / 0.8, (run_best, dense_best)

    dense_rss = _closure_peak_rss("dense", 0)
    budgeted_rss = _closure_peak_rss("run", budget)
    section = {
        "dataset": "LUBM(8)",
        "closure_triples": len(dense),
        "budget_bytes": budget,
        "dense": {
            "seconds": round(dense_best, 6),
            "store_bytes": dense.memory_bytes(),
            "bytes_per_triple": round(dense_bpt, 2),
            "peak_rss_kb": dense_rss["peak_rss_kb"],
        },
        "run_store": {
            "seconds": round(run_best, 6),
            "payload_bytes": run.payload_bytes(),
            "bytes_per_triple": round(run_bpt, 2),
            "throughput_vs_dense": round(dense_best / run_best, 2),
        },
        "budgeted": {
            "in_ram_bytes": budgeted.in_ram_bytes(),
            "payload_bytes": budgeted.payload_bytes(),
            "peak_rss_kb": budgeted_rss["peak_rss_kb"],
            **{k: v for k, v in budgeted.store_stats().items()
               if k in ("runs", "seals", "merges", "spills")},
        },
    }
    path = _core_results_path(tmp_path)
    results = json.loads(path.read_text()) if path.exists() else {}
    results["runstore"] = section
    path.write_text(json.dumps(results, indent=2) + "\n")


def test_ablation_incremental_apply_beats_rebuild(tmp_path):
    """Acceptance gate for DRed incremental maintenance (DESIGN.md §13).

    LUBM(8), closed in a ``MaterializedKB(engine="columnar")``.  For
    each removal-batch size: retract the batch via ``apply()``
    (delete-and-rederive), time it, then re-add it — which must land
    back on the identical closure (the delete-then-readd differential).
    The baseline is the full re-closure ``rebuild()`` the README used
    to prescribe for any retraction.  Gate: apply beats rebuild for
    small batches.  Records updates/sec per batch size and the measured
    crossover (the first batch size where overdeletion's cone is no
    cheaper than re-closing) into the ``incremental`` section of
    ``BENCH_core.json``.
    """
    import random

    from repro.datasets import LUBM
    from repro.owl.kb import MaterializedKB

    lubm = LUBM(8, seed=0)
    kb = MaterializedKB(lubm.ontology, engine="columnar")
    kb.bulk_load(lubm.data)
    original = len(kb)

    rebuild_best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kb.rebuild()
        rebuild_best = min(rebuild_best, time.perf_counter() - t0)
    assert len(kb) == original

    rng = random.Random(0)
    pool = list(kb.base_graph)
    sweep = []
    for size in (1, 4, 16, 64, 256):
        batch = rng.sample(pool, size)
        t0 = time.perf_counter()
        kb.apply(removes=batch)
        apply_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        kb.apply(adds=batch)
        restore_seconds = time.perf_counter() - t0
        assert len(kb) == original  # delete-then-readd round-trip
        sweep.append({
            "batch": size,
            "apply_seconds": round(apply_seconds, 6),
            "restore_seconds": round(restore_seconds, 6),
            "updates_per_sec": round(size / apply_seconds),
            "speedup_vs_rebuild": round(rebuild_best / apply_seconds, 2),
        })

    crossover = next(
        (r["batch"] for r in sweep
         if r["apply_seconds"] >= rebuild_best),
        None,
    )
    section = {
        "dataset": "LUBM(8)",
        "closure_triples": original,
        "rebuild_seconds": round(rebuild_best, 6),
        "sweep": sweep,
        #: None means apply won at every measured size.
        "crossover_batch": crossover,
    }
    path = _core_results_path(tmp_path)
    results = json.loads(path.read_text()) if path.exists() else {}
    results["incremental"] = section
    path.write_text(json.dumps(results, indent=2) + "\n")

    # The gate: maintaining the closure under a small retraction batch
    # must beat re-closing from scratch.
    for r in sweep:
        if r["batch"] <= 16:
            assert r["apply_seconds"] < rebuild_best, (r, rebuild_best)


def test_bench_forward_materialization(benchmark, lubm_tiny):
    reasoner = HorstReasoner(lubm_tiny.ontology)
    result = benchmark.pedantic(
        lambda: reasoner.materialize(lubm_tiny.data, strategy="forward"),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["work"] = result.work


def test_bench_backward_materialization(benchmark, lubm_tiny):
    reasoner = HorstReasoner(lubm_tiny.ontology)
    result = benchmark.pedantic(
        lambda: reasoner.materialize(lubm_tiny.data, strategy="backward"),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["work"] = result.work


def test_ablation_backward_costs_more_than_forward(lubm_tiny):
    """The whole premise of the super-linear speedup: the Jena-style driver
    does far more work than bottom-up evaluation for the same closure."""
    reasoner = HorstReasoner(lubm_tiny.ontology)
    fwd = reasoner.materialize(lubm_tiny.data, strategy="forward")
    bwd = reasoner.materialize(lubm_tiny.data, strategy="backward")
    assert fwd.graph == bwd.graph
    assert bwd.work > 5 * fwd.work


def test_ablation_shared_tables_amortize(lubm_tiny):
    """share_tables=True (one engine across per-resource queries) can only
    reduce proof work.  The measured saving is small: with SCC-scoped
    completion, per-resource proof trees barely overlap — evidence that
    the materialization cost really is per-resource (the polynomial regime
    Section VI describes), not an artifact of redundant sub-proofs."""
    reasoner = HorstReasoner(lubm_tiny.ontology)
    _, fresh = materialize_backward(
        lubm_tiny.data, reasoner.rules, candidate_probing=False
    )
    _, shared = materialize_backward(
        lubm_tiny.data, reasoner.rules, share_tables=True,
        candidate_probing=False,
    )
    assert shared.goals_expanded <= fresh.goals_expanded
