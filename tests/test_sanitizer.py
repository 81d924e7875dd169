"""The runtime sanitizer layer (repro.analysis.sanitize).

Covers the three surfaces the issue names:

* corrupted store state raises a *typed* :class:`SanitizerError` naming
  the store and the violated invariant;
* the cluster-level checks (stripe disjointness, Safra ledger
  conservation) pass on healthy runs and fire on injected violations;
* the opt-in plumbing — ``REPRO_SANITIZE=1`` or ``sanitize=True`` — swaps
  sanitized stores into the engine/worker paths without changing results.
"""

import numpy as np
import pytest

from repro.analysis.sanitize import (
    SanitizedIdGraph,
    SanitizedRunStore,
    SanitizerError,
    check_ledger,
    check_stripe_disjointness,
)
from repro.parallel.termination import CountingTermination
from repro.rdf.dictionary import PartitionDictionary, TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.idstore import IdGraph
from repro.rdf.runstore import RunStore
from repro.rdf.stores import make_store, sanitize_enabled
from repro.rdf.terms import URI
from repro.rdf.triple import Triple


def _cols(rows):
    a = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    return a[:, 0].copy(), a[:, 1].copy(), a[:, 2].copy()


ROWS = [(i, 7, i * 2 + 1) for i in range(50)]


# -- SanitizedIdGraph ---------------------------------------------------------


def test_sanitized_idgraph_clean_path_matches_plain():
    plain, san = IdGraph(), SanitizedIdGraph(label="test", sample_rate=1.0)
    s, p, o = _cols(ROWS)
    plain.add_rows(s, p, o)
    san.add_rows(s, p, o)
    assert len(san) == len(plain)
    pk, _ = plain.sorted_view((0, 1, 2))
    sk, _ = san.sorted_view((0, 1, 2))
    assert np.array_equal(pk, sk)
    san.delete_rows(*_cols(ROWS[:10]))
    assert len(san) == 40
    san.verify()


def _corrupt_view(g, edit):
    """Replace the cached (s, p, o) view by ``edit(keys, perm, covered)``."""
    key = ("view", (0, 1, 2))
    stamp, view = g._derived[key]
    g._derived[key] = (stamp, edit(*view))


def test_sanitized_idgraph_catches_corrupted_sorted_view():
    g = SanitizedIdGraph(label="mirror", sample_rate=1.0)
    g.add_rows(*_cols(ROWS))
    g.sorted_view((0, 1, 2))  # populate the cache
    _corrupt_view(g, lambda keys, perm, cov: (keys[::-1].copy(), perm, cov))
    with pytest.raises(SanitizerError) as exc_info:
        g.verify()
    err = exc_info.value
    assert err.store == "mirror"
    assert err.invariant == "sorted-view-monotonic"
    assert "mirror" in str(err) and "sorted-view-monotonic" in str(err)


def test_sanitized_idgraph_catches_corrupted_permutation():
    g = SanitizedIdGraph(label="mirror", sample_rate=1.0)
    g.add_rows(*_cols(ROWS))
    g.sorted_view((0, 1, 2))

    def duplicate_entry(keys, perm, cov):  # no longer a bijection
        bad = perm.copy()
        bad[0] = bad[1]
        return keys, bad, cov

    _corrupt_view(g, duplicate_entry)
    with pytest.raises(SanitizerError) as exc_info:
        g.verify()
    assert exc_info.value.invariant == "sorted-view-permutation"


def test_sanitized_idgraph_catches_coverage_overrun():
    g = SanitizedIdGraph(label="mirror", sample_rate=1.0)
    g.add_rows(*_cols(ROWS))
    g.sorted_view((0, 1, 2))
    _corrupt_view(g, lambda keys, perm, cov: (keys, perm, cov + 5))
    with pytest.raises(SanitizerError) as exc_info:
        g.verify()
    assert exc_info.value.invariant in (
        "sorted-view-permutation", "sorted-view-coverage"
    )


# -- SanitizedRunStore --------------------------------------------------------


def test_sanitized_runstore_clean_lifecycle():
    store = SanitizedRunStore(tail_rows=16, label="runs", sample_rate=1.0)
    s, p, o = _cols(ROWS)
    store.add_rows(s, p, o)  # spans several seals at tail_rows=16
    assert len(store) == len(ROWS)
    assert bool(store.contains_rows(*_cols(ROWS[:5])).all())
    # Delete sealed rows (tombstones), then resurrect them.
    store.delete_rows(*_cols(ROWS[:8]))
    assert len(store) == len(ROWS) - 8
    store.add_rows(*_cols(ROWS[:8]))
    assert len(store) == len(ROWS)
    store.verify()


def test_sanitized_runstore_catches_sample_drift():
    store = SanitizedRunStore(tail_rows=16, label="runs", sample_rate=1.0)
    store.add_rows(*_cols(ROWS))
    assert store._runs, "test needs at least one sealed run"
    idx = store._runs[0].canonical
    idx.samples[0] = (999999, 0, 0)
    with pytest.raises(SanitizerError) as exc_info:
        store.verify()
    err = exc_info.value
    assert err.store == "runs"
    assert err.invariant == "run-sample-drift"


def test_sanitized_runstore_catches_rogue_tombstone():
    store = SanitizedRunStore(tail_rows=16, label="runs", sample_rate=1.0)
    store.add_rows(*_cols(ROWS))
    # A tombstone for a key that was never sealed is an orphan.
    ghost = np.asarray([123456], dtype=np.int64)
    store._tombs.add_rows(ghost, ghost, ghost)
    with pytest.raises(SanitizerError) as exc_info:
        store.verify()
    assert exc_info.value.invariant == "tombstone-orphan"


# -- cluster checks: stripes and the ledger -----------------------------------


def _base_dictionary():
    base = TermDictionary()
    base.encode(URI("ex:a"))
    base.encode(URI("ex:b"))
    return base


def test_stripe_disjointness_passes_for_distinct_stripes():
    base = _base_dictionary()
    dicts = [PartitionDictionary(base, i, 2) for i in range(2)]
    dicts[0].encode(URI("ex:minted0"))
    dicts[1].encode(URI("ex:minted1"))
    check_stripe_disjointness(dicts)


def test_stripe_disjointness_catches_shared_stripe():
    base = _base_dictionary()
    dicts = [PartitionDictionary(base, 0, 2), PartitionDictionary(base, 0, 2)]
    dicts[0].encode(URI("ex:minted0"))
    dicts[1].encode(URI("ex:minted1"))
    with pytest.raises(SanitizerError) as exc_info:
        check_stripe_disjointness(dicts)
    assert exc_info.value.invariant == "stripe-disjoint"


def test_stripe_disjointness_catches_bad_config():
    base = _base_dictionary()
    d = PartitionDictionary(base, 1, 2)
    d.node_id = 5  # outside [0, k)
    with pytest.raises(SanitizerError) as exc_info:
        check_stripe_disjointness([d])
    assert exc_info.value.invariant == "stripe-config"


def test_ledger_conservation_passes_at_quiescence():
    det = CountingTermination(2)
    det.mark_bootstrapped(0)
    det.mark_bootstrapped(1)
    det.record_forward(1)
    det.record_ack(1, consumed=1)
    check_ledger(det)


def test_ledger_conservation_catches_in_flight_messages():
    det = CountingTermination(2)
    det.mark_bootstrapped(0)
    det.mark_bootstrapped(1)
    det.record_forward(0)  # forwarded, never acknowledged
    with pytest.raises(SanitizerError) as exc_info:
        check_ledger(det)
    assert exc_info.value.invariant == "ledger-conservation"


def test_ledger_catches_overcounted_consumption():
    det = CountingTermination(2)
    det.mark_bootstrapped(0)
    det.mark_bootstrapped(1)
    det.record_delivery(0)  # consumed with nothing forwarded
    with pytest.raises(SanitizerError) as exc_info:
        check_ledger(det)
    assert exc_info.value.invariant == "ledger-negative"


# -- opt-in plumbing ----------------------------------------------------------


def test_sanitize_enabled_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert sanitize_enabled(None) is False
    assert sanitize_enabled(True) is True
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_enabled(None) is True
    assert sanitize_enabled(False) is False  # explicit beats the env
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert sanitize_enabled(None) is False


def test_make_store_picks_store_kind(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert isinstance(
        make_store("run", sanitize=True, label="t"), SanitizedRunStore)
    dense = make_store("dense", capacity=8, sanitize=True, label="t")
    assert isinstance(dense, SanitizedIdGraph)
    assert not isinstance(dense, SanitizedRunStore)
    # One factory for all four corners: unsanitized stores are the plain
    # classes, a budget implies the run store, junk is rejected once.
    assert type(make_store(None)) is IdGraph
    assert type(make_store(None, memory_budget_bytes=1 << 20)) is RunStore
    with pytest.raises(ValueError, match="dense"):
        make_store("holographic")


def test_engine_env_gating_swaps_store(monkeypatch):
    from repro.datalog.engine import SemiNaiveEngine

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    eng = SemiNaiveEngine([])
    assert not isinstance(eng._make_store(), SanitizedIdGraph)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert isinstance(eng._make_store(), SanitizedIdGraph)
    # Explicit opt-out wins over the env.
    eng_off = SemiNaiveEngine([], sanitize=False)
    assert not isinstance(eng_off._make_store(), SanitizedIdGraph)


def _chain_inputs():
    from repro.owl.vocabulary import OWL, RDF

    tbox = Graph()
    tbox.add_spo(URI("ex:partOf"), RDF.type, OWL.TransitiveProperty)
    data = Graph()
    for i in range(20):
        data.add(Triple(URI(f"ex:n{i}"), URI("ex:partOf"), URI(f"ex:n{i+1}")))
    return tbox, data


def test_async_run_sanitized_matches_unsanitized():
    from repro.parallel.driver import ParallelReasoner

    tbox, data = _chain_inputs()
    plain = ParallelReasoner(tbox, k=2)
    checked = ParallelReasoner(tbox, k=2, sanitize=True)
    assert set(plain.materialize_async(data).graph) == set(
        checked.materialize_async(data).graph
    )


def test_apply_async_sanitized_matches_unsanitized():
    from repro.parallel.driver import ParallelReasoner

    tbox, data = _chain_inputs()
    adds = [Triple(URI("ex:x"), URI("ex:partOf"), URI("ex:n0"))]
    removes = [Triple(URI("ex:n0"), URI("ex:partOf"), URI("ex:n1"))]
    plain = ParallelReasoner(tbox, k=2)
    checked = ParallelReasoner(tbox, k=2, sanitize=True)
    assert set(plain.apply_async(data, adds=adds, removes=removes).graph) == (
        set(checked.apply_async(data, adds=adds, removes=removes).graph)
    )


def test_materialized_kb_accepts_sanitize_flag():
    from repro.owl.kb import MaterializedKB
    from repro.owl.vocabulary import OWL, RDF

    tbox = Graph()
    tbox.add_spo(URI("ex:partOf"), RDF.type, OWL.TransitiveProperty)
    kb = MaterializedKB(tbox, sanitize=True)
    assert isinstance(kb.id_store, SanitizedIdGraph)
    kb.add([Triple(URI("ex:a"), URI("ex:partOf"), URI("ex:b")),
            Triple(URI("ex:b"), URI("ex:partOf"), URI("ex:c"))])
    assert Triple(URI("ex:a"), URI("ex:partOf"), URI("ex:c")) in kb
