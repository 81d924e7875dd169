"""``MaterializedKB`` on the id-native spine: the id store *is* the KB.

What the KB owns is ``(dictionary, closure id store, base IdGraph,
ColumnarEngine)``; term ``Graph``s are decoded views.  These tests pin
the contracts that follow from that: the query index is the live store
(never a copy), term views are version-keyed snapshots, reads never mint
dictionary ids, the base bookkeeping matches a term-set model, and a
parallel-loaded KB maintains like a serial one — over both store kinds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.ast import Atom
from repro.owl.kb import MaterializedKB
from repro.owl.vocabulary import OWL, RDF, RDFS
from repro.rdf import Graph, Triple, URI
from repro.rdf.runstore import RunStore
from repro.rdf.terms import Variable

X, Y = Variable("x"), Variable("y")
PART_OF = URI("ex:partOf")

STORES = [dict(store="dense"), dict(store="run")]


def _tbox() -> Graph:
    t = Graph()
    t.add_spo(PART_OF, RDF.type, OWL.TransitiveProperty)
    t.add_spo(URI("ex:Student"), RDFS.subClassOf, URI("ex:Person"))
    return t


def edge(i: int, j: int) -> Triple:
    return Triple(URI(f"n:{i}"), PART_OF, URI(f"n:{j}"))


def chain(n: int) -> list[Triple]:
    return [edge(i, i + 1) for i in range(n)]


@pytest.fixture(params=STORES, ids=["dense", "run"])
def kb(request) -> MaterializedKB:
    return MaterializedKB(_tbox(), **request.param)


# --- the index is the store ---------------------------------------------------


def test_id_index_is_the_live_store_across_writes(kb):
    index = kb.id_index()
    pattern = [Atom(X, PART_OF, Y)]

    def check_live():
        dictionary, store = index.current()
        assert dictionary is kb.dictionary
        assert store is kb.id_store
        assert kb.id_index() is index
        return dictionary, store

    before = check_live()
    kb.add(chain(3))
    assert check_live() == before  # same objects: nothing was rebuilt
    assert index.count(pattern) == 6  # the read sees the write
    kb.apply(adds=[edge(3, 4)], removes=[edge(0, 1)])
    assert check_live() == before
    assert index.count(pattern) == 6  # chain 1-2-3-4
    kb.rebuild()  # the one write that swaps the store
    dictionary, store = check_live()
    assert dictionary is before[0] and store is not before[1]
    assert index.count(pattern) == 6
    # The frozen benchmark harness reads the store through this spelling.
    assert kb._engine._mirror is kb.id_store


def test_term_graphs_are_version_keyed_snapshots(kb):
    kb.add(chain(2))
    held, held_base = kb.graph, kb.base_graph
    assert kb.graph is held and kb.base_graph is held_base  # no write between
    kb.apply(adds=[edge(2, 3)])
    assert len(held) == 3 and len(held_base) == 2  # held views did not move
    assert kb.graph is not held and len(kb.graph) == 6
    assert kb.base_graph is not held_base and len(kb.base_graph) == 3
    fresh = kb.graph
    kb.rebuild()
    assert kb.graph is not fresh and kb.graph == fresh


# --- reads never mint ----------------------------------------------------------


def test_reads_and_junk_removals_do_not_mint_ids(kb):
    kb.add(chain(3))
    ghost = URI("n:never-seen")
    junk = Triple(ghost, URI("ex:unknownProperty"), URI("n:also-unseen"))
    before = len(kb.dictionary)
    assert junk not in kb
    assert list(kb.match(s=ghost)) == []
    assert list(kb.match(p=URI("ex:unknownProperty"))) == []
    assert list(kb.query([Atom(ghost, PART_OF, X)])) == []
    assert not kb.ask([Atom(X, URI("ex:unknownProperty"), Y)])
    assert kb.id_index().count([Atom(X, PART_OF, ghost)]) == 0
    result = kb.apply(removes=[junk, Triple(ghost, PART_OF, URI("n:1"))])
    assert len(result.removed) == 0 and len(result.added) == 0
    assert len(kb.dictionary) == before
    assert kb.size == 6


def test_match_and_iter_decode_the_store(kb):
    kb.add(chain(3))
    assert set(kb) == set(kb.graph) and len(set(kb)) == 6
    assert set(kb.match(s=URI("n:0"))) == {edge(0, 1), edge(0, 2), edge(0, 3)}
    assert set(kb.match(o=URI("n:3"), p=PART_OF)) == {
        edge(0, 3), edge(1, 3), edge(2, 3)}
    assert list(kb.match(URI("n:0"), PART_OF, URI("n:3"))) == [edge(0, 3)]
    assert list(kb.match(URI("n:3"), PART_OF, URI("n:0"))) == []


# --- construction --------------------------------------------------------------


def test_term_engines_are_rejected_by_name():
    for engine in ("compiled", "generic", "holographic"):
        with pytest.raises(ValueError, match="SemiNaiveEngine"):
            MaterializedKB(_tbox(), engine=engine)
    assert MaterializedKB(_tbox(), engine="columnar").size == 0
    with pytest.raises(ValueError, match="dense"):
        MaterializedKB(_tbox(), store="holographic")
    # A budget implies the run store, as everywhere else.
    budgeted = MaterializedKB(_tbox(), memory_budget_bytes=1 << 20)
    assert isinstance(budgeted.id_store, RunStore)


def test_non_triple_input_is_rejected(kb):
    with pytest.raises(TypeError, match="Triple"):
        kb.add([("n:0", "ex:partOf", "n:1")])  # type: ignore[list-item]
    with pytest.raises(TypeError, match="Triple"):
        kb.apply(removes=["junk"])  # type: ignore[list-item]
    assert kb.size == 0 and kb.base_size == 0


# --- base bookkeeping against a term-set model ----------------------------------

_edges = st.builds(edge, st.integers(0, 6), st.integers(0, 6))


@pytest.mark.parametrize("config", STORES, ids=["dense", "run"])
@settings(max_examples=25, deadline=None)
@given(batches=st.lists(
    st.tuples(st.sampled_from(["add", "apply"]),
              st.lists(_edges, max_size=6), st.lists(_edges, max_size=3)),
    min_size=1, max_size=6))
def test_base_bookkeeping_matches_a_term_set_model(config, batches):
    """``add``'s return value, ``base_size`` and ``base_graph`` follow a
    plain set of triples under duplicate and overlapping input; the
    closure follows a from-scratch KB over that set."""
    kb = MaterializedKB(_tbox(), **config)
    model: set[Triple] = set()
    for verb, adds, removes in batches:
        if verb == "add":
            doubled = adds + adds  # duplicates inside one batch
            assert kb.add(doubled) == len(set(adds) - model)
            model |= set(adds)
        else:
            kb.apply(adds=adds, removes=removes + removes)
            model = (model - set(removes)) | set(adds)
        assert kb.base_size == len(model)
        assert set(kb.base_graph) == model
    oracle = MaterializedKB(_tbox(), **config)
    oracle.add(model)
    assert kb.graph == oracle.graph
    assert kb.inferred_size == oracle.inferred_size


# --- parallel load, then maintenance ---------------------------------------------


@pytest.mark.parametrize("config", STORES, ids=["dense", "run"])
@pytest.mark.parametrize("backend", ["bsp", "async"])
def test_parallel_loaded_kb_maintains_like_a_serial_one(config, backend):
    data = Graph(chain(8))
    data.add_spo(URI("n:0"), RDF.type, URI("ex:Student"))
    history = [
        dict(removes=[edge(3, 4)]),
        dict(adds=[edge(3, 4), edge(8, 9)], removes=[edge(0, 1)]),
    ]
    parallel = MaterializedKB(_tbox(), **config)
    parallel.bulk_load(data, parallel_k=3, backend=backend)
    # Rows in, rows kept: the load never decoded the run's term union, and
    # took the ids into its own dictionary (the workers stay on theirs).
    run = parallel.last_parallel_run
    assert run._view._graph is None
    assert parallel.dictionary is not run.dictionary
    serial = MaterializedKB(_tbox(), **config)
    serial.bulk_load(data)
    assert parallel.graph == serial.graph
    assert parallel.base_graph == serial.base_graph
    for step in history:
        got = parallel.apply(**step)
        want = serial.apply(**step)
        assert got.added == want.added and got.removed == want.removed
        assert parallel.graph == serial.graph
    # A plain add after DRed composes with it (no stale rows resurface).
    assert parallel.add([edge(0, 1)]) == serial.add([edge(0, 1)]) == 1
    assert parallel.graph == serial.graph
    serial.rebuild()
    assert parallel.graph == serial.graph


# --- production does not import the verifier ---------------------------------------

_IMPORT_PROBE = """
import sys
import repro.owl.kb
from repro.datasets import LUBM
from repro.owl import MaterializedKB

ds = LUBM(1, seed=0, departments_per_university=1,
          faculty_per_department=1, students_per_faculty=1)
serial = MaterializedKB(ds.ontology)
serial.bulk_load(ds.data)
parallel = MaterializedKB(ds.ontology)
parallel.bulk_load(ds.data, parallel_k=2)
assert parallel.size == serial.size > 0
print(sorted(m for m in sys.modules if m.startswith("repro.analysis")))
"""


def test_loads_do_not_import_the_analysis_package():
    """With sanitizing off, a serial and a parallel load build their
    stores through `repro.rdf.stores.make_store` without pulling the
    3.4K-line `repro.analysis` verifier package in."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
