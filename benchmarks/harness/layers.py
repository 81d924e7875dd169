"""The serial stage replay and the per-layer probes of the traced pass.

Everything here drives the program through public functions only.  The
*replay* closes a workload's input stage by stage (encode → id store →
columnar fixpoint → decode) and doubles as the output oracle: its closure
digest and exact work counters are what every workload's product is
checked against.  The *probes* are kernel micro-benches run on that closed
store, so each layer's number is taken on the workload's own data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.datalog.ast import Atom
from repro.datalog.columnar import ColumnarEngine
from repro.datalog.incremental import dred_id
from repro.datasets.lubm import UB, LUBMGenerator
from repro.datasets.lubm_queries import LUBM_QUERIES
from repro.owl.compiler import compile_ontology
from repro.owl.kb import MaterializedKB
from repro.owl.vocabulary import RDF
from repro.rdf.dictionary import EncodedGraph, TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.idquery import join_pattern
from repro.rdf.idstore import IdGraph, expand_ranges, pack_columns
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.runstore import RunStore
from repro.rdf.terms import Variable
from repro.rdf.triple import Triple

from .common import Check, Metric, Metrics, graph_digest, median, rate
from .spans import Recorder

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY3 = (_EMPTY, _EMPTY, _EMPTY)

#: Queries per kernel micro-bench batch (capped by the store's size, so
#: the smoke scale stays quick) and repeats per micro-bench.
_PROBE_BATCH = 20_000
_REPEATS = 5
#: Passes over the input stages, the entry point and its replay.
_STAGE_PASSES = 3


def run_budget_bytes(n: int) -> int:
    """The memory budget of the run-store closure, scaled with the input
    so the store spills at every scale: ≈8 B per closure triple (LUBM(n)
    closes to ≈1,440 triples per university), floored where the decode
    cache's fixed 64 KiB minimum would otherwise exceed the budget."""
    return max(150_000, 11_500 * n)


def fresh_student(serial: int, university: int = 0, department: int = 0,
                  course: int = 0) -> list[Triple]:
    """The three triples of one new undergraduate — the unit of every
    write in the benchmark (it derives ≈5 further closure triples)."""
    entity = LUBMGenerator.entity_uri
    dept = f"Department{department}"
    student = entity(university, f"{dept}/BenchStudent{serial}")
    return [
        Triple(student, RDF.type, UB.UndergraduateStudent),
        Triple(student, UB.memberOf, entity(university, dept)),
        Triple(student, UB.takesCourse,
               entity(university, f"{dept}/Course{course}_0")),
    ]


@dataclass
class Replay:
    """A serial closure built stage by stage through public functions."""

    dictionary: TermDictionary
    store: IdGraph
    engine: ColumnarEngine
    base: tuple[np.ndarray, np.ndarray, np.ndarray]
    inferred: tuple[np.ndarray, np.ndarray, np.ndarray]
    join_probes: int
    firings: int
    derived: int
    iterations: int
    rules_dispatched: int
    #: Seconds of the stages: "encode", "add_rows", "fixpoint".
    seconds: dict[str, float] = field(default_factory=dict)

    def counters(self) -> tuple[int, int, int]:
        return self.join_probes, self.firings, self.derived

    def digest(self) -> str:
        decode = self.dictionary.decode_many
        s, p, o = self.store.columns()
        return graph_digest(zip(decode(s), decode(p), decode(o)))


def replay_closure(graph: Graph, rules: list, rec: Recorder) -> Replay:
    """Close ``graph`` under ``rules`` in id space: ``EncodedGraph.
    from_triples`` → ``IdGraph.add_rows`` → ``ColumnarEngine.run``."""
    seconds: dict[str, float] = {}
    t0 = time.perf_counter()
    with rec.span("rdf.dictionary.EncodedGraph.from_triples",
                  triples=len(graph)):
        encoded = EncodedGraph.from_triples(graph)
    seconds["encode"] = time.perf_counter() - t0

    base = (encoded.s_ids, encoded.p_ids, encoded.o_ids)
    store = IdGraph(capacity=len(encoded))
    t0 = time.perf_counter()
    with rec.span("rdf.idstore.IdGraph.add_rows", rows=len(encoded)):
        store.add_rows(*base)
    seconds["add_rows"] = time.perf_counter() - t0

    engine = ColumnarEngine(rules, encoded.dictionary)
    t0 = time.perf_counter()
    with rec.span("datalog.columnar.ColumnarEngine.run") as counts:
        fixpoint = engine.run(store)
        counts["derived"] = fixpoint.stats.derived
    seconds["fixpoint"] = time.perf_counter() - t0

    stats = fixpoint.stats
    return Replay(
        dictionary=encoded.dictionary, store=store, engine=engine,
        base=base, inferred=fixpoint.inferred,
        join_probes=stats.join_probes, firings=stats.firings,
        derived=stats.derived, iterations=stats.iterations,
        rules_dispatched=stats.rules_dispatched, seconds=seconds)


def _best(fn, repeats: int = _REPEATS, fresh=None) -> float:
    """Median seconds of ``fn`` over a few repeats (micro-benches).  With
    ``fresh``, each repeat gets its own untimed ``fresh()`` argument — for
    kernels that consume or mutate their input."""
    times = []
    for _ in range(repeats):
        args = () if fresh is None else (fresh(),)
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return median(times)


def _copy_store(store: IdGraph) -> IdGraph:
    copy = IdGraph(capacity=len(store))
    copy.add_rows(*store.columns())
    return copy


def probe_layers(text: str, ontology: Graph, n: int, seed: int,
                 rec: Recorder) -> tuple[Metrics, list[Check]]:
    """The traced pass's common suite on one workload's input: the stage
    replay against the ``MaterializedKB.bulk_load`` entry point, then
    kernel micro-benches on the closed store.  Returns the per-layer
    metrics and the replay's output checks."""
    m: Metrics = {}
    checks: list[Check] = []
    rng = np.random.default_rng(seed)

    # -- input stages, the entry point, and its stage replay ----------------
    # Each pass is one sample per stage; the medians are reported, because
    # a single generation-2 GC pause is as long as some of these stages.
    stage_s: dict[str, list[float]] = {}

    def stage(name: str, span: str, fn, **counts: float):
        t0 = time.perf_counter()
        with rec.span(span, **counts):
            out = fn()
        stage_s.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    def write_back() -> Graph:
        decode = replay.dictionary.decode_many
        out = Graph(graph)
        for s, p, o in zip(*(decode(col) for col in replay.inferred)):
            out.add(Triple(s, p, o))
        return out

    for _ in range(_STAGE_PASSES):
        triples = stage("parse", "rdf.ntriples.parse_ntriples",
                        lambda: list(parse_ntriples(text)), bytes=len(text))
        graph = stage("graph", "rdf.graph.Graph", lambda: Graph(triples),
                      triples=len(triples))
        compiled = stage("compile", "owl.compiler.compile_ontology",
                         lambda: compile_ontology(ontology))
        kb = MaterializedKB(ontology, engine="columnar")
        stage("bulk_load", "owl.kb.MaterializedKB.bulk_load",
              lambda: kb.bulk_load(graph), base=len(graph))
        with rec.span("replay"):
            replay = replay_closure(graph, compiled.rules, rec)
            closed = stage("writeback", "rdf.graph.writeback", write_back,
                           rows=replay.derived)
        for name, seconds in replay.seconds.items():
            stage_s.setdefault(name, []).append(seconds)
    t = {name: median(samples) for name, samples in stage_s.items()}

    stats = kb.total_stats
    checks.append(Check(
        "replay closure equals MaterializedKB.bulk_load closure",
        closed == kb.graph, f"{len(closed)} vs {kb.size} triples"))
    checks.append(Check(
        "replay work counters equal the entry point's",
        replay.counters() == (stats.join_probes, stats.firings,
                              stats.derived),
        f"{replay.counters()}"))

    def seconds(name: str) -> Metric:
        return Metric(t[name], "s", _STAGE_PASSES)

    staged = (t["encode"] + t["add_rows"] + t["fixpoint"] + t["writeback"])
    m["rdf.ntriples.parse_s"] = seconds("parse")
    m["rdf.ntriples.triples_per_s"] = Metric(
        rate(len(triples), t["parse"]), "1/s")
    m["rdf.graph.build_s"] = seconds("graph")
    m["owl.compiler.compile_s"] = seconds("compile")
    m["owl.compiler.rules"] = Metric(len(compiled.rules), "count")
    m["owl.kb.bulk_load_s"] = seconds("bulk_load")
    m["owl.kb.glue_s"] = Metric(t["bulk_load"] - staged, "s", _STAGE_PASSES)
    m["owl.kb.glue_share"] = Metric(
        (t["bulk_load"] - staged) / t["bulk_load"], "share")
    m["rdf.dictionary.encode_s"] = seconds("encode")
    m["rdf.idstore.add_rows_rows_per_s"] = Metric(
        rate(len(graph), t["add_rows"]), "1/s")
    m["datalog.columnar.fixpoint_s"] = seconds("fixpoint")
    for name in ("join_probes", "firings", "derived", "iterations",
                 "rules_dispatched"):
        m[f"datalog.columnar.{name}"] = Metric(getattr(replay, name), "count")
    m["rdf.graph.writeback_s"] = seconds("writeback")

    # -- dictionary -------------------------------------------------------
    terms = [term for t in triples for term in (t.s, t.p, t.o)]
    with rec.span("rdf.dictionary.encode_many", terms=len(terms)):
        encode_s = _best(lambda: TermDictionary().encode_many(terms), 3)
    m["rdf.dictionary.encode_many_terms_per_s"] = Metric(
        rate(len(terms), encode_s), "1/s")
    store = replay.store
    ids = np.concatenate(store.columns())
    with rec.span("rdf.dictionary.decode_many", ids=len(ids)):
        decode_s = _best(lambda: replay.dictionary.decode_many(ids), 3)
    m["rdf.dictionary.decode_many_ids_per_s"] = Metric(
        rate(len(ids), decode_s), "1/s")

    # -- dense id store kernels, on the closed store -----------------------
    s_col, p_col, o_col = (col.copy() for col in store.columns())
    # Probe keys are the (s, p) of rows drawn from the store: every probe
    # hits, and matches a handful of rows (one entity's values for one
    # property) — the shape of the joins' and lookups' probes.
    batch = min(_PROBE_BATCH, len(store))
    pick = rng.integers(0, len(store), size=batch)
    sp_keys = pack_columns((s_col[pick], p_col[pick]))
    with rec.span("rdf.idstore.kernels", rows=len(store)):
        m["rdf.idstore.sorted_view_build_s"] = Metric(_best(
            lambda copy: copy.sorted_view((0, 1)),
            fresh=lambda: _copy_store(store)), "s")
        store.range_lookup((0, 1), sp_keys)  # build the view once
        lookup_s = _best(lambda: store.range_lookup((0, 1), sp_keys))
        m["rdf.idstore.range_lookup_probes_per_s"] = Metric(
            rate(batch, lookup_s), "1/s")
        keys, _perm = store.sorted_view((0, 1))
        lo = np.searchsorted(keys, sp_keys, side="left")
        hi = np.searchsorted(keys, sp_keys, side="right")
        expand_s = _best(lambda: expand_ranges(lo, hi))
        m["rdf.idstore.expand_ranges_rows_per_s"] = Metric(
            rate(int((hi - lo).sum()), expand_s), "1/s")
        # Half present, half perturbed (absent with near certainty).
        q_o = o_col[pick].copy()
        q_o[::2] += 1
        contains_s = _best(
            lambda: store.contains_rows(s_col[pick], p_col[pick], q_o))
        m["rdf.idstore.contains_rows_rows_per_s"] = Metric(
            rate(batch, contains_s), "1/s")
        doomed = rng.choice(len(store), size=max(1, len(store) // 100),
                            replace=False)

        m["rdf.idstore.delete_rows_s"] = Metric(_best(
            lambda copy: copy.delete_rows(
                s_col[doomed], p_col[doomed], o_col[doomed]),
            fresh=lambda: _copy_store(store)), "s")
        m["rdf.idstore.memory_bytes"] = Metric(store.memory_bytes(), "B")

    # -- run store: the same closure under the memory budget ---------------
    budget = run_budget_bytes(n)
    run_store = RunStore(memory_budget_bytes=budget)
    run_store.add_rows(*replay.base)
    t0 = time.perf_counter()
    with rec.span("rdf.runstore.fixpoint", budget=budget):
        run_stats = ColumnarEngine(
            compiled.rules, replay.dictionary).run(run_store).stats
    m["rdf.runstore.fixpoint_s"] = Metric(time.perf_counter() - t0, "s")
    with rec.span("rdf.runstore.probe", probes=batch):
        probe_s = _best(lambda: run_store.probe(
            (0, 1), (s_col[pick], p_col[pick])))
    m["rdf.runstore.probe_probes_per_s"] = Metric(
        rate(batch, probe_s), "1/s")
    store_stats = run_store.store_stats()
    for name in ("seals", "merges", "spills"):
        m[f"rdf.runstore.{name}"] = Metric(store_stats[name], "count")
    for name in ("in_ram_bytes", "payload_bytes", "cache_bytes_used"):
        m[f"rdf.runstore.{name}"] = Metric(store_stats[name], "B")
    checks.append(Check(
        "run-store closure has the dense closure's rows and counters",
        len(run_store) == len(store)
        and (run_stats.join_probes, run_stats.firings, run_stats.derived)
        == replay.counters(),
        f"{len(run_store)} vs {len(store)} rows"))

    # -- incremental maintenance, direct on a copy of the id store ---------
    scratch = _copy_store(store)
    asserted = IdGraph(capacity=len(graph))
    asserted.add_rows(*replay.base)
    encode = replay.dictionary.encode
    add_s, remove_s = [], []
    with rec.span("datalog.incremental.dred_id", cycles=_REPEATS):
        for serial in range(_REPEATS):
            batch = fresh_student(10_000_000 + serial)
            rows = tuple(
                np.asarray([encode(getattr(t, pos)) for t in batch],
                           dtype=np.int64) for pos in "spo")
            with_batch = _copy_store(asserted)
            with_batch.add_rows(*rows)
            t0 = time.perf_counter()
            dred_id(replay.engine, scratch, rows, _EMPTY3, with_batch)
            add_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            dred_id(replay.engine, scratch, _EMPTY3, rows, asserted)
            remove_s.append(time.perf_counter() - t0)
    m["datalog.incremental.dred_id_add_s"] = Metric(
        median(add_s), "s", len(add_s))
    m["datalog.incremental.dred_id_remove_s"] = Metric(
        median(remove_s), "s", len(remove_s))
    checks.append(Check(
        "dred_id add+remove cycles restore the closed store",
        len(scratch) == len(store), f"{len(scratch)} vs {len(store)} rows"))

    # -- the read path: mirror build, SPARQL parse, the 14-query battery ---
    index = kb.id_index()
    t0 = time.perf_counter()
    with rec.span("rdf.idquery.IdIndex.current", triples=kb.size):
        mirror_dictionary, mirror = index.current()
    m["rdf.idquery.mirror_build_s"] = Metric(time.perf_counter() - t0, "s")

    t0 = time.perf_counter()
    with rec.span("rdf.sparql.parse_sparql", queries=len(LUBM_QUERIES)):
        parsed = [q.parse() for q in LUBM_QUERIES]
    m["rdf.sparql.parse_s"] = Metric(time.perf_counter() - t0, "s")

    probes = 0
    passes = []
    with rec.span("rdf.idquery.battery", queries=len(parsed)) as counts:
        for _ in range(3):
            t0 = time.perf_counter()
            probes = sum(
                index.execute_with_stats(q.bgp)[1].index_probes
                for q in parsed)
            passes.append(time.perf_counter() - t0)
        counts["probes"] = probes
    m["rdf.idquery.battery_s"] = Metric(median(passes), "s", len(passes))
    m["rdf.idquery.probes"] = Metric(probes, "count")

    x, y = Variable("x"), Variable("y")
    env, n_env, _probes = join_pattern(
        mirror, Atom(x, RDF.type, UB.Student), {}, 1, mirror_dictionary.get)
    takes = Atom(x, UB.takesCourse, y)
    with rec.span("rdf.idquery.join_pattern", solutions=n_env):
        join_s = _best(lambda: join_pattern(
            mirror, takes, env, n_env, mirror_dictionary.get))
    _env, n_out, _probes = join_pattern(
        mirror, takes, env, n_env, mirror_dictionary.get)
    m["rdf.idquery.join_pattern_rows_per_s"] = Metric(
        rate(n_out, join_s), "1/s")
    return m, checks
