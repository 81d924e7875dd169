"""Query experiment — the materialization trade-off of the paper's intro,
measured over the fourteen LUBM benchmark queries.

"Materialized knowledge-bases trade-off space and increased loading time
for shorter query times" (Section I).  This table quantifies all three
sides on one LUBM instance:

* space: closed-KB size vs base size;
* loading: one-time materialization cost;
* query time: per-query latency and row counts on the closed graph, with
  the raw-graph row count alongside — the inference-dependent queries
  return nothing without materialization.
"""

from __future__ import annotations

import time

from repro.datasets.lubm_queries import LUBM_QUERIES
from repro.experiments.common import ExperimentResult, SCALES, Scale, build_dataset
from repro.owl import MaterializedKB
from repro.rdf.idquery import IdIndex


def run(scale: Scale | str = "small", seed: int = 0) -> ExperimentResult:
    if isinstance(scale, str):
        scale = SCALES[scale]
    dataset = build_dataset("lubm", scale, seed=seed)

    t0 = time.perf_counter()
    kb = MaterializedKB(dataset.ontology)
    kb.add(iter(dataset.data))
    load_time = time.perf_counter() - t0

    result = ExperimentResult(
        name="queries",
        title=(
            f"LUBM query battery on {dataset.name} ({scale.name} scale): "
            "raw vs materialized"
        ),
        headers=["query", "inference", "raw_rows", "materialized_rows",
                 "latency_ms", "probes"],
    )
    # The KB's own id store, in the bound-first order the term oracle
    # uses (so probe counts read the same as BGPQuery's).
    closed = IdIndex(kb, ordering="bound")
    for query in LUBM_QUERIES:
        parsed = query.parse()
        raw_rows = len(parsed.select(dataset.data))
        t0 = time.perf_counter()
        rows = closed.select(parsed.bgp, *parsed.variables)
        latency = (time.perf_counter() - t0) * 1000
        _, stats = closed.execute_with_stats(parsed.bgp)
        result.rows.append(
            [
                query.name,
                "yes" if query.requires_inference else "no",
                raw_rows,
                len(rows),
                round(latency, 2),
                stats.index_probes,
            ]
        )
    result.notes.append(
        f"base {kb.base_size} triples -> closed {kb.size} "
        f"(+{kb.inferred_size} inferred, {kb.size / max(kb.base_size, 1):.2f}x "
        f"space) in {load_time:.2f}s one-time load"
    )
    result.notes.append(
        "intro's trade-off: every inference-dependent query is empty on the "
        "raw graph and an index-probe lookup on the materialized one"
    )
    return result
