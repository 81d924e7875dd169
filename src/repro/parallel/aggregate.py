"""The master's one remaining job — "the master node itself has no role
to play once the initial partition is done" (Section IV) except the final
aggregation: the nodes' id rows become one ``(TermDictionary, IdGraph)``.
No term is materialized here; :class:`RunOutput` decodes on first read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.datalog.engine import EngineStats
from repro.rdf.dictionary import TermDictionary, encode_rows, lookup_rows
from repro.rdf.graph import Graph
from repro.rdf.idstore import IdGraph, concat_columns
from repro.rdf.stores import TermView

if TYPE_CHECKING:
    from repro.parallel.cluster import ClusterSpec
    from repro.parallel.messages import OutputMsg
    from repro.parallel.worker import PartitionWorker


def gather_rows(
    spec: "ClusterSpec", outputs: "Iterable[OutputMsg]"
) -> tuple[TermDictionary, IdGraph, EngineStats]:
    """Union the nodes' rows (plus the spec's replicated schema graphs)
    into one id store, and sum the nodes' engine counters.

    Every executor ends here, with one
    :class:`~repro.parallel.messages.OutputMsg` per node: built from the
    resident workers in process, or received from the worker processes.
    Rows whose ids all lie in the shared base stripe are comparable as
    they are.  Above it each node minted in a private stripe, and two
    nodes may hold *different* ids for one term, so such rows are
    re-keyed through the node's ``(id, term)`` delta before the dedup.

    In-process workers stay resident on the shared base dictionary,
    whose size their stripes start at — it must never grow under them.
    When every id is a base id (the common case: the base was seeded with
    the rules and the schema) the base itself is returned, untouched; the
    first term that needs minting switches to a private copy.  Callers
    must likewise not mint into the returned dictionary.
    """
    base = spec.base
    base_size = len(base)
    dictionary = base
    engine_stats = EngineStats()

    def minting() -> TermDictionary:
        nonlocal dictionary
        if dictionary is base:
            dictionary = TermDictionary.from_terms(base.terms())
        return dictionary

    outputs = list(outputs)
    parts = []
    for out in outputs:
        engine_stats.merge(out.engine_stats)
        s, p, o = out.s, out.p, out.o
        minted = (s >= base_size) | (p >= base_size) | (o >= base_size)
        if minted.any():
            terms = dict(out.delta)
            decode = base.decode

            def term_of(ids):
                return [terms[i] if i >= base_size else decode(i)
                        for i in ids.tolist()]

            parts.append(encode_rows(minting(), zip(
                term_of(s[minted]), term_of(p[minted]), term_of(o[minted]))))
            s, p, o = s[~minted], p[~minted], o[~minted]
        parts.append((s, p, o))
    if spec.sanitize:
        from repro.analysis.sanitize import check_minted_ids

        check_minted_ids(outputs)
    for graph in spec.schema_graphs:
        rows = lookup_rows(dictionary, graph.spo_items())
        if len(rows[0]) < len(graph):  # a term the base never saw
            rows = encode_rows(minting(), graph.spo_items())
        parts.append(rows)
    s, p, o = concat_columns(parts)
    store = IdGraph(capacity=len(s))
    store.add_rows(s, p, o)
    return dictionary, store, engine_stats


class RunOutput:
    """What every executor ends in: the closure as id rows.

    ``dictionary`` + ``store`` are the result; :attr:`graph` and
    :attr:`node_outputs` are term views decoded on first read, so a run
    whose consumer stays in id space (``MaterializedKB.bulk_load``, the
    serving tier) never builds a term :class:`Graph`.  ``dictionary`` may
    be the resident workers' shared base — read it, never mint into it.
    """

    def __init__(
        self,
        graph: Graph | None = None,
        dictionary: TermDictionary | None = None,
        store: IdGraph | None = None,
        workers: "Sequence[PartitionWorker]" = (),
        engine_stats: EngineStats | None = None,
    ) -> None:
        self.dictionary = dictionary
        self.store = store
        #: The partition workers, still resident after an in-process run
        #: (the serving tier and the distributed query engine answer
        #: straight from their stores).  Empty for multiprocess runs,
        #: whose workers died with their host processes.
        self.workers = list(workers)
        #: Cluster-wide engine counters: the sum of every node's
        #: fixpoint stats, so a parallel load reports the same six-field
        #: accounting a serial :class:`~repro.datalog.columnar.
        #: ColumnarEngine` run would (the backward bootstrap contributes
        #: only to the per-round ``work`` scalar, not here).
        self.engine_stats = (
            engine_stats if engine_stats is not None else EngineStats())
        self._graph = graph
        self._view = TermView()
        self._node_outputs: list[Graph] | None = None

    @property
    def graph(self) -> Graph:
        """The closed KB as a term :class:`Graph` (decoded once, cached;
        or the graph given at construction)."""
        if self._graph is not None:
            return self._graph
        return self._view.of(self.dictionary, self.store)

    @property
    def node_outputs(self) -> list[Graph]:
        """Per-node final output graphs (for the OR metric), decoded from
        the resident workers on first read."""
        if self._node_outputs is None:
            self._node_outputs = [w.output_graph() for w in self.workers]
        return self._node_outputs

