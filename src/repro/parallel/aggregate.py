"""The master's one remaining job — "the master node itself has no role
to play once the initial partition is done" (Section IV) except the final
aggregation: the workers' id rows become one ``(TermDictionary, IdGraph)``.
No term is materialized here; :class:`RunOutput` decodes on first read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.rdf.dictionary import TermDictionary, encode_rows, lookup_rows
from repro.rdf.graph import Graph
from repro.rdf.idstore import IdGraph, concat_columns
from repro.rdf.stores import TermView
from repro.rdf.triple import Triple

if TYPE_CHECKING:
    from repro.parallel.worker import PartitionWorker


def gather_rows(
    workers: "Sequence[PartitionWorker]", *schema_graphs: Graph
) -> tuple[TermDictionary, IdGraph]:
    """Union the workers' stores (plus the replicated ``schema_graphs``)
    into one id store.

    Rows whose ids all lie in the shared base stripe are comparable as
    they are.  Above it each worker minted in a private stripe, and two
    workers may hold *different* ids for one term, so such rows are
    re-keyed through the owning worker's dictionary before the dedup.

    The workers stay resident on the shared base dictionary, whose size
    their stripes start at — it must never grow under them.  When every
    id is a base id (the common case: the base was seeded with the rules
    and the schema) the base itself is returned, untouched; the first
    term that needs minting switches to a private copy.  Callers must
    likewise not mint into the returned dictionary.
    """
    shared = workers[0].dictionary
    base = shared.base
    base_size = shared.base_size
    dictionary = base

    def minting() -> TermDictionary:
        nonlocal dictionary
        if dictionary is base:
            dictionary = TermDictionary.from_terms(base.terms())
        return dictionary

    parts = []
    for worker in workers:
        s, p, o = worker.output_rows()
        minted = (s >= base_size) | (p >= base_size) | (o >= base_size)
        if minted.any():
            decode = worker.dictionary.decode_many
            parts.append(encode_rows(minting(), zip(
                decode(s[minted]), decode(p[minted]), decode(o[minted]))))
            s, p, o = s[~minted], p[~minted], o[~minted]
        parts.append((s, p, o))
    for graph in schema_graphs:
        rows = lookup_rows(dictionary, graph.spo_items())
        if len(rows[0]) < len(graph):  # a term the base never saw
            rows = encode_rows(minting(), graph.spo_items())
        parts.append(rows)
    s, p, o = concat_columns(parts)
    store = IdGraph(capacity=len(s))
    store.add_rows(s, p, o)
    return dictionary, store


def encode_outputs(
    dictionary: TermDictionary,
    outputs: Iterable[Iterable[Triple]],
    *schema_graphs: Graph,
) -> IdGraph:
    """The multiprocess executors' route to the same result: their
    workers ship term triples (``OutputMsg``), which the master encodes
    into ``dictionary`` — its own, no worker lives in this process."""
    store = IdGraph()
    for triples in (*outputs, *schema_graphs):
        store.add_rows(*encode_rows(dictionary, triples))
    return store


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
    ) -> None:
        self.dictionary = dictionary
        self.store = store
        #: The partition workers, still resident after an in-process run
        #: (the serving tier and the distributed query engine answer
        #: straight from their stores).  Empty for multiprocess runs,
        #: whose workers died with their host processes.
        self.workers = list(workers)
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
