"""Materialization façade: the serial reasoner the parallel system wraps.

:class:`HorstReasoner` owns a compiled rule set and materializes instance
data with either engine family:

* ``strategy="forward"`` — semi-naive bottom-up (the production path inside
  every partition);
* ``strategy="backward"`` — the Jena-style per-resource SLD driver whose
  super-linear cost profile Section VI analyzes (used by the speedup and
  performance-model experiments).

The paper's parallel algorithm "uses an existing reasoner for creating
additional tuples ... built as a wrapper over an existing reasoner"
(Section IV); this class is that existing reasoner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.datalog.backward import BackwardStats, materialize_backward
from repro.datalog.engine import EngineStats, FixpointResult
from repro.owl.compiler import CompiledRuleSet, compile_ontology
from repro.owl.vocabulary import is_schema_triple
from repro.rdf.graph import Graph

Strategy = Literal["forward", "backward"]


def split_schema(graph: Graph) -> tuple[Graph, Graph]:
    """Split a mixed KB into (schema, instance) graphs — Algorithm 1 step 1
    ("remove all the tuples involving the schema elements").

    >>> from repro.rdf import Graph, URI, Triple
    >>> from repro.owl.vocabulary import RDFS, RDF
    >>> g = Graph([
    ...     Triple(URI("ex:Student"), RDFS.subClassOf, URI("ex:Person")),
    ...     Triple(URI("ex:alice"), RDF.type, URI("ex:Student")),
    ... ])
    >>> schema, instance = split_schema(g)
    >>> len(schema), len(instance)
    (1, 1)
    """
    schema, instance = Graph(), Graph()
    for t in graph:
        (schema if is_schema_triple(t) else instance).add(t)
    return schema, instance


@dataclass
class MaterializationResult:
    """A materialized KB plus the work accounting of the run."""

    graph: Graph
    inferred_count: int
    strategy: Strategy
    engine_stats: EngineStats | None = None
    backward_stats: BackwardStats | None = None

    @property
    def work(self) -> int:
        """Machine-independent work units (see the engines' ``work``)."""
        if self.engine_stats is not None:
            return self.engine_stats.work
        if self.backward_stats is not None:
            return self.backward_stats.work
        return 0


class HorstReasoner:
    """OWL-Horst materializer for a fixed ontology.

    >>> from repro.rdf import Graph, URI, Triple
    >>> from repro.owl.vocabulary import RDFS, RDF
    >>> tbox = Graph([Triple(URI("ex:Student"), RDFS.subClassOf, URI("ex:Person"))])
    >>> data = Graph([Triple(URI("ex:alice"), RDF.type, URI("ex:Student"))])
    >>> result = HorstReasoner(tbox).materialize(data)
    >>> Triple(URI("ex:alice"), RDF.type, URI("ex:Person")) in result.graph
    True
    """

    def __init__(
        self,
        ontology: Graph,
        include_sameas_propagation: bool | str = "auto",
        split_sameas: bool = True,
        store: str | None = None,
        memory_budget_bytes: int | None = None,
    ) -> None:
        self.compiled: CompiledRuleSet = compile_ontology(
            ontology,
            include_sameas_propagation=include_sameas_propagation,
            split_sameas=split_sameas,
        )
        #: Id store of the forward strategy ("dense" / "run") and its
        #: resident-byte cap — forwarded to every engine this reasoner
        #: builds.
        self.store = store
        self.memory_budget_bytes = memory_budget_bytes

    @classmethod
    def from_dataset(cls, graph: Graph, **kwargs) -> tuple["HorstReasoner", Graph]:
        """Build a reasoner from a mixed schema+instance KB; returns
        (reasoner, instance graph)."""
        schema, instance = split_schema(graph)
        return cls(schema, **kwargs), instance

    @property
    def rules(self):
        return self.compiled.rules

    def materialize(
        self,
        data: Graph,
        strategy: Strategy = "forward",
        include_schema: bool = False,
    ) -> MaterializationResult:
        """Materialize instance data.  The input graph is not mutated.

        ``include_schema=True`` adds the saturated TBox triples to the
        output (useful when serializing a complete KB; the experiments
        compare instance-level closures and leave it off).
        """
        if strategy == "forward":
            working = data.copy()
            fp: FixpointResult = self.compiled.engine(
                store=self.store,
                memory_budget_bytes=self.memory_budget_bytes,
            ).run(working)
            out = working
            inferred = len(fp.inferred)
            result = MaterializationResult(
                graph=out,
                inferred_count=inferred,
                strategy=strategy,
                engine_stats=fp.stats,
            )
        elif strategy == "backward":
            out, stats = materialize_backward(data, self.compiled.rules)
            result = MaterializationResult(
                graph=out,
                inferred_count=len(out) - len(data),
                strategy=strategy,
                backward_stats=stats,
            )
        else:
            raise ValueError(f"unknown strategy {strategy!r}")

        if include_schema:
            result.graph.update(iter(self.compiled.schema))
        return result
