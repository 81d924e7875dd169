"""Basic graph pattern (BGP) queries over a graph.

The paper's setting is *materialized* knowledge bases: inference runs at
load time precisely so that queries become plain pattern matching
(Section I: "materialized knowledge-bases trade-off space and increased
loading time for shorter query times").  This module supplies that query
side: conjunctive triple patterns (the SPARQL BGP core) evaluated against
any :class:`~repro.rdf.graph.Graph` — typically the output of
:class:`~repro.owl.kb.MaterializedKB`.

:class:`BGPQuery` is the query *value* every query surface accepts, and
its own evaluation is the term-level oracle: the textbook
index-nested-loop join over the graph's indexes, in the greedy
most-bound-first order of :func:`~repro.datalog.join.order_patterns`.
Production queries (the KB, the server, SPARQL) run in id space through
:class:`~repro.rdf.idquery.IdIndex`; with ``ordering="bound"`` it uses
this same order, so probe counts agree 1:1 with the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.datalog.ast import Atom, Bindings
from repro.datalog.engine import match_atom
from repro.datalog.join import order_patterns
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Variable


@dataclass(frozen=True)
class BGPStats:
    """Work accounting for one query evaluation."""

    patterns: int
    index_probes: int
    solutions: int


class BGPQuery:
    """A conjunctive triple-pattern query.

    >>> from repro.rdf import Graph, URI
    >>> from repro.rdf.terms import Variable
    >>> g = Graph()
    >>> _ = g.add_spo(URI("ex:alice"), URI("ex:knows"), URI("ex:bob"))
    >>> _ = g.add_spo(URI("ex:bob"), URI("ex:knows"), URI("ex:carol"))
    >>> x, y, z = Variable("x"), Variable("y"), Variable("z")
    >>> q = BGPQuery([Atom(x, URI("ex:knows"), y), Atom(y, URI("ex:knows"), z)])
    >>> rows = list(q.execute(g))
    >>> len(rows)
    1
    >>> str(rows[0][x]), str(rows[0][z])
    ('ex:alice', 'ex:carol')
    """

    def __init__(self, patterns: Sequence[Atom]) -> None:
        if not patterns:
            raise ValueError("a BGP needs at least one pattern")
        for p in patterns:
            if not isinstance(p, Atom):
                raise TypeError(f"pattern must be an Atom, got {p!r}")
        self.patterns = tuple(patterns)

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for p in self.patterns:
            out |= p.variables()
        return out

    # -- evaluation -----------------------------------------------------------

    def execute(
        self,
        graph: Graph,
        bindings: Bindings | None = None,
    ) -> Iterator[Bindings]:
        """Yield every solution mapping (variable -> ground term)."""
        initial: Bindings = dict(bindings) if bindings else {}
        order = order_patterns(self.patterns, initial)

        def solve(index: int, current: Bindings) -> Iterator[Bindings]:
            if index == len(order):
                yield current
                return
            for extended in match_atom(graph, order[index], current):
                yield from solve(index + 1, extended)

        yield from solve(0, initial)

    def execute_with_stats(
        self, graph: Graph, bindings: Bindings | None = None
    ) -> tuple[list[Bindings], BGPStats]:
        """Like :meth:`execute`, materialized, with probe counts."""
        from repro.datalog.engine import EngineStats

        stats = EngineStats()
        initial: Bindings = dict(bindings) if bindings else {}
        order = order_patterns(self.patterns, initial)
        solutions: list[Bindings] = []

        def solve(index: int, current: Bindings) -> None:
            if index == len(order):
                solutions.append(current)
                return
            for extended in match_atom(graph, order[index], current, stats):
                solve(index + 1, extended)

        solve(0, initial)
        return solutions, BGPStats(
            patterns=len(order),
            index_probes=stats.join_probes,
            solutions=len(solutions),
        )

    def count(self, graph: Graph) -> int:
        return sum(1 for _ in self.execute(graph))

    def ask(self, graph: Graph) -> bool:
        """SPARQL ASK semantics: does at least one solution exist?"""
        return next(self.execute(graph), None) is not None

    def select(
        self, graph: Graph, *variables: Variable
    ) -> list[tuple[Term, ...]]:
        """SPARQL SELECT semantics: distinct projected rows, sorted."""
        if not variables:
            raise ValueError("select needs at least one projection variable")
        unknown = set(variables) - self.variables()
        if unknown:
            names = ", ".join(sorted(str(v) for v in unknown))
            raise ValueError(f"projection variable(s) not in query: {names}")
        rows = {
            tuple(b[v] for v in variables) for b in self.execute(graph)
        }
        return sorted(rows)

    def __repr__(self) -> str:
        return f"BGPQuery({list(self.patterns)!r})"
