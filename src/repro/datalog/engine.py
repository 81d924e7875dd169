"""Semi-naive bottom-up datalog evaluation over term graphs.

Semi-naive evaluation [Ullman, *Principles of Database and Knowledge-Base
Systems*] avoids re-deriving old facts: in each iteration, a rule may only
fire if at least one body sub-goal matches a triple derived in the previous
iteration (the *delta*).  For the 1- and 2-atom rule bodies the OWL-Horst
compiler emits, each iteration is a set of index-backed joins.

Execution: :class:`SemiNaiveEngine` is a term-graph adapter over the one
forward engine, :class:`~repro.datalog.columnar.ColumnarEngine` — encode
the graph into an id store, run the id-space fixpoint, decode the new
rows (see DESIGN.md §6, "One join step, one rule evaluator").  This
module also holds the shared result and counter types and
:func:`match_atom`, the term-level index walk behind the test oracles
(:class:`~repro.datalog.naive.NaiveEngine`,
:class:`~repro.rdf.query.BGPQuery`) and the ontology compiler's TBox
template expansion.

Work accounting: :class:`EngineStats` counts join probes (candidate tuples
examined by a join), rule firings (head instantiations, pre-dedup), and
derived triples (post-dedup).  These deterministic counters complement
wall-clock time in the experiment harness, per the repo's measurement
policy, alongside the per-round dispatch counts (``rules_dispatched`` /
``rules_skipped``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Literal, Sequence

from repro.datalog.ast import Atom, Bindings, Rule
from repro.datalog.columnar import ColumnarEngine
from repro.rdf.dictionary import TermDictionary, decode_rows, encode_rows
from repro.rdf.graph import Graph
from repro.rdf.stores import make_store, store_kind
from repro.rdf.terms import Variable
from repro.rdf.triple import Triple


@dataclass
class EngineStats:
    """Deterministic work counters plus iteration count for one fixpoint."""

    iterations: int = 0
    firings: int = 0
    derived: int = 0
    join_probes: int = 0
    #: Rules evaluated across all rounds (those whose body predicates
    #: intersect the round's delta).
    rules_dispatched: int = 0
    #: Rules skipped by the predicate dispatch index across all rounds.
    rules_skipped: int = 0

    def merge(self, other: "EngineStats") -> None:
        self.iterations += other.iterations
        self.firings += other.firings
        self.derived += other.derived
        self.join_probes += other.join_probes
        self.rules_dispatched += other.rules_dispatched
        self.rules_skipped += other.rules_skipped

    @property
    def work(self) -> int:
        """A single scalar work measure: join probes + firings.  Used as the
        machine-independent "CPU time" in simulated-cluster experiments."""
        return self.join_probes + self.firings


@dataclass
class FixpointResult:
    """Outcome of one fixpoint computation.

    ``inferred`` holds only the *new* triples (not the base data); ``graph``
    references the (mutated) input graph containing base + inferred.
    """

    graph: Graph
    inferred: Graph
    stats: EngineStats = field(default_factory=EngineStats)


def match_atom(
    graph: Graph, atom: Atom, bindings: Bindings, stats: EngineStats | None = None
) -> Iterator[Bindings]:
    """All extensions of ``bindings`` that satisfy ``atom`` against ``graph``.

    The atom is first substituted under the current bindings so bound
    positions become index keys; each index hit is then verified/extended by
    :meth:`Atom.match_triple` (which also enforces repeated-variable
    consistency).
    """
    a = atom.substitute(bindings)
    s = None if isinstance(a.s, Variable) else a.s
    p = None if isinstance(a.p, Variable) else a.p
    o = None if isinstance(a.o, Variable) else a.o
    for triple in graph.match(s, p, o):
        if stats is not None:
            stats.join_probes += 1
        extended = a.match_triple(triple, bindings)
        if extended is not None:
            yield extended


#: The id store backends :class:`SemiNaiveEngine` can encode into: dense
#: int64 columns (:class:`~repro.rdf.idstore.IdGraph`) or compressed LSM
#: runs under a memory budget (:class:`~repro.rdf.runstore.RunStore`).
StoreKind = Literal["dense", "run"]


class SemiNaiveEngine:
    """Semi-naive fixpoint evaluator over a fixed rule set, term graph in
    and out.

    A :meth:`run` encodes the graph into an id store, runs
    :class:`~repro.datalog.columnar.ColumnarEngine` on it, and decodes the
    newly derived rows back into the graph.  The term dictionary persists
    across runs, so rule constants are encoded once.  ``store`` /
    ``memory_budget_bytes`` pick the id store (``"dense"`` or the
    memory-budgeted ``"run"``); ``sanitize`` is tri-state — an explicit
    True/False wins, None defers to ``REPRO_SANITIZE`` at store
    construction.  (:class:`~repro.owl.kb.MaterializedKB` owns its id
    store and drives the columnar engine directly.)

    >>> from repro.datalog.parser import parse_rules
    >>> from repro.rdf import Graph, URI, Triple
    >>> rules = parse_rules('''@prefix ex: <ex:>
    ... [t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]''')
    >>> g = Graph([Triple(URI("ex:1"), URI("ex:p"), URI("ex:2")),
    ...            Triple(URI("ex:2"), URI("ex:p"), URI("ex:3"))])
    >>> result = SemiNaiveEngine(rules).run(g)
    >>> len(result.inferred)
    1
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        max_iterations: int | None = None,
        store: StoreKind | None = None,
        memory_budget_bytes: int | None = None,
        sanitize: bool | None = None,
    ) -> None:
        self.rules = tuple(rules)
        for rule in self.rules:
            if not isinstance(rule, Rule):
                raise TypeError(f"expected Rule, got {rule!r}")
        #: Safety valve for runaway rule sets; ``None`` means run to fixpoint.
        self.max_iterations = max_iterations
        #: Id store kind: ``"dense"`` or ``"run"`` (a budget implies run).
        self.store_kind = store_kind(store, memory_budget_bytes)
        #: ``_make_store(capacity=n)``: a fresh id store of that kind.
        self._make_store = partial(
            make_store, store, memory_budget_bytes=memory_budget_bytes,
            sanitize=sanitize, label="engine-store")
        self._columnar = ColumnarEngine(
            self.rules, TermDictionary(), max_iterations=max_iterations)

    def run(
        self,
        graph: Graph,
        delta: Iterable[Triple] | None = None,
    ) -> FixpointResult:
        """Run to fixpoint, mutating ``graph`` in place.

        ``delta=None`` evaluates from scratch (every triple is "new").
        Passing an iterable of triples resumes an existing fixpoint: only
        derivations involving at least one of those triples (transitively)
        are recomputed.  Triples in ``delta`` not yet present in ``graph``
        are inserted first.
        """
        dictionary = self._columnar.dictionary
        store = self._make_store(capacity=len(graph))
        store.add_rows(*encode_rows(dictionary, graph.spo_items()))
        delta_rows = None
        if delta is not None:
            delta = list(delta)
            graph.update(delta)
            delta_rows = encode_rows(
                dictionary, ((t.s, t.p, t.o) for t in delta))
        result = self._columnar.run(store, delta_rows)
        inferred = Graph()
        for t in decode_rows(dictionary, *result.inferred):
            graph.add(t)
            inferred.add(t)
        return FixpointResult(
            graph=graph, inferred=inferred, stats=result.stats)
