"""Semi-naive bottom-up datalog evaluation.

This is the production forward-chaining engine run inside every partition.
Semi-naive evaluation [Ullman, *Principles of Database and Knowledge-Base
Systems*] avoids re-deriving old facts: in each iteration, a rule may only
fire if at least one body sub-goal matches a triple derived in the previous
iteration (the *delta*).  For the 1- and 2-atom rule bodies the OWL-Horst
compiler emits, each iteration is a set of index-backed joins.

Execution layers (see DESIGN.md "Engine execution layers"):

* **Compiled kernels** (default) — at construction, every rule is analyzed
  by :mod:`repro.datalog.plan` and 1-atom / 2-atom single-join bodies get a
  specialized executor from :mod:`repro.datalog.compiled` that works on
  flat binding tuples and raw index accessors instead of ``Bindings``
  dicts and per-probe ``Triple`` objects.  A predicate->rules
  :class:`~repro.datalog.plan.DispatchIndex` additionally skips, per
  round, every rule whose ground body predicates are absent from the
  delta's predicate set.
* **Generic interpreter** (``compile_rules=False``, and the automatic
  fallback for 3+-atom or cross-product bodies) — the original
  fully-general join loop over bindings dicts.

The engine is **resumable**: the parallel worker (Algorithm 3) feeds tuples
received from other partitions in as the next delta instead of recomputing
the fixpoint from scratch — ``run(graph, delta=received)``.

Work accounting: :class:`EngineStats` counts join probes (candidate tuples
examined by a join), rule firings (head instantiations, pre-dedup), and
derived triples (post-dedup).  These deterministic counters complement
wall-clock time in the experiment harness, per the repo's measurement
policy; their meaning is identical across both execution layers so that
simulated-cluster work accounting stays comparable.  The compiled layer
additionally reports per-round dispatch counts (``rules_dispatched`` /
``rules_skipped``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Literal, Sequence

from repro.datalog.ast import Atom, Bindings, Rule
from repro.datalog.compiled import compile_plan
from repro.datalog.plan import DispatchIndex, PlanKind, build_plan
from repro.rdf.dictionary import decode_rows, encode_rows
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
    #: Rules evaluated across all rounds (with dispatch, only those whose
    #: body predicates intersect the delta; without, every rule per round).
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


def eval_rule_generic(
    graph: Graph, rule: Rule, delta: Graph, stats: EngineStats
) -> Iterator[Triple | None]:
    """All head instantiations of ``rule`` where at least one body atom
    matches a delta triple — the generic (bindings-dict) interpreter.

    Standard semi-naive decomposition: for each body position ``i``,
    evaluate the join with atom ``i`` ranging over the delta and every
    other atom over the full database.  When several atoms match delta
    triples the same binding is produced once per delta position; those
    duplicates are removed here, before head instantiation, so ``firings``
    counts distinct bindings (the compiled kernels achieve the same by
    restricting the later halves to ``G ∖ Δ``).
    """
    body = rule.body
    head = rule.head
    seen: set[frozenset] | None = set() if len(body) > 1 else None
    for delta_pos in range(len(body)):
        # Evaluate the delta atom first: the delta is usually far
        # smaller than the database, so this orders the join from the
        # most selective side (left-deep, selective-first).
        order = [delta_pos] + [j for j in range(len(body)) if j != delta_pos]
        bindings_list: list[Bindings] = [{}]
        for j in order:
            atom = body[j]
            source = delta if j == delta_pos else graph
            new_list: list[Bindings] = []
            for b in bindings_list:
                new_list.extend(match_atom(source, atom, b, stats))
            bindings_list = new_list
            if not bindings_list:
                break
        for b in bindings_list:
            if seen is not None:
                key = frozenset(b.items())
                if key in seen:
                    continue
                seen.add(key)
            try:
                yield head.to_triple(b)
            except TypeError:
                # A generalized triple (e.g. rdfs3 placing a literal in
                # subject position).  RDF semantics drops these.
                yield None


class GenericKernel:
    """Kernel-interface wrapper around the generic interpreter — used for
    every rule when ``compile_rules=False`` and as the fallback for rule
    shapes the compiled kernels don't cover."""

    kind = PlanKind.GENERIC

    def __init__(self, rule: Rule) -> None:
        self.rule = rule

    def eval_delta(
        self, graph: Graph, delta: Graph, stats: EngineStats
    ) -> Iterator[Triple | None]:
        return eval_rule_generic(graph, self.rule, delta, stats)


#: The engine execution layers ``SemiNaiveEngine`` can select per instance.
EngineKind = Literal["generic", "compiled", "columnar"]

#: The columnar mirror's storage backends: dense int64 columns
#: (:class:`~repro.rdf.idstore.IdGraph`) or compressed LSM runs under a
#: memory budget (:class:`~repro.rdf.runstore.RunStore`).
StoreKind = Literal["dense", "run"]


class SemiNaiveEngine:
    """Semi-naive fixpoint evaluator over a fixed rule set.

    Three execution layers, selected by ``engine``:

    * ``"compiled"`` (default) routes 1-atom and 2-atom single-join rules
      through the compiled kernels and enables predicate dispatch;
    * ``"generic"`` runs the generic interpreter for every rule (the
      ablation baseline — results are identical, only speed and probe
      counts differ);
    * ``"columnar"`` mirrors the graph into an id-encoded
      :class:`~repro.rdf.idstore.IdGraph` and runs the vectorized id-space
      kernels of :mod:`repro.datalog.columnar` (identical results *and*
      identical work counters to ``"compiled"``).  The mirror is cached
      across :meth:`run` calls on the same graph object (detected via the
      graph's mutation counter), so incremental deltas pay only for
      their own rows.  (:class:`~repro.owl.kb.MaterializedKB` does not
      go through this adapter: it owns its id store and drives
      :class:`~repro.datalog.columnar.ColumnarEngine` directly.)

    ``compile_rules=False`` remains as the legacy spelling of
    ``engine="generic"``.

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
        compile_rules: bool = True,
        engine: EngineKind | None = None,
        store: StoreKind | None = None,
        memory_budget_bytes: int | None = None,
        sanitize: bool | None = None,
    ) -> None:
        self.rules = tuple(rules)
        #: Safety valve for runaway rule sets; ``None`` means run to fixpoint.
        self.max_iterations = max_iterations
        if engine is None:
            engine = "compiled" if compile_rules else "generic"
        if engine not in ("generic", "compiled", "columnar"):
            raise ValueError(f"unknown engine {engine!r}")
        store = store_kind(store, memory_budget_bytes)
        if engine != "columnar" and (
            store == "run" or memory_budget_bytes is not None
        ):
            raise ValueError(
                "store='run' / memory_budget_bytes require engine='columnar'"
            )
        #: Columnar mirror storage: ``"dense"`` keeps an
        #: :class:`~repro.rdf.idstore.IdGraph`, ``"run"`` a memory-budgeted
        #: :class:`~repro.rdf.runstore.RunStore`.
        self.store_kind = store
        #: ``_make_store(capacity=n)``: a fresh mirror store of that kind.
        #: ``sanitize`` is tri-state — an explicit True/False wins, None
        #: defers to REPRO_SANITIZE, resolved at store construction (so
        #: the env var works unplumbed).
        self._make_store = partial(
            make_store, store, memory_budget_bytes=memory_budget_bytes,
            sanitize=sanitize, label="engine-mirror")
        self.engine_kind: EngineKind = engine
        self.compile_rules = engine != "generic"
        for rule in self.rules:
            if not isinstance(rule, Rule):
                raise TypeError(f"expected Rule, got {rule!r}")
        self._columnar = None
        self._kernels: list = []
        self._dispatch: DispatchIndex | None = None
        #: Columnar mirror cache: (graph object, graph version at sync).
        self._mirror_state: tuple[Graph, int] | None = None
        self._mirror = None
        if engine == "columnar":
            # Imported lazily: columnar depends on this module's stats
            # types, so a top-level import would be circular.
            from repro.datalog.columnar import ColumnarEngine
            from repro.rdf.dictionary import TermDictionary

            self._columnar = ColumnarEngine(
                self.rules, TermDictionary(), max_iterations=max_iterations
            )
        elif engine == "compiled":
            plans = [build_plan(r) for r in self.rules]
            self._kernels = [
                compile_plan(p) or GenericKernel(p.rule) for p in plans
            ]
            self._dispatch = DispatchIndex(plans)
        else:
            self._kernels = [GenericKernel(r) for r in self.rules]

    @property
    def kernel_kinds(self) -> tuple[str, ...]:
        """Executor chosen per rule ('scan' / 'join' / 'generic'), in rule
        order — diagnostic surface for tests and the experiment harness.
        For the columnar engine these are the id-kernel kinds (same plan
        classification)."""
        if self._columnar is not None:
            return self._columnar.kernel_kinds
        return tuple(k.kind.value for k in self._kernels)

    # -- public API ---------------------------------------------------------

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
        if self._columnar is not None:
            return self._run_columnar(graph, delta)

        stats = EngineStats()
        inferred = Graph()

        if delta is None:
            current_delta = graph.copy()
        else:
            current_delta = Graph()
            for t in delta:
                graph.add(t)
                current_delta.add(t)

        n_rules = len(self._kernels)
        while len(current_delta) > 0:
            if (
                self.max_iterations is not None
                and stats.iterations >= self.max_iterations
            ):
                raise RuntimeError(
                    f"fixpoint not reached after {self.max_iterations} iterations"
                )
            stats.iterations += 1
            if self._dispatch is not None:
                live = self._dispatch.candidates(current_delta.predicates())
                stats.rules_dispatched += len(live)
                stats.rules_skipped += n_rules - len(live)
                kernels = [self._kernels[i] for i in live]
            else:
                stats.rules_dispatched += n_rules
                kernels = self._kernels
            next_delta = Graph()
            for kernel in kernels:
                for triple in kernel.eval_delta(graph, current_delta, stats):
                    if triple is None:
                        continue
                    stats.firings += 1
                    if triple not in graph and triple not in next_delta:
                        next_delta.add(triple)
            # Commit the round: new facts join the database and become the
            # next delta.  (Insertion is deferred to here so that within a
            # round every rule sees the same database state.)
            for triple in next_delta:
                graph.add(triple)
                inferred.add(triple)
                stats.derived += 1
            current_delta = next_delta

        return FixpointResult(graph=graph, inferred=inferred, stats=stats)

    # -- columnar execution --------------------------------------------------

    def _sync_mirror(self, graph: Graph):
        """The id-encoded shadow of ``graph``, rebuilt only when the graph
        object or its mutation counter changed since the last sync."""
        state = self._mirror_state
        if (
            self._mirror is not None
            and state is not None
            and state[0] is graph
            and state[1] == graph.version
        ):
            return self._mirror
        assert self._columnar is not None
        mirror = self._make_store(capacity=len(graph))
        mirror.add_rows(
            *encode_rows(self._columnar.dictionary, graph.spo_items()))
        self._mirror = mirror
        self._mirror_state = (graph, graph.version)
        return mirror

    def _run_columnar(
        self, graph: Graph, delta: Iterable[Triple] | None
    ) -> FixpointResult:
        """The ``engine="columnar"`` run path: sync the id mirror, run the
        id-space fixpoint, decode only the newly derived rows back into
        the term graph."""
        assert self._columnar is not None
        columnar = self._columnar
        dictionary = columnar.dictionary
        mirror = self._sync_mirror(graph)

        delta_rows = None
        if delta is not None:
            delta = list(delta)
            graph.update(delta)
            delta_rows = encode_rows(
                dictionary, ((t.s, t.p, t.o) for t in delta))

        result = columnar.run(mirror, delta_rows)
        inferred = Graph()
        for t in decode_rows(dictionary, *result.inferred):
            graph.add(t)
            inferred.add(t)
        # The adds above are our own: re-stamp the mirror as in sync.
        self._mirror_state = (graph, graph.version)
        return FixpointResult(graph=graph, inferred=inferred, stats=result.stats)
