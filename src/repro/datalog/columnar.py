"""The id-space semi-naive fixpoint.

Storage is :class:`repro.rdf.idstore.IdGraph` (or the memory-budgeted
:class:`repro.rdf.runstore.RunStore`); rule evaluation is one
:class:`~repro.datalog.join.RuleEvaluator` per rule, built from the
rule's :class:`~repro.datalog.plan.RulePlan`.  Rule constants are encoded
into id space exactly once, at construction; after that a fixpoint never
touches a term object.

Each round dispatches, by the predicates present in the round's delta,
only the rules a delta row can feed (:class:`IdDispatchIndex`), unions
their head rows, and commits the rows not yet in the store as the next
delta.

Work counters (:class:`~repro.datalog.engine.EngineStats`):

* ``join_probes`` — candidate rows surfaced by the join steps (see
  :mod:`repro.datalog.join`);
* ``firings`` — valid head rows per round, pre-dedup;
* ``derived`` — post-dedup new rows;
* ``rules_dispatched`` / ``rules_skipped`` — per-round dispatch decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.datalog.ast import Rule
from repro.datalog.join import Columns, IdStore, RuleEvaluator, SupportsIdSpace
from repro.datalog.plan import RulePlan, build_plan
from repro.rdf.idstore import IdGraph, concat_columns

if TYPE_CHECKING:
    from repro.datalog.engine import EngineStats

class IdDispatchIndex:
    """Predicate-id → rules dispatch for the round loop.

    A semi-naive derivation needs at least one body atom to match a delta
    row, and a body atom with ground predicate ``p`` only matches rows
    whose predicate is ``p``; so a rule whose ground body predicates are
    all absent from the delta is skipped.  Rules with a variable-predicate
    body atom (the sameAs-propagation split) are always dispatched.
    Candidates come back in rule order (part of the determinism
    contract)."""

    def __init__(
        self, plans: Sequence[RulePlan], dictionary: SupportsIdSpace
    ) -> None:
        self.n_rules = len(plans)
        self._by_predicate: dict[int, set[int]] = {}
        self._always: set[int] = set()
        for i, plan in enumerate(plans):
            if plan.body_predicates is None:
                self._always.add(i)
                continue
            for p in plan.body_predicates:
                self._by_predicate.setdefault(
                    dictionary.encode(p), set()).add(i)

    def candidates(self, delta_p_ids: np.ndarray) -> list[int]:
        live = set(self._always)
        for pid in np.unique(delta_p_ids).tolist():
            hit = self._by_predicate.get(pid)
            if hit is not None:
                live |= hit
        return sorted(live)


@dataclass
class ColumnarFixpoint:
    """Outcome of one id-space fixpoint: the new rows and the work done."""

    inferred: Columns
    stats: "EngineStats"


class ColumnarEngine:
    """Semi-naive fixpoint evaluator over an id store.

    The one forward engine: :class:`~repro.datalog.engine.SemiNaiveEngine`
    encodes a term graph into it, :class:`~repro.owl.kb.MaterializedKB`
    runs it on its own store, and the id-native
    :class:`~repro.parallel.worker.PartitionWorker` feeds received
    ``EncodedBatch`` rows straight in.  Rule constants are encoded through
    ``dictionary`` once, here.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        dictionary: SupportsIdSpace,
        max_iterations: int | None = None,
    ) -> None:
        self.rules = tuple(rules)
        self.dictionary = dictionary
        self.max_iterations = max_iterations
        plans = [build_plan(r) for r in self.rules]
        self._evaluators = [RuleEvaluator(p, dictionary) for p in plans]
        self._dispatch = IdDispatchIndex(plans, dictionary)

    @property
    def evaluators(self) -> list[RuleEvaluator]:
        """The per-rule evaluators, in rule order — the evaluation surface
        :mod:`repro.datalog.incremental` drives for DRed phases."""
        return self._evaluators

    @property
    def dispatch(self) -> IdDispatchIndex:
        """The predicate-id dispatch index (shared with DRed phases so the
        dispatch accounting matches the forward fixpoint's)."""
        return self._dispatch

    def run(
        self, graph: IdStore, delta: Columns | None = None
    ) -> ColumnarFixpoint:
        """Run to fixpoint, mutating ``graph`` in place.

        ``delta=None`` evaluates from scratch; otherwise the given rows
        resume the fixpoint (rows not yet present are inserted first), and
        *all* of them seed the first round's delta — the same contract as
        ``SemiNaiveEngine.run``.
        """
        # Imported here: engine.py imports this module, so a top-level
        # import back would be circular.
        from repro.datalog.engine import EngineStats

        stats = EngineStats()
        current = IdGraph()
        if delta is None:
            current.add_rows(*graph.columns())
        else:
            graph.add_rows(*delta)
            current.add_rows(*delta)
        inferred_parts: list[Columns] = []
        n_rules = len(self._evaluators)
        while len(current):
            if (
                self.max_iterations is not None
                and stats.iterations >= self.max_iterations
            ):
                raise RuntimeError(
                    f"fixpoint not reached after {self.max_iterations} "
                    "iterations"
                )
            stats.iterations += 1
            live = self._dispatch.candidates(current.column(1))
            stats.rules_dispatched += len(live)
            stats.rules_skipped += n_rules - len(live)
            parts: list[Columns] = []
            for i in live:
                hs, hp, ho = self._evaluators[i].eval_delta(
                    graph, current, stats)
                stats.firings += len(hs)
                if len(hs):
                    parts.append((hs, hp, ho))
            current = IdGraph()
            if parts:
                hs, hp, ho = concat_columns(parts)
                keep = ~graph.contains_rows(hs, hp, ho)
                added = current.add_rows(hs[keep], hp[keep], ho[keep])
                graph.add_rows(*added)
                stats.derived += len(added[0])
                if len(added[0]):
                    inferred_parts.append(added)
        return ColumnarFixpoint(inferred=concat_columns(inferred_parts), stats=stats)
