"""Delete-and-rederive (DRed) incremental maintenance, in id space.

A materialized closure must survive retractions without a full
re-closure.  This module implements the classic DRed algorithm
[Gupta, Mumick & Subrahmanian, *Maintaining Views Incrementally*] over
the id stores: :func:`dred_id` drives a
:class:`~repro.datalog.columnar.ColumnarEngine`'s rule evaluators over
an :class:`~repro.rdf.idstore.IdGraph` or
:class:`~repro.rdf.runstore.RunStore`.  It is the one maintenance path:
:meth:`repro.owl.kb.MaterializedKB.apply` calls it on the KB's own store
with the KB's persistent asserted base, and the id-native
:class:`~repro.parallel.worker.PartitionWorker` drives its phases
(:func:`overdelete_id`, :func:`rederive_id`) one removal batch at a time
for distributed DRed.  ``MaterializedKB.rebuild`` stays the differential
oracle.

Phases
------

1. **Overdeletion** — a semi-naive fixpoint of the *affected* set: seed
   with the retracted rows, and each round fire every rule with at
   least one body atom in the round's delta and the remaining atoms in
   the **unmutated** old closure.  This reuses ``eval_delta(G, Δ)``
   verbatim: the evaluators' per-position halves together produce
   exactly the head instantiations with ≥ 1 body atom in Δ against G,
   which is the overdeletion step.  Heads not present in the closure
   (or already overdeleted) are dropped; the fixpoint yields the
   overdeleted set ``O`` — everything whose derivation *may* depend on
   a retracted fact.
2. **Deletion** — ``O`` is physically removed from the store
   (compaction in the dense store, tombstones in the run store).
3. **One-step rederivation** — rows of ``O`` that survive: (a) rows
   still asserted in the (post-retraction) base, and (b) rows
   derivable in one step from the *remnant* closure ``G' = G ∖ O``.
   (b) is evaluated as one naive round — ``eval_delta(G', G')`` — over
   only the rules whose ground head predicate occurs in ``O`` (a rule
   whose head predicate never appears in ``O`` cannot rederive
   anything; variable-predicate heads always run).  Produced heads are
   intersected with ``O``.
4. **Re-closure** — the rederived rows, together with any freshly
   added rows, seed a normal semi-naive fixpoint, which transitively
   restores every remaining derivable row of ``O`` and derives the
   consequences of the additions.

Work accounting: overdeletion rounds and the rederivation round tick
``iterations`` / ``rules_dispatched`` / ``rules_skipped`` /
``join_probes`` / ``firings`` exactly like forward rounds, ``derived``
counts rows entering ``O`` (phase 1) and rows restored to the store
(phase 3), and phase 4 merges a normal fixpoint's stats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datalog.columnar import ColumnarEngine
from repro.datalog.join import Columns, IdStore
from repro.datalog.engine import EngineStats
from repro.rdf.idstore import IdGraph, concat_columns
from repro.rdf.terms import Variable

_EMPTY = np.empty(0, dtype=np.int64)


def _copy_cols(cols: Columns) -> Columns:
    return (cols[0].copy(), cols[1].copy(), cols[2].copy())


@dataclass
class IdDredResult:
    """Net effect of one id-space ``apply`` on the closure."""

    #: Rows newly present after the apply (fresh additions and their
    #: consequences; excludes restored rows, which never left).
    added: Columns
    #: Rows present before and absent after (retractions that stuck).
    removed: Columns
    #: The full overdeleted set ``O`` (diagnostic; superset of
    #: ``removed``).
    overdeleted: Columns
    stats: EngineStats


def _check_budget(iterations: int, max_iterations: int | None) -> None:
    if max_iterations is not None and iterations >= max_iterations:
        raise RuntimeError(
            f"fixpoint not reached after {max_iterations} iterations")


def overdelete_id(
    engine: ColumnarEngine,
    store: IdStore,
    seed: Columns,
    over: IdGraph,
    stats: EngineStats,
) -> Columns:
    """Phase 1: overdeletion fixpoint against the *unmutated* ``store``.

    Marks every row transitively affected by ``seed`` into ``over``
    (which may already hold rows from earlier calls — the distributed
    runtime feeds one call per incoming removal batch, keeping ``over``
    across calls) and returns the rows overdeleted *beyond* the seed:
    the cascade a distributed node must rebroadcast to its peers.
    Serial :func:`dred_id` calls it once and ignores the return.
    """
    evaluators = engine.evaluators
    dispatch = engine.dispatch
    n_rules = len(evaluators)
    current = IdGraph()
    if len(seed[0]):
        present = store.contains_rows(*seed)
        present &= ~over.contains_rows(*seed)
        newly = current.add_rows(seed[0][present], seed[1][present],
                                 seed[2][present])
        over.add_rows(*newly)
    cascade = IdGraph()
    while len(current):
        _check_budget(stats.iterations, engine.max_iterations)
        stats.iterations += 1
        live = dispatch.candidates(current.column(1))
        stats.rules_dispatched += len(live)
        stats.rules_skipped += n_rules - len(live)
        parts: list[Columns] = []
        for i in live:
            hs, hp, ho = evaluators[i].eval_delta(store, current, stats)
            stats.firings += len(hs)
            if len(hs):
                parts.append((hs, hp, ho))
        current = IdGraph()
        if parts:
            hs, hp, ho = concat_columns(parts)
            keep = store.contains_rows(hs, hp, ho)
            keep &= ~over.contains_rows(hs, hp, ho)
            newly = current.add_rows(hs[keep], hp[keep], ho[keep])
            over.add_rows(*newly)
            cascade.add_rows(*newly)
            stats.derived += len(newly[0])
    return _copy_cols(cascade.columns())


def rederive_id(
    engine: ColumnarEngine,
    store: IdStore,
    over: IdGraph,
    asserted: IdGraph,
    stats: EngineStats,
) -> IdGraph:
    """Phases 2 + 3: physically delete ``over`` from ``store``, then
    compute the one-step rederivation seed — rows of ``O`` still
    asserted in the (post-retraction) base plus rows derivable in one
    step from the remnant closure.  The caller feeds the returned seed
    (plus any additions) to a normal semi-naive re-closure (phase 4).
    """
    seed = IdGraph()
    if not len(over):
        return seed
    evaluators = engine.evaluators
    dispatch = engine.dispatch
    n_rules = len(evaluators)
    store.delete_rows(*over.columns())
    o_s, o_p, o_o = over.columns()
    in_base = asserted.contains_rows(o_s, o_p, o_o)
    if in_base.any():
        seed.add_rows(o_s[in_base], o_p[in_base], o_o[in_base])
    remnant = IdGraph()
    remnant.add_rows(*store.columns())
    if len(remnant):
        over_pids = set(np.unique(o_p).tolist())
        stats.iterations += 1
        live = [
            i for i in dispatch.candidates(remnant.column(1))
            if _head_may_rederive_id(engine, i, over_pids)
        ]
        stats.rules_dispatched += len(live)
        stats.rules_skipped += n_rules - len(live)
        parts: list[Columns] = []
        for i in live:
            hs, hp, ho = evaluators[i].eval_delta(store, remnant, stats)
            stats.firings += len(hs)
            if len(hs):
                parts.append((hs, hp, ho))
        if parts:
            hs, hp, ho = concat_columns(parts)
            hit = over.contains_rows(hs, hp, ho)
            seed.add_rows(hs[hit], hp[hit], ho[hit])
    stats.derived += len(seed)
    return seed


def dred_id(
    engine: ColumnarEngine,
    store: IdStore,
    adds: Columns,
    removes: Columns,
    asserted: IdGraph,
) -> IdDredResult:
    """Apply ``(adds, removes)`` to a materialized id-space closure.

    ``store`` is mutated in place to the new closure; ``asserted`` is
    the id-encoded *post-retraction* base (explicit facts only), used
    to keep asserted-but-also-derivable rows alive.
    """
    stats = EngineStats()

    # Phase 1: overdeletion fixpoint against the unmutated closure.
    over = IdGraph()
    overdelete_id(engine, store, removes, over, stats)
    overdeleted = _copy_cols(over.columns())

    # Phases 2 + 3: physical deletion, then one-step rederivation into
    # the re-closure seed.
    seed = rederive_id(engine, store, over, asserted, stats)

    # Phase 4: re-closure from the rederived rows plus the additions.
    fresh_adds: Columns = (_EMPTY, _EMPTY, _EMPTY)
    if len(adds[0]):
        novel = ~store.contains_rows(*adds)
        fresh_adds = (adds[0][novel], adds[1][novel], adds[2][novel])
        seed.add_rows(*adds)
    inferred: Columns = (_EMPTY, _EMPTY, _EMPTY)
    if len(seed):
        result = engine.run(store, delta=seed.columns())
        stats.merge(result.stats)
        inferred = result.inferred

    # Net accounting: rows in O were present before the apply, so they
    # are never "added"; rows of O still absent at the end are removed.
    cand = IdGraph()
    cand.add_rows(*fresh_adds)
    cand.add_rows(*inferred)
    c_s, c_p, c_o = cand.columns()
    if len(over) and len(c_s):
        was_present = over.contains_rows(c_s, c_p, c_o)
        added = (c_s[~was_present].copy(), c_p[~was_present].copy(),
                 c_o[~was_present].copy())
    else:
        added = _copy_cols(cand.columns())
    o_s, o_p, o_o = overdeleted
    if len(o_s):
        final = store.contains_rows(o_s, o_p, o_o)
        removed = (o_s[~final], o_p[~final], o_o[~final])
    else:
        removed = (_EMPTY, _EMPTY, _EMPTY)
    return IdDredResult(
        added=added, removed=removed, overdeleted=overdeleted, stats=stats)


def _head_may_rederive_id(
    engine: ColumnarEngine, rule_index: int, over_pids: set[int]
) -> bool:
    """Can rule ``rule_index`` produce any overdeleted row?  Ground head
    predicates must occur in ``O``; variable head predicates always
    might."""
    p = engine.evaluators[rule_index].rule.head.p
    if isinstance(p, Variable):
        return True
    return engine.dictionary.encode(p) in over_pids
