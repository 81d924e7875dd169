"""One join step: extend a solution table by one atom's matches in an id store.

Rule bodies and queries are evaluated by the same operation.  A solution
table is an *environment* — ``{Variable: int64 column}``, every column of
length ``n`` (solution i is row i across all columns) — and one step
extends it by one triple pattern:

* the pattern is compiled once against what is already bound
  (:func:`compile_atom`): ground ids, bound-key positions, first
  occurrences of fresh variables, and repeated-fresh-variable checks;
* :func:`extend` hands the ground ids and bound columns to the store's
  batch ``probe`` whole (one searchsorted pair per sorted segment for
  every solution at once), drops the rows of an optional ``exclude``
  store, counts the surviving candidates, applies the repeated-variable
  checks, and fans the solution table out by the match-to-solution
  ``reps`` array.

Callers:

* :class:`RuleEvaluator` — one rule's semi-naive delta evaluation: per
  body position, a constant-mask scan of Δ followed by one step per
  remaining atom.  :class:`~repro.datalog.columnar.ColumnarEngine` and
  the DRed phases of :mod:`repro.datalog.incremental` call it;
* :func:`repro.rdf.idquery.join_pattern` — one BGP pattern, compiled
  through a non-minting term lookup;
* :meth:`repro.parallel.worker.PartitionWorker.answer_pattern` — the
  semi-join anchor set as a one-column environment.

Join order for conjunctive queries is :func:`order_patterns` (greedy
most-bound-first), shared by the term oracle
:class:`~repro.rdf.query.BGPQuery` and the id engine.

Work accounting
---------------

``join_probes`` counts one per candidate row that survives the constant /
bound-key index restriction and the ``exclude`` rows, *before* the
repeated-variable checks — an index walk's yield.  ``firings`` counts valid
head instantiations (subject a resource, predicate a URI); rules of three
or more atoms (and two-atom cross products) count distinct bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Protocol, Sequence

import numpy as np

from repro.datalog.ast import Atom
from repro.datalog.plan import PlanKind, RulePlan
from repro.rdf.idstore import IdGraph
from repro.rdf.runstore import RunStore
from repro.rdf.terms import Term, Variable

if TYPE_CHECKING:
    from repro.datalog.engine import EngineStats

_EMPTY = np.empty(0, dtype=np.int64)

#: Either triple store a join step can probe: both expose the same value
#: probe surface (``probe`` / ``contains_rows`` / ``add_rows`` /
#: ``columns``), so evaluation is store-blind.
IdStore = IdGraph | RunStore

Columns = tuple[np.ndarray, np.ndarray, np.ndarray]
#: A solution table: one int64 column per bound variable.
Env = dict[Variable, np.ndarray]


@dataclass(frozen=True)
class CompiledAtom:
    """A triple pattern resolved against the variables already bound."""

    #: ``(position, ground id)`` per constant position.
    consts: tuple[tuple[int, int], ...]
    #: ``(position, variable)`` per position bound by the environment.
    keys: tuple[tuple[int, Variable], ...]
    #: ``(position, variable)`` per first occurrence of a fresh variable.
    fresh: tuple[tuple[int, Variable], ...]
    #: ``(position, first position)`` per repeat of a fresh variable.
    checks: tuple[tuple[int, int], ...]


def compile_atom(
    atom: Atom,
    bound: Collection[Variable],
    lookup: Callable[[Term], int | None],
) -> CompiledAtom | None:
    """Resolve ``atom`` against the ``bound`` variables; constants are
    encoded through ``lookup``.  ``None`` when a constant has no id, so
    the pattern cannot match any store row."""
    consts: list[tuple[int, int]] = []
    keys: list[tuple[int, Variable]] = []
    fresh: dict[Variable, int] = {}
    checks: list[tuple[int, int]] = []
    for pos, term in enumerate(atom):
        if isinstance(term, Variable):
            if term in bound:
                keys.append((pos, term))
            elif term in fresh:
                checks.append((pos, fresh[term]))
            else:
                fresh[term] = pos
        else:
            tid = lookup(term)
            if tid is None:
                return None
            consts.append((pos, tid))
    return CompiledAtom(
        consts=tuple(consts),
        keys=tuple(keys),
        fresh=tuple((pos, var) for var, pos in fresh.items()),
        checks=tuple(checks),
    )


def extend(
    store: IdStore,
    atom: CompiledAtom,
    env: Env,
    n_env: int,
    exclude: IdGraph | None = None,
) -> tuple[Env, int, int]:
    """Extend the ``n_env``-row solution table ``env`` by ``atom``'s
    matches in ``store``; rows of ``exclude`` are not candidates.

    Returns ``(env, n, probes)``: the extended table, its row count, and
    the candidate rows surfaced before the repeated-variable checks.
    """
    items = [(pos, np.full(n_env, tid, dtype=np.int64))
             for pos, tid in atom.consts]
    items += [(pos, env[var]) for pos, var in atom.keys]
    if items:
        items.sort(key=lambda item: item[0])
        vals, reps = store.probe(
            tuple(pos for pos, _col in items),
            tuple(col for _pos, col in items),
        )
    else:
        # Fully unconstrained pattern: the cartesian product of the
        # current solutions with every store row.
        s, p, o = store.columns()
        reps = np.repeat(np.arange(n_env, dtype=np.int64), len(s))
        vals = (np.tile(s, n_env), np.tile(p, n_env), np.tile(o, n_env))
    if exclude is not None and len(reps):
        keep = ~exclude.contains_rows(*vals)
        vals, reps = _rows(vals, keep), reps[keep]
    probes = len(reps)
    if atom.checks and len(reps):
        keep = _repeats_agree(vals, atom.checks)
        vals, reps = _rows(vals, keep), reps[keep]
    out = {var: col[reps] for var, col in env.items()}
    for pos, var in atom.fresh:
        out[var] = vals[pos]
    return out, len(reps), probes


def _rows(cols: Columns, keep: np.ndarray) -> Columns:
    return cols[0][keep], cols[1][keep], cols[2][keep]


def _repeats_agree(
    cols: Columns, checks: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """Rows whose repeated-variable positions hold equal ids."""
    mask = cols[checks[0][0]] == cols[checks[0][1]]
    for pos, first in checks[1:]:
        mask &= cols[pos] == cols[first]
    return mask


def order_patterns(
    patterns: Sequence[Atom],
    bound: Iterable[Variable] = (),
    estimate: Callable[[Atom], int] | None = None,
) -> list[Atom]:
    """Greedy most-bound-first join order.

    The next pattern is the one with the most ground-or-bound positions;
    ties go to the smaller ``estimate`` (when given: a cardinality guess
    per pattern), then to fewer variables, then to query order.
    """
    remaining = list(patterns)
    ordered: list[Atom] = []
    seen = set(bound)

    def rank(atom: Atom) -> tuple[int, ...]:
        ground = sum(
            1 for t in atom if not isinstance(t, Variable) or t in seen)
        if estimate is None:
            return (ground, -len(atom.variables()))
        return (ground, -estimate(atom), -len(atom.variables()))

    while remaining:
        best = max(remaining, key=rank)
        remaining.remove(best)
        ordered.append(best)
        seen |= best.variables()
    return ordered


class SupportsIdSpace(Protocol):
    """What rule evaluation needs from a dictionary: constant encoding
    at construction, id-column kind masks at head validation."""

    def encode(self, term: Term) -> int: ...

    def resource_mask(self, ids: np.ndarray) -> np.ndarray: ...

    def uri_mask(self, ids: np.ndarray) -> np.ndarray: ...


def _scan(cols: Columns, atom: CompiledAtom) -> tuple[Env, int, int]:
    """The delta atom's matches in Δ: a constant mask over its columns
    (every surviving row is one probe), then the repeated-variable
    checks."""
    mask: np.ndarray | None = None
    for pos, tid in atom.consts:
        hit = cols[pos] == tid
        mask = hit if mask is None else mask & hit
    if mask is not None:
        cols = _rows(cols, mask)
    probes = len(cols[0])
    if atom.checks and probes:
        cols = _rows(cols, _repeats_agree(cols, atom.checks))
    return {var: cols[pos] for pos, var in atom.fresh}, len(cols[0]), probes


class RuleEvaluator:
    """One rule's semi-naive delta evaluation over an id store.

    For each body position i, Δ's matches of atom i seed the solution
    table and each remaining atom, in body order, is one :func:`extend`
    against the store; the head is a projection of the final table.  The
    plan decides how the per-position tables, which may share bindings,
    are combined:

    * a two-atom join (:attr:`PlanKind.JOIN`) probes the second half
      against ``G ∖ Δ``, so the halves are disjoint;
    * three or more atoms, and two-atom cross products
      (:attr:`PlanKind.GENERIC`), keep the distinct bindings.
    """

    def __init__(self, plan: RulePlan, dictionary: SupportsIdSpace) -> None:
        self.rule = plan.rule
        self._dict = dictionary
        body = plan.rule.body
        self._head = tuple(
            t if isinstance(t, Variable) else dictionary.encode(t)
            for t in plan.rule.head)
        self._exclude_second = plan.kind is PlanKind.JOIN
        #: Column order of the binding matrix the distinct-bindings path
        #: stacks (``None``: no dedup).
        self._unique = (
            plan.var_order
            if plan.kind is PlanKind.GENERIC and len(body) > 1 else None)
        orders = []
        for i, first in enumerate(body):
            steps = [_compile_rule_atom(first, (), dictionary)]
            bound = set(first.variables())
            for j, atom in enumerate(body):
                if j != i:
                    steps.append(_compile_rule_atom(atom, bound, dictionary))
                    bound |= atom.variables()
            orders.append(tuple(steps))
        self._orders = tuple(orders)

    def eval_delta(
        self, graph: IdStore, delta: IdGraph, stats: EngineStats
    ) -> Columns:
        """Valid head rows of every derivation with at least one body
        atom in ``delta`` and the rest in ``graph`` (pre-dedup)."""
        cols = delta.columns()
        parts: list[tuple[Env, int]] = []
        for i, (first, *rest) in enumerate(self._orders):
            env, n, probes = _scan(cols, first)
            stats.join_probes += probes
            exclude = delta if self._exclude_second and i == 1 else None
            for atom in rest:
                if n == 0:
                    break
                env, n, probes = extend(graph, atom, env, n, exclude)
                stats.join_probes += probes
            if n:
                parts.append((env, n))
        if not parts:
            return _EMPTY, _EMPTY, _EMPTY
        env, n = parts[0]
        if len(parts) > 1:
            env = {var: np.concatenate([e[var] for e, _n in parts])
                   for var in env}
            n = sum(part_n for _e, part_n in parts)
        if self._unique is not None:
            env, n = _distinct(env, n, self._unique)
        hs, hp, ho = (
            env[t] if isinstance(t, Variable)
            else np.full(n, t, dtype=np.int64)
            for t in self._head)
        valid = self._dict.resource_mask(hs) & self._dict.uri_mask(hp)
        return hs[valid], hp[valid], ho[valid]


def _compile_rule_atom(
    atom: Atom, bound: Collection[Variable], dictionary: SupportsIdSpace
) -> CompiledAtom:
    compiled = compile_atom(atom, bound, dictionary.encode)
    assert compiled is not None  # encode mints: every constant has an id
    return compiled


def _distinct(
    env: Env, n: int, order: tuple[Variable, ...]
) -> tuple[Env, int]:
    """The distinct bindings of ``env`` (rows sorted by ``order``)."""
    if not order:
        return env, min(n, 1)
    matrix = np.unique(np.stack([env[v] for v in order], axis=1), axis=0)
    return {v: matrix[:, k] for k, v in enumerate(order)}, len(matrix)
