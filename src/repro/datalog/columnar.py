"""Vectorized id-space semi-naive kernels.

This module is the execution half of the columnar fixpoint path (storage
is :class:`repro.rdf.idstore.IdGraph`): it runs the *existing*
:class:`~repro.datalog.plan.RulePlan`s over int64 id columns in batches,
replacing the compiled kernels' per-tuple Python probes with merge joins
over sorted views.  Rule constants are encoded into id space exactly once,
at kernel construction; after that a fixpoint never touches a term object.

Semi-naive structure mirrors :mod:`repro.datalog.compiled` exactly:

* 1-atom rules — a constant-mask scan of the delta columns
  (:class:`ScanIdKernel`);
* 2-atom single-join rules — the two disjoint halves ``(Δ ⋈ G)`` and
  ``(Δ ⋈ (G ∖ Δ))`` as vectorized merge joins (:class:`JoinIdKernel`);
* everything else — :class:`GenericIdKernel`, a vectorized transliteration
  of the generic interpreter's left-deep join with per-delta-position
  binding dedup.

Accounting equivalence
----------------------

The deterministic work counters keep the *same meaning* as the term-level
engines, candidate for candidate, so simulated-cluster work stays
comparable across engine choices:

* ``join_probes`` — one per candidate row surviving the constant/bound-key
  index restriction, counted *before* repeated-variable equality checks
  (like ``_iter_candidates``); half B resolves Δ-membership inside the
  restricted relation, so excluded candidates are neither yielded nor
  counted.
* ``firings`` — one per valid head instantiation (subject is a resource,
  predicate a URI — the vectorized equivalent of ``Triple``'s TypeError),
  pre-dedup; the generic kernel counts distinct bindings, matching the
  interpreter's seen-set.
* ``derived`` — post-dedup new rows per round; ``rules_dispatched`` /
  ``rules_skipped`` come from an id-keyed predicate dispatch identical to
  :class:`~repro.datalog.plan.DispatchIndex`.

A fixpoint computed by :class:`ColumnarEngine` therefore reports stats
*identical* to ``SemiNaiveEngine(compile_rules=True)`` on the same input —
the differential tests assert this field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, cast

import numpy as np

from repro.datalog.ast import Rule
from repro.datalog.plan import AtomSpec, PlanKind, RulePlan, build_plan
from repro.rdf.idstore import IdGraph, concat_columns, member_mask, pack_columns
from repro.rdf.runstore import RunStore
from repro.rdf.terms import Term

if TYPE_CHECKING:
    from repro.datalog.engine import EngineStats

_EMPTY = np.empty(0, dtype=np.int64)

#: Either triple store the kernels can evaluate over: both expose the
#: same value-probe surface (``probe`` / ``contains_rows`` /
#: ``add_rows`` / ``columns``), so the fixpoint below is store-blind.
IdStore = IdGraph | RunStore

#: (position, slot) pair: a variable slot read from / written to a triple
#: position.
_Assign = tuple[int, int]
#: (position, position) equality constraint (repeated variable in an atom).
_EqCheck = tuple[int, int]
#: Per-position ground id (or None) of an atom pattern.
_Const = list[int | None]


class SupportsIdSpace(Protocol):
    """What the kernels need from a dictionary: constant encoding at
    construction, id-column kind masks at head validation."""

    def encode(self, term: Term) -> int: ...

    def resource_mask(self, ids: np.ndarray) -> np.ndarray: ...

    def uri_mask(self, ids: np.ndarray) -> np.ndarray: ...


#: Head template position: ``("g", id)`` or ``("v", slot)``.
_HeadSpec = tuple[tuple[str, int], tuple[str, int], tuple[str, int]]

Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def _encode_atom(
    spec: AtomSpec, bound: frozenset[int], dictionary: SupportsIdSpace
) -> tuple[_Const, list[_Assign], list[_Assign], list[_EqCheck]]:
    """Id-space analogue of ``compiled._compile_atom``: split an atom into
    ground ids, bound-slot key positions, first-occurrence slot writes, and
    repeated-free-variable equality checks."""
    const: _Const = [None, None, None]
    keys: list[_Assign] = []
    sets: list[_Assign] = []
    eqs: list[_EqCheck] = []
    first_free: dict[int, int] = {}
    for pos, (kind, val) in enumerate(spec):
        if kind == "g":
            const[pos] = dictionary.encode(cast(Term, val))
        else:
            slot = cast(int, val)
            if slot in bound:
                keys.append((pos, slot))
            elif slot in first_free:
                eqs.append((first_free[slot], pos))
            else:
                first_free[slot] = pos
                sets.append((pos, slot))
    return const, keys, sets, eqs


def _encode_head(spec: AtomSpec, dictionary: SupportsIdSpace) -> _HeadSpec:
    out = []
    for kind, val in spec:
        if kind == "g":
            out.append(("g", dictionary.encode(cast(Term, val))))
        else:
            out.append(("v", cast(int, val)))
    return (out[0], out[1], out[2])


def _const_filter(
    cols: Columns, const: _Const, stats: "EngineStatsLike"
) -> Columns:
    """Delta-side constant restriction.  Every surviving row is one join
    probe (the index walk's yield), counted before equality checks."""
    mask: np.ndarray | None = None
    for pos in range(3):
        cid = const[pos]
        if cid is None:
            continue
        m = cols[pos] == cid
        mask = m if mask is None else mask & m
    if mask is None:
        stats.join_probes += len(cols[0])
        return cols
    stats.join_probes += int(mask.sum())
    return (cols[0][mask], cols[1][mask], cols[2][mask])


def _eq_filter(
    cols: Columns, eqs: list[_EqCheck], reps: np.ndarray | None = None
) -> tuple[Columns, np.ndarray | None]:
    """Repeated-variable equality checks (applied after probe counting,
    like the kernels' post-yield eq loop)."""
    if not eqs or len(cols[0]) == 0:
        return cols, reps
    mask = cols[eqs[0][0]] == cols[eqs[0][1]]
    for a, b in eqs[1:]:
        mask = mask & (cols[a] == cols[b])
    cols = (cols[0][mask], cols[1][mask], cols[2][mask])
    return cols, (reps[mask] if reps is not None else None)


def _probe(
    source: IdStore,
    const: _Const,
    keys: list[_Assign],
    env: dict[int, np.ndarray],
    n_env: int,
) -> tuple[Columns, np.ndarray]:
    """Batch index probe: for each of ``n_env`` binding rows, the
    *values* of the source rows matching the pattern ``const + bound
    slots``.  Returns ``((s, p, o), env_index_per_row)`` — value-based
    so dense and run stores answer it identically."""
    items: list[tuple[int, np.ndarray]] = []
    for pos in range(3):
        cid = const[pos]
        if cid is not None:
            items.append((pos, np.full(n_env, cid, dtype=np.int64)))
    for pos, slot in keys:
        items.append((pos, env[slot]))
    if not items:
        # Fully unconstrained pattern: cartesian with the whole source.
        cs, cp, co = source.columns()
        n = len(cs)
        reps = np.repeat(np.arange(n_env, dtype=np.int64), n)
        return (np.tile(cs, n_env), np.tile(cp, n_env),
                np.tile(co, n_env)), reps
    items.sort(key=lambda item: item[0])
    positions = tuple(pos for pos, _arr in items)
    return source.probe(positions, tuple(arr for _pos, arr in items))


def _build_head(
    head: _HeadSpec, env: dict[int, np.ndarray], n: int
) -> Columns:
    out: list[np.ndarray] = []
    for kind, val in head:
        if kind == "g":
            out.append(np.full(n, val, dtype=np.int64))
        else:
            out.append(env[val])
    return (out[0], out[1], out[2])


class EngineStatsLike(Protocol):
    """The counter surface the kernels mutate (satisfied by
    :class:`repro.datalog.engine.EngineStats`; a Protocol here avoids a
    circular import with the engine module)."""

    join_probes: int


class ScanIdKernel:
    """Vectorized scan-and-rewrite for 1-atom rules: a constant mask over
    the delta columns, then head rewrite of every surviving row."""

    kind = PlanKind.SCAN

    def __init__(
        self, plan: RulePlan, dictionary: SupportsIdSpace
    ) -> None:
        self.rule = plan.rule
        self.plan = plan
        self._dict = dictionary
        const, _keys, sets, eqs = _encode_atom(
            plan.atoms[0].spec, frozenset(), dictionary)
        self._const = const
        self._sets = sets
        self._eqs = eqs
        self._head = _encode_head(plan.head.spec, dictionary)

    def eval_delta(
        self, graph: IdStore, delta: IdGraph, stats: EngineStatsLike
    ) -> Columns:
        cand = _const_filter(delta.columns(), self._const, stats)
        cand, _ = _eq_filter(cand, self._eqs)
        n = len(cand[0])
        if n == 0:
            return _EMPTY, _EMPTY, _EMPTY
        env = {slot: cand[pos] for pos, slot in self._sets}
        hs, hp, ho = _build_head(self._head, env, n)
        valid = self._dict.resource_mask(hs) & self._dict.uri_mask(hp)
        return hs[valid], hp[valid], ho[valid]


class JoinIdKernel:
    """Vectorized single-join executor for 2-atom rules.

    Each semi-naive half scans the delta with a constant mask, then probes
    the store's sorted view for the other atom in one batched
    searchsorted; half B drops candidates that are Δ-members *before*
    probe counting, exactly like the compiled kernel's restricted-relation
    walk, which keeps the halves disjoint and the probe counts identical.
    """

    kind = PlanKind.JOIN

    def __init__(
        self, plan: RulePlan, dictionary: SupportsIdSpace
    ) -> None:
        self.rule = plan.rule
        self.plan = plan
        self._dict = dictionary
        self._head = _encode_head(plan.head.spec, dictionary)
        halves = []
        for delta_pos in (0, 1):
            datom = plan.atoms[delta_pos]
            oatom = plan.atoms[1 - delta_pos]
            d_const, _dk, d_sets, d_eqs = _encode_atom(
                datom.spec, frozenset(), dictionary)
            o_const, o_keys, o_sets, o_eqs = _encode_atom(
                oatom.spec, datom.slots, dictionary)
            halves.append(
                (d_const, d_sets, d_eqs, o_const, o_keys, o_sets, o_eqs))
        self._halves = tuple(halves)

    def eval_delta(
        self, graph: IdStore, delta: IdGraph, stats: EngineStatsLike
    ) -> Columns:
        parts: list[Columns] = []
        for half_no, half in enumerate(self._halves):
            d_const, d_sets, d_eqs, o_const, o_keys, o_sets, o_eqs = half
            dcand = _const_filter(delta.columns(), d_const, stats)
            dcand, _ = _eq_filter(dcand, d_eqs)
            n_d = len(dcand[0])
            if n_d == 0:
                continue
            env = {slot: dcand[pos] for pos, slot in d_sets}
            cand, reps = _probe(graph, o_const, o_keys, env, n_d)
            if half_no == 1 and len(cand[0]):
                # (Δ ⋈ G∖Δ): the restriction resolves Δ-members away
                # before they are yielded — they are not join probes.
                dkeys, _perm = delta.sorted_view((0, 1, 2))
                keep = ~member_mask(dkeys, pack_columns(cand))
                cand = (cand[0][keep], cand[1][keep], cand[2][keep])
                reps = reps[keep]
            stats.join_probes += len(cand[0])
            cand, reps_f = _eq_filter(cand, o_eqs, reps)
            reps = reps_f if reps_f is not None else reps
            n_c = len(cand[0])
            if n_c == 0:
                continue
            full_env = {slot: arr[reps] for slot, arr in env.items()}
            for pos, slot in o_sets:
                full_env[slot] = cand[pos]
            hs, hp, ho = _build_head(self._head, full_env, n_c)
            valid = self._dict.resource_mask(hs) & self._dict.uri_mask(hp)
            parts.append((hs[valid], hp[valid], ho[valid]))
        return concat_columns(parts)


class GenericIdKernel:
    """Vectorized transliteration of the generic interpreter for rule
    shapes the specialized kernels don't cover (3+ atoms, cross products).

    For every delta position it evaluates the left-deep join in the same
    ``[delta_pos] + rest`` order over a growing binding matrix, counting
    one probe per index hit before repeated-variable verification; the
    interpreter's seen-set dedup becomes a row-unique over the stacked
    binding matrices (bindings are fully ground after the last atom, so
    the two are equivalent).
    """

    kind = PlanKind.GENERIC

    def __init__(
        self, plan: RulePlan, dictionary: SupportsIdSpace
    ) -> None:
        self.rule = plan.rule
        self.plan = plan
        self._dict = dictionary
        self._nvars = plan.nvars
        self._n_atoms = len(plan.atoms)
        self._head = _encode_head(plan.head.spec, dictionary)
        orders = []
        for delta_pos in range(self._n_atoms):
            order = [delta_pos] + [
                j for j in range(self._n_atoms) if j != delta_pos
            ]
            steps = []
            bound: frozenset[int] = frozenset()
            for j in order:
                atom = plan.atoms[j]
                const, keys, sets, eqs = _encode_atom(
                    atom.spec, bound, dictionary)
                steps.append((j == delta_pos, const, keys, sets, eqs))
                bound = bound | atom.slots
            orders.append(tuple(steps))
        self._orders = tuple(orders)

    def eval_delta(
        self, graph: IdStore, delta: IdGraph, stats: EngineStatsLike
    ) -> Columns:
        env_parts: list[np.ndarray] = []
        for steps in self._orders:
            env = np.zeros((1, self._nvars or 1), dtype=np.int64)
            for use_delta, const, keys, sets, eqs in steps:
                source: IdStore = delta if use_delta else graph
                bound_env = {slot: env[:, slot] for _pos, slot in keys}
                cand, reps = _probe(source, const, keys, bound_env, len(env))
                stats.join_probes += len(cand[0])
                cand, reps_f = _eq_filter(cand, eqs, reps)
                reps = reps_f if reps_f is not None else reps
                env = env[reps]
                for pos, slot in sets:
                    env[:, slot] = cand[pos]
                if len(env) == 0:
                    break
            if len(env):
                env_parts.append(env)
        if not env_parts:
            return _EMPTY, _EMPTY, _EMPTY
        all_env = np.vstack(env_parts)
        if self._n_atoms > 1:
            # The interpreter's cross-delta-position bindings dedup.
            all_env = np.unique(all_env, axis=0)
        env_cols = {
            slot: all_env[:, slot] for slot in range(self._nvars)
        }
        hs, hp, ho = _build_head(self._head, env_cols, len(all_env))
        valid = self._dict.resource_mask(hs) & self._dict.uri_mask(hp)
        return hs[valid], hp[valid], ho[valid]


IdKernel = ScanIdKernel | JoinIdKernel | GenericIdKernel


def compile_id_kernel(
    plan: RulePlan, dictionary: SupportsIdSpace
) -> IdKernel:
    """The columnar executor for a plan (every plan kind is covered — the
    columnar path needs no term-level fallback)."""
    if plan.kind is PlanKind.SCAN:
        return ScanIdKernel(plan, dictionary)
    if plan.kind is PlanKind.JOIN:
        return JoinIdKernel(plan, dictionary)
    return GenericIdKernel(plan, dictionary)


class IdDispatchIndex:
    """Predicate-id → rules dispatch, the id-space twin of
    :class:`~repro.datalog.plan.DispatchIndex` (same skip condition, same
    rule-order determinism)."""

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
    """Semi-naive fixpoint evaluator over an :class:`IdGraph`.

    The id-space core shared by ``SemiNaiveEngine(engine="columnar")``
    (which mirrors a term graph into id columns) and the id-native
    :class:`~repro.parallel.worker.PartitionWorker` (which feeds received
    ``EncodedBatch`` rows straight in).  Rule constants are encoded through
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
        self._kernels: list[IdKernel] = [
            compile_id_kernel(p, dictionary) for p in plans
        ]
        self._dispatch = IdDispatchIndex(plans, dictionary)

    @property
    def kernel_kinds(self) -> tuple[str, ...]:
        return tuple(k.kind.value for k in self._kernels)

    @property
    def kernels(self) -> list[IdKernel]:
        """The per-rule id kernels, in rule order — the evaluation surface
        :mod:`repro.datalog.incremental` drives for DRed phases."""
        return self._kernels

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
        # Imported here: engine.py imports this module lazily, so a
        # top-level import back would be circular.
        from repro.datalog.engine import EngineStats

        stats = EngineStats()
        current = IdGraph()
        if delta is None:
            current.add_rows(*graph.columns())
        else:
            graph.add_rows(*delta)
            current.add_rows(*delta)
        inferred_parts: list[Columns] = []
        n_rules = len(self._kernels)
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
                hs, hp, ho = self._kernels[i].eval_delta(
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
