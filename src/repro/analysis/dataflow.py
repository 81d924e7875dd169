"""Store-invariant dataflow verifier (ST300-series).

The id-native stores (`IdGraph`, `RunStore`, `TermDictionary`,
`EncodedGraph`) are mutable numpy structures whose correctness rests on
unwritten discipline: every mutation must invalidate the right lazily
cached artifact (sorted-index views, the LRU decode cache, kind arrays,
`resource_ids`/`edges`), every cache read must consult a staleness guard,
tombstones move only along blessed delete paths, and fresh term ids are
minted only by `PartitionDictionary`'s stripe arithmetic.  A single
forgotten invalidation corrupts closure results without any test failing
deterministically.

This module writes that discipline down as data — a :class:`StoreSpec`
per store class — and verifies it with a pure-AST dataflow pass over the
store sources, the same declarative-spec-plus-verifier shape as the
protocol pass (PROTO-series) in :mod:`repro.analysis.protocol`:

========  =====================================================================
ST300     a blessed mutator no longer invalidates a cache / bumps a version
ST301     a cache is read without its staleness guard, or from an unaudited
          method
ST302     a tombstone set is written (or passed to a mutating callee) outside
          the blessed delete paths
ST303     stripe-id minting arithmetic (``base + j*k + node_id``) outside the
          allowed sites in `PartitionDictionary` / the epoch-revive paths
ST304     direct column/state writes bypassing the mutation API (including
          writes from *other* modules reaching into a store's privates)
ST305     spec/source drift — a spec-named class, method or attribute no
          longer exists (fails loudly, like PROTO001)
========  =====================================================================

The pass is deliberately syntactic: it tracks ``self.<attr>`` reads,
writes, mutating attribute calls, and ``self.<attr>`` flowing as an
argument into a ``self.<method>(...)`` call.  Mutation through a local
alias (``rows = self._terms; rows.append(...)``) is invisible to it —
acceptable because the blessed writers are exactly the methods that use
that idiom, and the runtime sanitizer (:mod:`repro.analysis.sanitize`)
covers the dynamic side.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.analysis.protocol import _index_functions, module_source
from repro.analysis.report import Finding

PASS_NAME = "dataflow"


# -- the spec ------------------------------------------------------------------


@dataclass(frozen=True)
class StateRule:
    """A raw state/column attribute and the only methods allowed to write it."""

    attr: str
    writers: frozenset[str]


@dataclass(frozen=True)
class CacheRule:
    """A lazily cached artifact derived from store state.

    ``invalidators`` are mutators that must drop/clear the cache;
    ``readers`` are the audited read sites, each of which must consult
    ``guard`` (an attribute mentioned in the staleness test) or — when
    ``guard`` is None — an ``is None`` rebuild test.  ``writers`` may
    (re)populate the cache; ``exempt`` methods may touch it without a
    guard (e.g. byte accounting).
    """

    attr: str
    invalidators: frozenset[str]
    readers: frozenset[str]
    guard: str | None
    writers: frozenset[str]
    exempt: frozenset[str] = frozenset()


@dataclass(frozen=True)
class VersionRule:
    """A version counter every listed mutator must bump."""

    attr: str
    bumpers: frozenset[str]


@dataclass(frozen=True)
class TombstoneRule:
    """A tombstone store writable only along the blessed delete paths."""

    attr: str
    delete_paths: frozenset[str]


@dataclass(frozen=True)
class StoreSpec:
    """The invariant contract of one store class."""

    module: str
    cls: str
    state: tuple[StateRule, ...] = ()
    caches: tuple[CacheRule, ...] = ()
    versions: tuple[VersionRule, ...] = ()
    tombstones: tuple[TombstoneRule, ...] = ()


@dataclass(frozen=True)
class StripeRule:
    """A module scanned for stripe-minting arithmetic (ST303).

    ``allowed`` holds the qualnames permitted to compute
    ``... + <j> * k + node_id``-shaped expressions; the canonical minting
    site is ``PartitionDictionary.encode``, plus ``ClusterSpec.worker``,
    which derives a worker incarnation's *stripe index* (not a term id)
    the same way.
    """

    module: str
    allowed: frozenset[str] = frozenset()


def _fs(*names: str) -> frozenset[str]:
    return frozenset(names)


STORE_SPECS: tuple[StoreSpec, ...] = (
    StoreSpec(
        module="repro.rdf.graph",
        cls="Graph",
        state=(
            StateRule("_spo", _fs("add", "discard", "clear")),
            StateRule("_pos", _fs("add", "discard", "clear")),
            StateRule("_osp", _fs("add", "discard", "clear")),
            StateRule("_size", _fs("add", "discard", "clear")),
        ),
        versions=(VersionRule("_version", _fs("add", "discard", "clear")),),
    ),
    StoreSpec(
        module="repro.rdf.idstore",
        cls="IdGraph",
        state=(
            StateRule("_s", _fs("_reserve", "add_rows", "delete_rows")),
            StateRule("_p", _fs("_reserve", "add_rows", "delete_rows")),
            StateRule("_o", _fs("_reserve", "add_rows", "delete_rows")),
            StateRule("_n", _fs("add_rows", "delete_rows")),
        ),
        caches=(
            CacheRule(
                "_views",
                invalidators=_fs("delete_rows"),
                readers=_fs("sorted_view", "_view_parts"),
                guard="_n",
                writers=_fs("_rebuild"),
                exempt=_fs("memory_bytes"),
            ),
            CacheRule(
                "_tail_views",
                invalidators=_fs("delete_rows"),
                readers=_fs("_view_parts"),
                guard="_n",
                writers=_fs("_rebuild", "_view_parts"),
                exempt=_fs("memory_bytes"),
            ),
        ),
        versions=(VersionRule("_version", _fs("add_rows", "delete_rows")),),
    ),
    StoreSpec(
        module="repro.rdf.runstore",
        cls="RunStore",
        state=(
            StateRule("_tail", _fs("add_rows", "delete_rows", "_seal")),
            StateRule("_runs", _fs("_seal", "_compact")),
            StateRule("_serial", _fs("_next_serial")),
            StateRule("_cache", _fs("_cache_get", "_cache_put", "_retire")),
            StateRule("_cache_used", _fs("_cache_put", "_retire")),
        ),
        versions=(VersionRule("_version", _fs("add_rows", "delete_rows")),),
        tombstones=(
            TombstoneRule("_tombs", _fs("add_rows", "delete_rows", "_compact")),
        ),
    ),
    StoreSpec(
        module="repro.rdf.idquery",
        cls="IdIndex",
        caches=(
            # The id-encoded mirror an index keeps when it starts from a
            # term graph: rebuilt inside ``current`` whenever the graph's
            # version moved past the ``_key`` the mirror was built at.
            # No in-class invalidators — invalidation is the version-key
            # comparison itself.  (Over an id-native owner ``current``
            # returns the owner's live store and caches nothing.)
            CacheRule(
                "_mirror",
                invalidators=_fs(),
                readers=_fs("current"),
                guard="_key",
                writers=_fs("current"),
            ),
        ),
    ),
    StoreSpec(
        module="repro.rdf.stores",
        cls="TermView",
        caches=(
            # The term views of MaterializedKB (``graph`` / ``base_graph``)
            # and of a parallel run's result (``RunOutput.graph``):
            # a decoded Graph snapshot keyed on (store, store version).
            # No in-class invalidators — a write moves the store's
            # version, and ``of`` drops the snapshot on key mismatch.
            CacheRule(
                "_graph",
                invalidators=_fs(),
                readers=_fs("of"),
                guard="_key",
                writers=_fs("of"),
            ),
        ),
    ),
    StoreSpec(
        module="repro.rdf.dictionary",
        cls="TermDictionary",
        state=(
            StateRule("_to_id", _fs("encode", "encode_many")),
            StateRule("_terms", _fs("encode", "encode_many")),
            StateRule("_kinds", _fs("encode", "encode_many")),
        ),
        caches=(
            CacheRule(
                "_kind_arr",
                invalidators=_fs("encode", "encode_many"),
                readers=_fs("_kind_array"),
                guard=None,
                writers=_fs("_kind_array"),
            ),
        ),
    ),
    StoreSpec(
        module="repro.rdf.dictionary",
        cls="PartitionDictionary",
        state=(
            StateRule("_minted", _fs("encode")),
            StateRule("_to_id", _fs("encode", "apply_delta")),
            StateRule("_by_id", _fs("encode", "apply_delta")),
            StateRule("_kind_by_id", _fs("encode", "apply_delta")),
        ),
    ),
    StoreSpec(
        module="repro.rdf.dictionary",
        cls="EncodedGraph",
        state=(
            StateRule("s_ids", _fs("append")),
            StateRule("p_ids", _fs("append")),
            StateRule("o_ids", _fs("append")),
        ),
        caches=(
            CacheRule(
                "_resource_ids",
                invalidators=_fs("append"),
                readers=_fs("resource_ids"),
                guard=None,
                writers=_fs("resource_ids"),
            ),
            CacheRule(
                "_edges",
                invalidators=_fs("append"),
                readers=_fs("edges"),
                guard=None,
                writers=_fs("edges"),
            ),
        ),
    ),
    StoreSpec(
        module="repro.serving.server",
        cls="WorkerResultCache",
        caches=(
            # The serving tier's per-worker pattern answers, keyed on the
            # worker store's version at compute time.  No in-class
            # invalidators — a write path that bumps the store version
            # invalidates by key mismatch inside ``lookup`` (its
            # ``entry is None or entry[0] != version`` test is the
            # guard); ``lookup`` also writes the OrderedDict for LRU
            # recency, hence its place among the writers.
            CacheRule(
                "_entries",
                invalidators=_fs(),
                readers=_fs("lookup"),
                guard=None,
                writers=_fs("store", "lookup"),
                exempt=_fs("__len__"),
            ),
        ),
        state=(
            StateRule("hits", _fs("lookup")),
            StateRule("misses", _fs("lookup")),
        ),
    ),
    StoreSpec(
        module="repro.serving.server",
        cls="KBServer",
        # Single-writer discipline: each lifetime counter has exactly one
        # blessed writing method (the serve loop owns served/applied/
        # batches; admission owns rejected), so ``stats`` snapshots are
        # consistent without locking.
        state=(
            StateRule("_served", _fs("_handle")),
            StateRule("_applied", _fs("_handle")),
            StateRule("_batches", _fs("_serve_loop")),
            StateRule("_rejected", _fs("_enqueue")),
        ),
    ),
)

STRIPE_RULES: tuple[StripeRule, ...] = (
    StripeRule(
        module="repro.rdf.dictionary",
        allowed=_fs("PartitionDictionary.encode"),
    ),
    # A worker incarnation's *stripe index* (node + epoch*k) has the same
    # arithmetic shape; the cluster spec's node factory is the one place
    # it is computed, so a second copy in any executor fails loudly.
    StripeRule(
        module="repro.parallel.cluster", allowed=_fs("ClusterSpec.worker")
    ),
    StripeRule(module="repro.parallel.async_backend"),
    StripeRule(module="repro.parallel.mp_backend"),
    StripeRule(module="repro.parallel.hybrid"),
    StripeRule(module="repro.parallel.worker"),
    StripeRule(module="repro.parallel.driver"),
    StripeRule(module="repro.datalog.columnar"),
)

#: Modules outside the store sources scanned for foreign writes into
#: spec-protected attributes (the cross-module half of ST304).
CONSUMER_MODULES: tuple[str, ...] = (
    # The join step probes every store kind; it reads, never writes.
    "repro.datalog.join",
    "repro.datalog.columnar",
    "repro.datalog.incremental",
    "repro.datalog.engine",
    "repro.parallel.worker",
    "repro.parallel.async_backend",
    "repro.parallel.driver",
    # The distributed query coordinator reads worker stores and gathers
    # their batches; it must never reach into store privates.
    "repro.parallel.query",
    "repro.owl.kb",
    # The runtime sanitizer reads store privates but must never mutate
    # them; the foreign-write scan keeps that one-way promise checked.
    "repro.analysis.sanitize",
    # The serving load driver reads server stats; same one-way promise.
    "repro.serving.loadgen",
)

#: Attribute calls that mutate their receiver.
_MUTATING_CALLS: frozenset[str] = frozenset(
    {
        "add",
        "add_rows",
        "append",
        "clear",
        "delete_rows",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


# -- per-method event collection -----------------------------------------------


@dataclass
class _Events:
    """What one method does to each ``self.<attr>``: first line per kind."""

    writes: dict[str, int] = field(default_factory=dict)
    reads: dict[str, int] = field(default_factory=dict)
    flows: dict[str, int] = field(default_factory=dict)
    dyn_write: int | None = None


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` when ``node`` is exactly ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _store_targets(target: ast.expr) -> Iterator[tuple[str, int]]:
    """Attributes written by one assignment/delete target.

    Covers ``self.A = ...``, ``self.A[i] = ...``, ``del self.A[i]`` and
    tuple/chained unpacking of the above.
    """
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _store_targets(elt)
        return
    attr = _self_attr(target)
    if attr is not None:
        yield attr, target.lineno
        return
    if isinstance(target, ast.Subscript):
        attr = _self_attr(target.value)
        if attr is not None:
            yield attr, target.lineno


def _method_events(func: ast.AST) -> _Events:
    ev = _Events()
    for node in ast.walk(func):
        targets: Sequence[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for t in targets:
            for attr, line in _store_targets(t):
                ev.writes.setdefault(attr, line)
        if isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Name)
                and fn.id == "setattr"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
            ):
                ev.dyn_write = ev.dyn_write or node.lineno
            if isinstance(fn, ast.Attribute):
                recv = _self_attr(fn.value)
                if recv is not None and fn.attr in _MUTATING_CALLS:
                    ev.writes.setdefault(recv, node.lineno)
                if _self_attr(fn) is not None:
                    # self.<method>(..., self.A, ...): A escapes into a
                    # callee that may mutate it (e.g. _compact passing
                    # drop=self._tombs to _merge_indexes).
                    args: list[ast.expr] = list(node.args)
                    args.extend(kw.value for kw in node.keywords)
                    for arg in args:
                        a = _self_attr(arg)
                        if a is not None:
                            ev.flows.setdefault(a, node.lineno)
        attr2 = _self_attr(node)
        if attr2 is not None and isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                ev.reads.setdefault(attr2, node.lineno)
    return ev


def _class_def(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _class_methods(cls: ast.ClassDef) -> dict[str, ast.AST]:
    return {
        n.name: n
        for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _slot_names(cls: ast.ClassDef) -> set[str]:
    out: set[str] = set()
    for node in cls.body:
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id == "__slots__":
                    value = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "__slots__":
                value = node.value
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    out.add(elt.value)
    return out


def _mentions_guard(func: ast.AST, guard: str) -> bool:
    """Does the method read ``self.<guard>`` anywhere (staleness test)?"""
    for node in ast.walk(func):
        if _self_attr(node) == guard and isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                return True
    return False


def _has_none_guard(func: ast.AST) -> bool:
    """Does the method contain an ``is None`` / ``is not None`` test?"""
    for node in ast.walk(func):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            comparands = [node.left, *node.comparators]
            if any(
                isinstance(c, ast.Constant) and c.value is None for c in comparands
            ):
                return True
    return False


# -- ST303: stripe-minting arithmetic ------------------------------------------


def _add_terms(node: ast.expr) -> list[ast.expr]:
    """Flatten an ``a + b + c`` chain into its terms."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _add_terms(node.left) + _add_terms(node.right)
    return [node]


def _trailing_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_stripe_expr(node: ast.expr) -> bool:
    """``... + <j> * k + node_id``-shaped: a Mult-by-``k`` term plus a
    ``node_id``/``node`` term in one Add chain."""
    terms = _add_terms(node)
    if len(terms) < 2:
        return False
    has_mult_by_k = False
    has_node = False
    for term in terms:
        if isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult):
            sides = (_trailing_name(term.left), _trailing_name(term.right))
            if "k" in sides or "stripes" in sides:
                has_mult_by_k = True
        name = _trailing_name(term)
        if name in ("node_id", "node"):
            has_node = True
    return has_mult_by_k and has_node


def _stripe_sites(tree: ast.Module) -> list[tuple[str, int]]:
    """``(qualname, line)`` of every stripe-shaped expression."""
    sites: list[tuple[str, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif (
                isinstance(child, ast.BinOp)
                and isinstance(child.op, ast.Add)
                and _is_stripe_expr(child)
            ):
                sites.append((prefix.rstrip("."), child.lineno))
            else:
                visit(child, prefix)

    visit(tree, "")
    return sites


# -- the checks ----------------------------------------------------------------


def _finding(code: str, message: str, rel: str, line: int | None = None) -> Finding:
    return Finding(code, message, path=rel, line=line, pass_name=PASS_NAME)


def _check_store(spec: StoreSpec, tree: ast.Module, rel: str) -> list[Finding]:
    out: list[Finding] = []
    cls = _class_def(tree, spec.cls)
    if cls is None:
        out.append(
            _finding(
                "ST305",
                f"class {spec.cls} named by the store spec does not exist in "
                f"{spec.module} — the spec drifted from the code",
                rel,
            )
        )
        return out
    methods = _class_methods(cls)
    events = {name: _method_events(fn) for name, fn in methods.items()}
    slots = _slot_names(cls)
    known_attrs: set[str] = set(slots)
    for ev in events.values():
        known_attrs.update(ev.writes)
        known_attrs.update(ev.reads)

    def check_named(names: frozenset[str], role: str) -> None:
        for m in sorted(names):
            if m not in methods:
                out.append(
                    _finding(
                        "ST305",
                        f"{spec.cls}.{m} named by the store spec ({role}) does "
                        "not exist — the spec drifted from the code",
                        rel,
                        cls.lineno,
                    )
                )

    def check_attr(attr: str, role: str) -> None:
        if attr not in known_attrs:
            out.append(
                _finding(
                    "ST305",
                    f"{spec.cls}.{attr} named by the store spec ({role}) is "
                    "never defined — the spec drifted from the code",
                    rel,
                    cls.lineno,
                )
            )

    # -- version counters (ST300 missing bump, ST304 rogue bump) --
    for vrule in spec.versions:
        check_attr(vrule.attr, "version counter")
        check_named(vrule.bumpers, f"bumpers of {vrule.attr}")
        for m in sorted(vrule.bumpers):
            fn = methods.get(m)
            if fn is not None and vrule.attr not in events[m].writes:
                out.append(
                    _finding(
                        "ST300",
                        f"{spec.cls}.{m} mutates the store without bumping "
                        f"version counter {vrule.attr} — stale readers will "
                        "not notice the mutation",
                        rel,
                        getattr(fn, "lineno", None),
                    )
                )
        for m, ev in sorted(events.items()):
            if m in vrule.bumpers or m == "__init__":
                continue
            if vrule.attr in ev.writes:
                out.append(
                    _finding(
                        "ST304",
                        f"{spec.cls}.{m} writes version counter {vrule.attr} "
                        "outside the blessed bumpers "
                        f"({', '.join(sorted(vrule.bumpers))})",
                        rel,
                        ev.writes[vrule.attr],
                    )
                )

    # -- caches (ST300 missing invalidation, ST301 unguarded/unaudited reads,
    #    ST304 rogue writes) --
    for crule in spec.caches:
        check_attr(crule.attr, "cached artifact")
        declared = (
            crule.invalidators
            | crule.readers
            | crule.writers
            | crule.exempt
            | {"__init__"}
        )
        check_named(
            crule.invalidators | crule.readers | crule.writers | crule.exempt,
            f"cache rule for {crule.attr}",
        )
        for m in sorted(crule.invalidators):
            fn = methods.get(m)
            if fn is not None and crule.attr not in events[m].writes:
                out.append(
                    _finding(
                        "ST300",
                        f"{spec.cls}.{m} mutates the store without "
                        f"invalidating cached {crule.attr} — subsequent reads "
                        "would see a stale artifact",
                        rel,
                        getattr(fn, "lineno", None),
                    )
                )
        for m in sorted(crule.readers):
            fn = methods.get(m)
            if fn is None:
                continue
            guarded = (
                _mentions_guard(fn, crule.guard)
                if crule.guard is not None
                else _has_none_guard(fn)
            )
            if not guarded:
                what = (
                    f"staleness guard {crule.guard}"
                    if crule.guard is not None
                    else "an is-None rebuild guard"
                )
                out.append(
                    _finding(
                        "ST301",
                        f"{spec.cls}.{m} reads cached {crule.attr} without "
                        f"consulting {what}",
                        rel,
                        getattr(fn, "lineno", None),
                    )
                )
        for m, ev in sorted(events.items()):
            if m in declared:
                continue
            if crule.attr in ev.writes:
                out.append(
                    _finding(
                        "ST304",
                        f"{spec.cls}.{m} writes cached {crule.attr} outside "
                        "the audited writers "
                        f"({', '.join(sorted(crule.writers))})",
                        rel,
                        ev.writes[crule.attr],
                    )
                )
            elif crule.attr in ev.reads or crule.attr in ev.flows:
                line = ev.reads.get(crule.attr, ev.flows.get(crule.attr))
                out.append(
                    _finding(
                        "ST301",
                        f"{spec.cls}.{m} reads cached {crule.attr} outside "
                        "the audited readers "
                        f"({', '.join(sorted(crule.readers))}) — the read is "
                        "not covered by a staleness guard",
                        rel,
                        line,
                    )
                )

    # -- tombstones (ST302) --
    for trule in spec.tombstones:
        check_attr(trule.attr, "tombstone store")
        check_named(trule.delete_paths, f"delete paths of {trule.attr}")
        for m, ev in sorted(events.items()):
            if m in trule.delete_paths or m == "__init__":
                continue
            if trule.attr in ev.writes or trule.attr in ev.flows:
                line = ev.writes.get(trule.attr, ev.flows.get(trule.attr))
                out.append(
                    _finding(
                        "ST302",
                        f"{spec.cls}.{m} writes tombstone store {trule.attr} "
                        "outside the blessed delete paths "
                        f"({', '.join(sorted(trule.delete_paths))})",
                        rel,
                        line,
                    )
                )

    # -- raw state (ST304), incl. setattr escape hatches --
    all_writers: set[str] = {"__init__"}
    for srule in spec.state:
        all_writers.update(srule.writers)
    for srule in spec.state:
        check_attr(srule.attr, "state column")
        check_named(srule.writers, f"writers of {srule.attr}")
        for m, ev in sorted(events.items()):
            if m in srule.writers or m == "__init__":
                continue
            if srule.attr in ev.writes:
                out.append(
                    _finding(
                        "ST304",
                        f"{spec.cls}.{m} writes {srule.attr} bypassing the "
                        "mutation API (blessed writers: "
                        f"{', '.join(sorted(srule.writers))})",
                        rel,
                        ev.writes[srule.attr],
                    )
                )
    for m, ev in sorted(events.items()):
        if ev.dyn_write is not None and m not in all_writers:
            out.append(
                _finding(
                    "ST304",
                    f"{spec.cls}.{m} uses setattr(self, ...) outside the "
                    "blessed writers — dynamic writes bypass the dataflow "
                    "audit",
                    rel,
                    ev.dyn_write,
                )
            )
    return out


def _check_stripes(
    rule: StripeRule, tree: ast.Module, rel: str
) -> list[Finding]:
    out: list[Finding] = []
    seen: set[str] = set()
    for qual, line in _stripe_sites(tree):
        seen.add(qual)
        if qual not in rule.allowed:
            out.append(
                _finding(
                    "ST303",
                    "stripe-id arithmetic (base + j*k + node_id) outside "
                    f"PartitionDictionary: found in {qual or '<module>'} "
                    "— fresh ids must be minted through the dictionary",
                    rel,
                    line,
                )
            )
    index = _index_functions(tree)
    for qual in sorted(rule.allowed - seen):
        if qual not in index:
            out.append(
                _finding(
                    "ST305",
                    f"allowed stripe site {qual} no longer exists in "
                    f"{rule.module} — the spec drifted from the code",
                    rel,
                )
            )
    return out


def _protected_attrs(specs: Sequence[StoreSpec]) -> frozenset[str]:
    attrs: set[str] = set()
    for spec in specs:
        attrs.update(r.attr for r in spec.state)
        attrs.update(r.attr for r in spec.caches)
        attrs.update(r.attr for r in spec.versions)
        attrs.update(r.attr for r in spec.tombstones)
    # Public id columns are legitimately *read* everywhere and written by
    # sibling value classes (e.g. the wire messages own their own s_ids);
    # the foreign-write scan only polices private names.
    return frozenset(a for a in attrs if a.startswith("_"))


def _check_foreign_writes(
    tree: ast.Module, rel: str, protected: frozenset[str]
) -> list[Finding]:
    """Writes to protected private attrs through a non-``self`` receiver."""
    out: list[Finding] = []

    def foreign(node: ast.expr) -> str | None:
        """``attr`` when node is ``<recv>.<protected>`` with recv != self."""
        if not isinstance(node, ast.Attribute) or node.attr not in protected:
            return None
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return None
        return node.attr

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.")
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
                continue
            targets: Sequence[ast.expr] = ()
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = (child.target,)
            elif isinstance(child, ast.Delete):
                targets = child.targets
            for t in targets:
                nodes: list[ast.expr] = [t]
                if isinstance(t, (ast.Tuple, ast.List)):
                    nodes = list(t.elts)
                for n in nodes:
                    tgt = n.value if isinstance(n, ast.Subscript) else n
                    attr = foreign(tgt)
                    if attr is not None:
                        out.append(
                            _finding(
                                "ST304",
                                f"{prefix.rstrip('.') or '<module>'} writes "
                                f"store-private {attr} of a foreign object — "
                                "mutations must go through the store's API",
                                rel,
                                n.lineno,
                            )
                        )
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _MUTATING_CALLS
            ):
                attr = foreign(child.func.value)
                if attr is not None:
                    out.append(
                        _finding(
                            "ST304",
                            f"{prefix.rstrip('.') or '<module>'} calls "
                            f".{child.func.attr}() on store-private {attr} of "
                            "a foreign object — mutations must go through "
                            "the store's API",
                            rel,
                            child.lineno,
                        )
                    )
            visit(child, prefix)

    visit(tree, "")
    return out


# -- entry points --------------------------------------------------------------


def verify_stores(
    specs: Sequence[StoreSpec] = STORE_SPECS,
    stripe_rules: Sequence[StripeRule] = STRIPE_RULES,
    sources: Mapping[str, str] | None = None,
) -> list[Finding]:
    """Run every store-invariant check; returns findings (empty == clean).

    ``sources`` overrides module source text by dotted name — the hook the
    drift tests use to verify that re-introducing a missing invalidation
    or a rogue tombstone write is actually caught.
    """
    findings: list[Finding] = []
    protected = _protected_attrs(specs)
    modules = (
        {s.module for s in specs}
        | {r.module for r in stripe_rules}
        | set(CONSUMER_MODULES)
    )
    trees: dict[str, tuple[ast.Module, str]] = {}
    for module in sorted(modules):
        rel = module.replace(".", "/") + ".py"
        try:
            text = module_source(module, sources)
            trees[module] = (ast.parse(text), rel)
        except (OSError, SyntaxError) as exc:
            findings.append(
                _finding(
                    "ST305",
                    f"cannot load module {module} for verification: {exc}",
                    rel,
                )
            )
    for spec in specs:
        if spec.module in trees:
            tree, rel = trees[spec.module]
            findings.extend(_check_store(spec, tree, rel))
    for rule in stripe_rules:
        if rule.module in trees:
            tree, rel = trees[rule.module]
            findings.extend(_check_stripes(rule, tree, rel))
    store_modules = {s.module for s in specs}
    for module, (tree, rel) in sorted(trees.items()):
        if module not in store_modules:
            findings.extend(_check_foreign_writes(tree, rel, protected))
    return findings


def store_spec_table(specs: Sequence[StoreSpec] = STORE_SPECS) -> str:
    """The store specs as markdown (for docs and ``--store-spec``)."""
    lines = [
        "| store | state (writers) | caches (guard) | tombstones | version |",
        "|---|---|---|---|---|",
    ]
    for spec in specs:
        state = "; ".join(
            f"{r.attr} ({', '.join(sorted(r.writers))})" for r in spec.state
        )
        caches = "; ".join(
            f"{r.attr} ({r.guard or 'is-None'})" for r in spec.caches
        )
        tombs = "; ".join(
            f"{r.attr} ({', '.join(sorted(r.delete_paths))})"
            for r in spec.tombstones
        )
        versions = "; ".join(
            f"{r.attr} ({', '.join(sorted(r.bumpers))})" for r in spec.versions
        )
        lines.append(
            f"| {spec.cls} | {state or '-'} | {caches or '-'} | "
            f"{tombs or '-'} | {versions or '-'} |"
        )
    return "\n".join(lines)
