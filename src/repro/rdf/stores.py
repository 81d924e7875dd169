"""What sits between an id store and its users: the one store factory
("dense or run, sanitized or not") and the decoded term view of a store.

Every store derives from :class:`~repro.rdf.versioned.Versioned`: its
``version`` moves exactly when its row set does, and anything derived
from its rows (sorted views, the decoded term view below, a query
mirror) is cached on the store through ``_cached`` against that version.

Production code builds every id store through :func:`make_store`.  The
sanitized store subclasses live in :mod:`repro.analysis.sanitize`, a
verifier package that imports :mod:`repro.datalog`; it is imported here
only when sanitizing is switched on, so a load with the sanitizer off
never pulls ``repro.analysis`` in.
"""

from __future__ import annotations

import os

from repro.rdf.dictionary import PartitionDictionary, TermDictionary, decode_rows
from repro.rdf.graph import Graph
from repro.rdf.idstore import IdGraph
from repro.rdf.runstore import RunStore

ENV_FLAG = "REPRO_SANITIZE"


def sanitize_enabled(explicit: bool | None = None) -> bool:
    """Resolve the sanitizer switch: an explicit ``sanitize=`` argument
    wins; otherwise the ``REPRO_SANITIZE`` environment variable decides
    (so ``REPRO_SANITIZE=1 pytest ...`` needs no call-site changes)."""
    if explicit is not None:
        return explicit
    return os.environ.get(ENV_FLAG, "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def store_kind(store: str | None, memory_budget_bytes: int | None = None) -> str:
    """Resolve and validate a ``store=`` choice: ``None`` derives it from
    whether a memory budget was given (a budget implies the run store)."""
    if store is None:
        return "run" if memory_budget_bytes is not None else "dense"
    if store not in ("dense", "run"):
        raise ValueError(f'store must be "dense" or "run", got {store!r}')
    return store


def make_store(
    store: str | None,
    *,
    capacity: int = 0,
    memory_budget_bytes: int | None = None,
    sanitize: bool | None = None,
    label: str = "store",
    seed: int = 0,
) -> IdGraph | RunStore:
    """The one id-store factory behind
    :class:`~repro.owl.kb.MaterializedKB`, the store ``SemiNaiveEngine``
    encodes into, and :class:`~repro.parallel.worker.PartitionWorker`.

    ``store``/``memory_budget_bytes`` resolve through :func:`store_kind`;
    ``sanitize`` through :func:`sanitize_enabled` (``None`` defers to
    ``REPRO_SANITIZE``).  The sanitized subclasses are selected only
    here, so the unsanitized path carries no overhead."""
    kind = store_kind(store, memory_budget_bytes)
    if sanitize_enabled(sanitize):
        from repro.analysis.sanitize import SanitizedIdGraph, SanitizedRunStore

        if kind == "run":
            return SanitizedRunStore(
                memory_budget_bytes=memory_budget_bytes, label=label, seed=seed
            )
        return SanitizedIdGraph(capacity=capacity, label=label, seed=seed)
    if kind == "run":
        return RunStore(memory_budget_bytes=memory_budget_bytes)
    return IdGraph(capacity=capacity)


def term_graph(
    dictionary: TermDictionary | PartitionDictionary, store: IdGraph | RunStore
) -> Graph:
    """``store`` decoded into a term :class:`Graph` — a snapshot cached on
    the store until its version moves (then decoded afresh, never
    patched)."""
    return store._cached(
        ("term_graph", dictionary),
        lambda: Graph(decode_rows(dictionary, *store.columns())))
