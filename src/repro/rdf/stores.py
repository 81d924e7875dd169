"""What sits between an id store and its users: the one store factory
("dense or run, sanitized or not") and the decoded term view of a store.

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


class TermView:
    """A decoded :class:`Graph` snapshot of one id store, cached against
    the store's version: reused while the store is unchanged, dropped —
    not patched — once the version moves (or the store is replaced)."""

    def __init__(self) -> None:
        #: (store, store version) the snapshot was decoded at; compared
        #: against the live store on every read (the staleness guard).
        self._key: tuple[IdGraph | RunStore, int] | None = None
        self._graph: Graph | None = None

    def of(
        self,
        dictionary: TermDictionary | PartitionDictionary,
        store: IdGraph | RunStore,
    ) -> Graph:
        key = self._key
        if (self._graph is None or key is None or key[0] is not store
                or key[1] != store.version):
            self._graph = Graph(decode_rows(dictionary, *store.columns()))
            self._key = (store, store.version)
        return self._graph
