"""One staleness idiom for everything derived from a mutable store.

A store (:class:`~repro.rdf.graph.Graph`, :class:`~repro.rdf.idstore.
IdGraph`, :class:`~repro.rdf.runstore.RunStore`, :class:`~repro.rdf.
dictionary.TermDictionary`, :class:`~repro.rdf.dictionary.EncodedGraph`)
derives from :class:`Versioned`.  Its mutators call :meth:`Versioned._bump`
when — and only when — the row (or term) set changes; everything computed
from the rows is read through :meth:`Versioned._cached`, which stores the
value with the version it was built at and rebuilds on a mismatch.  No
mutator names the caches it invalidates, so a new cache cannot be
forgotten by one.  The dataflow pass (:mod:`repro.analysis.dataflow`,
ST300) checks the other half: every declared mutator bumps, nothing else
does, and no store touches this bookkeeping directly.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterator, TypeVar

_T = TypeVar("_T")


class Versioned:
    """A monotone content version plus the values derived from it."""

    __slots__ = ("_version", "_derived")

    def __init__(self) -> None:
        self._version = 0
        #: key -> (version the value was built at, value).
        self._derived: dict[Hashable, tuple[int, Any]] = {}

    @property
    def version(self) -> int:
        """Moves if and only if the row set changed: caches keyed on it
        are invalidated by every mutation and by nothing else."""
        return self._version

    def _bump(self, rewrite: bool = False) -> None:
        """Record a row-set change.  ``rewrite``: existing rows were
        removed (row numbers shift), which every derived value — even one
        kept across appends — outlives, so all of them are dropped."""
        self._version += 1
        if rewrite:
            self._derived.clear()

    def _cached(
        self,
        key: Hashable,
        build: Callable[[], _T],
        *,
        across_appends: bool = False,
        stale: Callable[[_T], bool] | None = None,
    ) -> _T:
        """The value derived under ``key``: rebuilt when the version moved
        since it was built (``across_appends``: only after a rewrite), or
        when ``stale`` rejects it — the caller's rebuild policy for a
        value that stays correct over the rows it covers."""
        entry = self._derived.get(key)
        if (entry is None
                or not (across_appends or entry[0] == self._version)
                or (stale is not None and stale(entry[1]))):
            entry = self._derived[key] = (self._version, build())
        value: _T = entry[1]
        return value

    def _cached_items(self) -> Iterator[tuple[Any, Any]]:
        """Every ``(key, value)`` held, current or not — for byte
        accounting and invariant sweeps, never for answering a read."""
        for key, (_stamp, value) in self._derived.items():
            yield key, value
