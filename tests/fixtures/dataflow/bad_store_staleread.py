"""ST300 fixture: ``view`` keeps its own staleness test on ``_version``
instead of reading through ``_cached``."""

from repro.rdf.versioned import Versioned


class TinyCachedStore(Versioned):
    def __init__(self):
        super().__init__()
        self._rows = []
        self._view_cache = None
        self._view_at = -1

    def add(self, row):
        self._rows.append(row)
        self._bump()

    def view(self):
        # A hand-rolled guard: the next refactor that drops it (or keys it
        # on the wrong counter) serves a stale view.
        if self._view_at != self._version:
            self._view_cache = sorted(self._rows)
            self._view_at = self._version
        return self._view_cache
