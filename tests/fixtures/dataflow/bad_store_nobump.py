"""ST300 fixture: ``remove`` mutates state but forgets ``_bump()``."""

from repro.rdf.versioned import Versioned


class TinyStore(Versioned):
    def __init__(self):
        super().__init__()
        self._rows = []

    def add(self, row):
        self._rows.append(row)
        self._bump()

    def remove(self, row):
        self._rows.remove(row)  # missing: self._bump(rewrite=True)
