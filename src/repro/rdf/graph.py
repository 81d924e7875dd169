"""In-memory indexed triple store.

The store maintains three nested-dict indexes (SPO, POS, OSP) so that every
triple-pattern shape — any subset of {s, p, o} bound — is answered by direct
dictionary walks with no scanning beyond the result set.  This is the same
index layout used by rdflib's in-memory store and by Jena's ``GraphMem``.

Index choice per bound-position mask:

====  =====  ==========================
mask  index  walk
====  =====  ==========================
s--   SPO    index[s] -> {p: {o}}
-p-   POS    index[p] -> {o: {s}}
--o   OSP    index[o] -> {s: {p}}
sp-   SPO    index[s][p] -> {o}
s-o   OSP    index[o][s] -> {p}
-po   POS    index[p][o] -> {s}
spo   SPO    membership probe
---   SPO    full iteration
====  =====  ==========================

Mutation during iteration of a match is not supported (the usual Python
dict rule); callers that derive-and-insert (the datalog engine) buffer
derivations per round.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.rdf.terms import Term, Variable, is_resource
from repro.rdf.triple import Triple

_MISSING = object()


class Graph:
    """A set of ground triples with SPO/POS/OSP indexes.

    >>> from repro.rdf.terms import URI
    >>> g = Graph()
    >>> _ = g.add(Triple(URI("ex:a"), URI("ex:p"), URI("ex:b")))
    >>> len(g)
    1
    >>> list(g.match(p=URI("ex:p")))[0].o
    URI('ex:b')
    """

    __slots__ = ("_spo", "_pos", "_osp", "_size", "_version")

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._spo: dict[Term, dict[Term, set[Term]]] = {}
        self._pos: dict[Term, dict[Term, set[Term]]] = {}
        self._osp: dict[Term, dict[Term, set[Term]]] = {}
        self._size = 0
        self._version = 0
        for t in triples:
            self.add(t)

    @property
    def version(self) -> int:
        """Mutation counter: bumped on every successful add/discard (and on
        clear).  Lets mirror structures (:class:`~repro.rdf.idquery.IdIndex`'s
        id-encoded copy) detect external modification in O(1) instead of
        re-scanning the store."""
        return self._version

    # -- mutation ---------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert; returns True iff the triple was not already present."""
        if not isinstance(triple, Triple):
            raise TypeError(f"expected Triple, got {type(triple).__name__}")
        s, p, o = triple.s, triple.p, triple.o
        po = self._spo.get(s)
        if po is None:
            po = self._spo[s] = {}
        objs = po.get(p)
        if objs is None:
            objs = po[p] = set()
        if o in objs:
            return False
        objs.add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        self._size += 1
        self._version += 1
        return True

    def add_spo(self, s: Term, p: Term, o: Term) -> bool:
        """Construct-and-insert convenience."""
        return self.add(Triple(s, p, o))

    def update(self, triples: Iterable[Triple]) -> int:
        """Insert many; returns the number actually added."""
        added = 0
        for t in triples:
            if self.add(t):
                added += 1
        return added

    def discard(self, triple: Triple) -> bool:
        """Remove; returns True iff the triple was present.

        All three SPO/POS/OSP indexes observe the removal and the
        version counter bumps, so mirror structures keyed on
        :attr:`version` (:class:`~repro.rdf.idquery.IdIndex`'s mirror) can
        never answer from a stale copy after a deletion.
        """
        if not isinstance(triple, Triple):
            raise TypeError(f"expected Triple, got {type(triple).__name__}")
        s, p, o = triple.s, triple.p, triple.o
        po = self._spo.get(s)
        if po is None:
            return False
        objs = po.get(p)
        if objs is None or o not in objs:
            return False
        objs.remove(o)
        if not objs:
            del po[p]
            if not po:
                del self._spo[s]
        os_ = self._pos[p]
        subs = os_[o]
        subs.remove(s)
        if not subs:
            del os_[o]
            if not os_:
                del self._pos[p]
        sp = self._osp[o]
        preds = sp[s]
        preds.remove(p)
        if not preds:
            del sp[s]
            if not sp:
                del self._osp[o]
        self._size -= 1
        self._version += 1
        return True

    def clear(self) -> None:
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._size = 0
        self._version += 1

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, triple: Triple) -> bool:
        po = self._spo.get(triple.s)
        if po is None:
            return False
        objs = po.get(triple.p)
        return objs is not None and triple.o in objs

    def __iter__(self) -> Iterator[Triple]:
        for s, po in self._spo.items():
            for p, objs in po.items():
                for o in objs:
                    yield Triple(s, p, o)

    def match(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> Iterator[Triple]:
        """Yield all triples matching the pattern; ``None`` (or a
        :class:`Variable`) is a wildcard in that position."""
        if isinstance(s, Variable):
            s = None
        if isinstance(p, Variable):
            p = None
        if isinstance(o, Variable):
            o = None

        if s is not None:
            po = self._spo.get(s)
            if po is None:
                return
            if p is not None:
                objs = po.get(p)
                if objs is None:
                    return
                if o is not None:
                    if o in objs:
                        yield Triple(s, p, o)
                    return
                for obj in objs:
                    yield Triple(s, p, obj)
                return
            if o is not None:
                sp = self._osp.get(o)
                if sp is None:
                    return
                preds = sp.get(s)
                if preds is None:
                    return
                for pred in preds:
                    yield Triple(s, pred, o)
                return
            for pred, objs in po.items():
                for obj in objs:
                    yield Triple(s, pred, obj)
            return

        if p is not None:
            os_ = self._pos.get(p)
            if os_ is None:
                return
            if o is not None:
                subs = os_.get(o)
                if subs is None:
                    return
                for sub in subs:
                    yield Triple(sub, p, o)
                return
            for obj, subs in os_.items():
                for sub in subs:
                    yield Triple(sub, p, obj)
            return

        if o is not None:
            sp = self._osp.get(o)
            if sp is None:
                return
            for sub, preds in sp.items():
                for pred in preds:
                    yield Triple(sub, pred, o)
            return

        yield from iter(self)

    def count(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> int:
        """Number of matching triples; cheaper than ``len(list(match(...)))``
        for the fully-wild and single-bound shapes."""
        if s is None and p is None and o is None:
            return self._size
        return sum(1 for _ in self.match(s, p, o))

    def subjects(self, p: Term | None = None, o: Term | None = None) -> Iterator[Term]:
        seen: set[Term] = set()
        for t in self.match(None, p, o):
            if t.s not in seen:
                seen.add(t.s)
                yield t.s

    def objects(self, s: Term | None = None, p: Term | None = None) -> Iterator[Term]:
        seen: set[Term] = set()
        for t in self.match(s, p, None):
            if t.o not in seen:
                seen.add(t.o)
                yield t.o

    def predicates(self) -> Iterator[Term]:
        yield from self._pos.keys()

    # -- raw-term fast paths (no :class:`Triple` per row: the encode side
    # of the term/id boundary iterates these) ------------------------------

    def spo_items(self) -> Iterator[tuple[Term, Term, Term]]:
        """Iterate all triples as raw ``(s, p, o)`` tuples (no Triple
        construction)."""
        for s, po in self._spo.items():
            for p, objs in po.items():
                for o in objs:
                    yield (s, p, o)

    def contains_spo(self, s: Term, p: Term, o: Term) -> bool:
        """Membership probe on raw terms (no Triple construction)."""
        po = self._spo.get(s)
        if po is None:
            return False
        objs = po.get(p)
        return objs is not None and o in objs

    def value(self, s: Term, p: Term, default: Term | None = None) -> Term | None:
        """The unique object of (s, p, ·), or ``default`` if absent.
        Raises if there are several (use ``objects`` for multi-valued)."""
        it = self.match(s, p, None)
        first = next(it, _MISSING)
        if first is _MISSING:
            return default
        second = next(it, _MISSING)
        if second is not _MISSING:
            raise ValueError(f"({s}, {p}) has multiple objects")
        return first.o  # type: ignore[union-attr]

    # -- node-level views (used by partitioning) --------------------------

    def resources(self) -> set[Term]:
        """All URIs/BNodes occurring in subject or object position — the
        vertex set of the RDF graph in the paper's data-partitioning model.
        Literals are excluded (they cannot be subjects, hence never the
        shared join variable of a single-join rule over resources)."""
        nodes: set[Term] = set(self._spo.keys())
        for o in self._osp.keys():
            if is_resource(o):
                nodes.add(o)
        return nodes

    def degree(self, node: Term) -> int:
        """Number of triples in which ``node`` is subject or object."""
        d = 0
        po = self._spo.get(node)
        if po is not None:
            d += sum(len(objs) for objs in po.values())
        sp = self._osp.get(node)
        if sp is not None:
            d += sum(len(preds) for preds in sp.values())
        return d

    # -- set-ish operations -----------------------------------------------

    def copy(self) -> "Graph":
        g = Graph()
        g.update(iter(self))
        return g

    def union(self, other: "Graph") -> "Graph":
        g = self.copy()
        g.update(iter(other))
        return g

    def difference(self, other: "Graph") -> "Graph":
        g = Graph()
        for t in self:
            if t not in other:
                g.add(t)
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self._size != other._size:
            return False
        return all(t in other for t in self)

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return not eq

    def __hash__(self):  # graphs are mutable
        raise TypeError("Graph is unhashable")

    def __repr__(self) -> str:
        return f"<Graph with {self._size} triples>"

    # -- integrity (used by property tests) -------------------------------

    def check_integrity(self) -> None:
        """Assert the three indexes agree with each other and with _size.
        O(n); test/debug helper, never called on hot paths."""
        spo_set = {
            (s, p, o)
            for s, po in self._spo.items()
            for p, objs in po.items()
            for o in objs
        }
        pos_set = {
            (s, p, o)
            for p, os_ in self._pos.items()
            for o, subs in os_.items()
            for s in subs
        }
        osp_set = {
            (s, p, o)
            for o, sp in self._osp.items()
            for s, preds in sp.items()
            for p in preds
        }
        if not (spo_set == pos_set == osp_set):
            raise AssertionError("index sets disagree")
        if len(spo_set) != self._size:
            raise AssertionError(
                f"size {self._size} != indexed triple count {len(spo_set)}"
            )
        for s, p, o in spo_set:
            Triple(s, p, o)  # re-validates positional constraints
