"""Id-native vectorized BGP evaluation over the columnar stores.

:class:`~repro.rdf.query.BGPQuery` answers a basic graph pattern with a
term-level index-nested-loop join: one Python dict allocation and one
``match_triple`` call per candidate row.  This module evaluates the same
queries as *column operations* over the :data:`~repro.datalog.join.IdStore`
probe surface (:class:`~repro.rdf.idstore.IdGraph` and
:class:`~repro.rdf.runstore.RunStore` alike) — the read-path counterpart
of the PR-5 columnar fixpoint engine, and the machinery the distributed
query fast path (:mod:`repro.parallel.query`) and the serving tier
(:mod:`repro.serving`) answer from:

* each pattern becomes one *batch probe*: the partial solutions' bound
  columns are handed to ``store.probe`` whole, which answers every
  partial solution with a single pair of searchsorted calls per sorted
  segment (a vectorized merge join against the index order);
* fresh variables are bound by fancy-indexing the matched rows' value
  columns — the "hash join" side is ``reps``, the match-to-solution
  fan-out array, applied to every existing column at once;
* join order is :func:`~repro.datalog.join.order_patterns` (greedy
  most-bound-first), with per-pattern cardinality estimates from the
  index (``store.count_matching``) as the tiebreak — ``ordering="bound"``
  drops the estimate and is the order :class:`BGPQuery` uses, which makes
  probe counts comparable 1:1 with the term oracle (the differential
  tests rely on this).

Work accounting matches the term engine's definition: ``index_probes``
counts every candidate row surfaced by an index probe *before*
repeated-variable filtering, exactly as ``match_atom`` counts index hits
before ``match_triple``.  Under ``ordering="bound"`` the two engines'
probe counts are therefore equal on equal stores.

:class:`IdIndex` is the query facade over one ``(dictionary, store)``
pair.  Over an owner that already lives in id space
(:class:`~repro.owl.kb.MaterializedKB`) it answers from the owner's own
live pair — nothing is copied and nothing is rebuilt after a write.  From
term land it bridges: a cached id-encoded mirror of a
:class:`~repro.rdf.graph.Graph`, keyed on the graph's version counter and
rebuilt only when the graph actually changed — the contract the ST300
dataflow verifier checks declaratively (see
:mod:`repro.analysis.dataflow`).
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.datalog.ast import Atom, Bindings
from repro.datalog.join import IdStore, compile_atom, extend, order_patterns
from repro.rdf.dictionary import TermDictionary, encode_rows
from repro.rdf.graph import Graph
from repro.rdf.idstore import IdGraph, pack_columns
from repro.rdf.query import BGPQuery, BGPStats
from repro.rdf.runstore import RunStore
from repro.rdf.terms import Term, Variable

_EMPTY = np.empty(0, dtype=np.int64)

_ORDERINGS = ("estimate", "bound")


class SupportsIdStore(Protocol):
    """An owner whose authoritative state *is* an id store — what
    :class:`IdIndex` answers from without mirroring."""

    @property
    def dictionary(self) -> TermDictionary: ...

    @property
    def id_store(self) -> IdStore: ...


class SupportsQueryDictionary(Protocol):
    """The dictionary surface query evaluation needs: non-minting term
    lookup plus decode.  Both :class:`~repro.rdf.dictionary.TermDictionary`
    and :class:`~repro.rdf.dictionary.PartitionDictionary` satisfy it."""

    def get(self, term: Term) -> int | None: ...

    def decode_many(self, ids: np.ndarray) -> list[Term]: ...


def join_pattern(
    store: IdStore,
    atom: Atom,
    env: dict[Variable, np.ndarray],
    n_env: int,
    lookup: Callable[[Term], int | None],
) -> tuple[dict[Variable, np.ndarray], int, int]:
    """One step of the vectorized join: extend the solution table with
    ``atom``'s matches in ``store``.

    ``env`` maps each already-bound variable to an int64 column of length
    ``n_env`` (solution i is row i across all columns); ``lookup`` encodes
    constant terms (``None`` means the term cannot occur in the store).
    Returns the extended ``(env, n, probes)`` — ``probes`` is the number
    of candidate rows the index surfaced *before* repeated-variable
    filtering, the term-engine-compatible work unit.

    The atom is compiled against ``env`` and handed to the one join step,
    :func:`repro.datalog.join.extend`.
    """
    compiled = compile_atom(atom, env, lookup)
    if compiled is None:
        return {v: _EMPTY for v in env}, 0, 0
    return extend(store, compiled, env, n_env)


class IdBGPQuery:
    """A conjunctive triple-pattern query evaluated in id space.

    ``dictionary`` supplies the term <-> id mapping (``get`` /
    ``decode_many``); evaluation itself never touches a term object.
    A constant term the dictionary has never seen cannot occur in the
    store, so such a pattern short-circuits to zero solutions.

    >>> from repro.datalog.ast import Atom
    >>> from repro.rdf import Graph, URI
    >>> from repro.rdf.terms import Variable
    >>> g = Graph()
    >>> _ = g.add_spo(URI("ex:alice"), URI("ex:knows"), URI("ex:bob"))
    >>> _ = g.add_spo(URI("ex:bob"), URI("ex:knows"), URI("ex:carol"))
    >>> x, y, z = Variable("x"), Variable("y"), Variable("z")
    >>> index = IdIndex(g)
    >>> q = BGPQuery([Atom(x, URI("ex:knows"), y), Atom(y, URI("ex:knows"), z)])
    >>> [tuple(str(t) for t in row) for row in index.select(q, x, z)]
    [('ex:alice', 'ex:carol')]
    """

    def __init__(
        self,
        patterns: Sequence[Atom],
        dictionary: SupportsQueryDictionary,
        ordering: str = "estimate",
    ) -> None:
        if not patterns:
            raise ValueError("a BGP needs at least one pattern")
        for pat in patterns:
            if not isinstance(pat, Atom):
                raise TypeError(f"pattern must be an Atom, got {pat!r}")
        if ordering not in _ORDERINGS:
            raise ValueError(
                f"ordering must be one of {_ORDERINGS}, got {ordering!r}")
        self.patterns = tuple(patterns)
        self.dictionary = dictionary
        self.ordering = ordering

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for pat in self.patterns:
            out |= pat.variables()
        return out

    # -- join ordering ----------------------------------------------------

    def _estimates(self, store: IdStore) -> dict[Atom, int]:
        """Constant-selectivity estimate per pattern: how many store rows
        match the pattern's ground positions (ignoring variables).  Under
        ``"estimate"`` ordering it breaks boundness ties toward selective
        patterns (a ground-position probe expected to match few rows runs
        before an open scan of the same boundness)."""
        total = len(store)
        out: dict[Atom, int] = {}
        for pat in self.patterns:
            items: list[tuple[int, int]] = []
            dead = False
            for pos, term in enumerate(pat):
                if isinstance(term, Variable):
                    continue
                tid = self.dictionary.get(term)
                if tid is None:
                    dead = True
                    break
                items.append((pos, tid))
            if dead:
                out[pat] = 0
            elif not items:
                out[pat] = total
            else:
                positions = tuple(pos for pos, _tid in items)
                cols = tuple(
                    np.asarray([tid], dtype=np.int64) for _pos, tid in items)
                out[pat] = int(store.count_matching(positions, cols)[0])
        return out

    # -- evaluation -------------------------------------------------------

    def _seed(
        self, bindings: Bindings | None
    ) -> tuple[dict[Variable, np.ndarray], int]:
        """The initial solution table: one row carrying the caller's
        bindings, or zero rows when a bound term is unknown."""
        env: dict[Variable, np.ndarray] = {}
        if not bindings:
            return env, 1
        for var, term in bindings.items():
            tid = self.dictionary.get(term)
            if tid is None:
                return {v: _EMPTY for v in bindings}, 0
            env[var] = np.asarray([tid], dtype=np.int64)
        return env, 1

    def execute_ids(
        self, store: IdStore, bindings: Bindings | None = None
    ) -> tuple[dict[Variable, np.ndarray], int, int]:
        """Evaluate against an id store, staying in id space.

        Returns ``(env, n, index_probes)``: ``env`` maps each variable to
        an int64 column of length ``n`` (solution i is row i across all
        columns), and ``index_probes`` is the term-engine-compatible work
        count (candidate rows surfaced, pre-filtering).
        """
        env, n_env = self._seed(bindings)
        estimate = (None if self.ordering == "bound"
                    else self._estimates(store).__getitem__)
        probes = 0
        for atom in order_patterns(self.patterns, env, estimate):
            if n_env == 0:
                break
            env, n_env, step_probes = join_pattern(
                store, atom, env, n_env, self.dictionary.get)
            probes += step_probes
        return env, n_env, probes

    def execute(
        self, store: IdStore, bindings: Bindings | None = None
    ) -> list[Bindings]:
        """Every solution mapping, decoded back to terms (the term
        engine's :meth:`BGPQuery.execute` contract, materialized)."""
        env, n, _probes = self.execute_ids(store, bindings)
        return self._decode(env, n)

    def execute_with_stats(
        self, store: IdStore, bindings: Bindings | None = None
    ) -> tuple[list[Bindings], BGPStats]:
        """Like :meth:`execute`, with term-engine-compatible accounting."""
        env, n, probes = self.execute_ids(store, bindings)
        return self._decode(env, n), BGPStats(
            patterns=len(self.patterns), index_probes=probes, solutions=n)

    def _decode(
        self, env: Mapping[Variable, np.ndarray], n: int
    ) -> list[Bindings]:
        decoded = {
            var: self.dictionary.decode_many(col)
            for var, col in env.items()
        }
        return [
            {var: terms[i] for var, terms in decoded.items()}
            for i in range(n)
        ]

    def count(self, store: IdStore) -> int:
        _env, n, _probes = self.execute_ids(store)
        return n

    def ask(self, store: IdStore) -> bool:
        """SPARQL ASK semantics: does at least one solution exist?"""
        _env, n, _probes = self.execute_ids(store)
        return n > 0

    def select(
        self, store: IdStore, *variables: Variable
    ) -> list[tuple[Term, ...]]:
        """SPARQL SELECT semantics: distinct projected rows, sorted.

        Deduplication happens in id space (one ``np.unique`` over the
        packed projection columns); only the surviving rows are decoded.
        """
        if not variables:
            raise ValueError("select needs at least one projection variable")
        unknown = set(variables) - self.variables()
        if unknown:
            names = ", ".join(sorted(str(v) for v in unknown))
            raise ValueError(f"projection variable(s) not in query: {names}")
        env, n, _probes = self.execute_ids(store)
        if n == 0:
            return []
        packed = pack_columns(tuple(env[v] for v in variables))
        _uniq, first = np.unique(packed, return_index=True)
        decoded = {
            v: self.dictionary.decode_many(env[v][first])
            for v in variables
        }
        return sorted(
            tuple(decoded[v][i] for v in variables)
            for i in range(len(first))
        )

    def __repr__(self) -> str:
        return f"IdBGPQuery({list(self.patterns)!r})"


def _patterns_of(query: BGPQuery | Sequence[Atom]) -> Sequence[Atom]:
    if isinstance(query, BGPQuery):
        return query.patterns
    return query


class IdIndex:
    """The id-native query surface over a term :class:`Graph` or over an
    owner that is already id-native.

    Given a :class:`SupportsIdStore` owner, :meth:`current` returns the
    owner's own live ``(dictionary, id_store)``: no second dictionary,
    no copy, nothing to rebuild after a write.

    Given a :class:`Graph`, the index keeps a mirror — a private
    :class:`TermDictionary` plus an id store holding the encoded rows —
    built lazily and keyed on the graph's monotone
    :attr:`~repro.rdf.graph.Graph.version` counter: queries between graph
    mutations reuse it, the first query after a mutation rebuilds.
    ``store="run"`` mirrors into a :class:`RunStore` instead of the dense
    :class:`IdGraph` (same probe surface, compressed runs).
    """

    def __init__(
        self,
        source: Graph | SupportsIdStore,
        store: str = "dense",
        ordering: str = "estimate",
    ) -> None:
        if store not in ("dense", "run"):
            raise ValueError(f'store must be "dense" or "run", got {store!r}')
        if store != "dense" and not isinstance(source, Graph):
            raise ValueError(
                "store= picks the mirror built from a Graph; an id-native "
                "owner is queried on whatever store it has")
        self._source = source
        self._store_kind = store
        self._ordering = ordering
        #: Graph version the mirror was built at; compared against the
        #: live graph on every read (the cache's staleness guard).
        self._key: int | None = None
        self._mirror: tuple[TermDictionary, IdGraph | RunStore] | None = None

    def current(self) -> tuple[TermDictionary, IdGraph | RunStore]:
        """The up-to-date ``(dictionary, store)``: the owner's live pair,
        or the graph mirror, rebuilt if the graph's version moved."""
        graph = self._source
        if not isinstance(graph, Graph):
            return graph.dictionary, graph.id_store
        key = graph.version
        if self._mirror is None or self._key != key:
            dictionary = TermDictionary()
            mirror_store: IdGraph | RunStore = (
                RunStore() if self._store_kind == "run" else IdGraph())
            mirror_store.add_rows(*encode_rows(dictionary, graph.spo_items()))
            self._mirror = (dictionary, mirror_store)
            self._key = key
        return self._mirror

    def query(self, query: BGPQuery | Sequence[Atom]) -> IdBGPQuery:
        """An :class:`IdBGPQuery` bound to the current dictionary (for a
        graph mirror, rebuild the returned object after graph mutations)."""
        return IdBGPQuery(
            _patterns_of(query), self.current()[0], ordering=self._ordering)

    def execute(
        self,
        query: BGPQuery | Sequence[Atom],
        bindings: Bindings | None = None,
    ) -> list[Bindings]:
        return self.query(query).execute(self.current()[1], bindings)

    def execute_with_stats(
        self,
        query: BGPQuery | Sequence[Atom],
        bindings: Bindings | None = None,
    ) -> tuple[list[Bindings], BGPStats]:
        return self.query(query).execute_with_stats(
            self.current()[1], bindings)

    def select(
        self, query: BGPQuery | Sequence[Atom], *variables: Variable
    ) -> list[tuple[Term, ...]]:
        return self.query(query).select(self.current()[1], *variables)

    def ask(self, query: BGPQuery | Sequence[Atom]) -> bool:
        return self.query(query).ask(self.current()[1])

    def count(self, query: BGPQuery | Sequence[Atom]) -> int:
        return self.query(query).count(self.current()[1])

    def __repr__(self) -> str:
        source = self._source
        if not isinstance(source, Graph):
            return f"<IdIndex over the live store of {source!r}>"
        built = "stale" if self._key != source.version else "fresh"
        return (f"<IdIndex over {len(source)} triples "
                f"({self._store_kind}, {built})>")
