"""Term <-> integer dictionary encoding.

Large-scale RDF systems (and the paper's METIS input) operate on integer
node ids, not term objects.  :class:`TermDictionary` provides a stable
bijection term→id, and :class:`EncodedGraph` materializes a triple set as
three parallel ``numpy`` id arrays — the representation the multilevel graph
partitioner, the replication metrics, and the id-encoded wire protocol
consume.

Ids are dense, assigned in first-seen order, which keeps the partitioner's
CSR construction a single bincount/cumsum pass.

Alongside the bijection, both dictionaries maintain a per-id *kind* byte
(URI / BNode / Literal) so id-space consumers — the columnar fixpoint
kernels, the partition policies — can test resource-ness and predicate
validity of whole id columns (:meth:`TermDictionary.resource_mask`,
:meth:`TermDictionary.uri_mask`) without touching a term object.

:class:`PartitionDictionary` is the partition-aware view used by the
parallel runtime: every worker starts from the same shared base dictionary
(built by the master over the input KB) and mints ids for terms it first
derives at runtime — literals, bnodes, rule-head constants — in a private
id stripe, so two workers can never mint the same id for different terms.
Newly minted ``(id, term)`` pairs travel once per peer as a
*delta-dictionary* alongside the id-encoded tuple rows
(:class:`repro.parallel.messages.EncodedBatch`); thereafter the term is
pure int traffic.  Two workers may concurrently mint *different* ids for
the *same* new term — that is fine: both ids decode to the one interned
term object, so graphs reconcile set-equal on decode.  Id-native workers
additionally *canonicalize* received rows (:meth:`PartitionDictionary
.canonical_ids`) so aliased ids never reach an id-space join.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.rdf.terms import Term
from repro.rdf.triple import Triple
from repro.rdf.versioned import Versioned

#: Kind byte per term, matching the sort ranks in :mod:`repro.rdf.terms`:
#: 0 = URI, 1 = BNode, 2 = Literal.  Resources are kinds <= 1.
_KIND_LITERAL = 2


class TermDictionary(Versioned):
    """Bidirectional term <-> dense-int mapping.

    >>> from repro.rdf.terms import URI
    >>> d = TermDictionary()
    >>> d.encode(URI("ex:a"))
    0
    >>> d.decode(0)
    URI('ex:a')
    """

    __slots__ = ("_to_id", "_terms", "_kinds")

    def __init__(self) -> None:
        super().__init__()
        self._to_id: dict[Term, int] = {}
        self._terms: list[Term] = []
        #: Parallel to ``_terms``: the term-kind byte (0 URI / 1 BNode /
        #: 2 Literal).  Maintained at encode time so decode-side consumers
        #: can test resource-ness (kind <= 1) or URI-ness (kind == 0) of
        #: whole id columns without a Python loop.
        self._kinds: list[int] = []

    def encode(self, term: Term) -> int:
        """Id for ``term``, assigning the next dense id on first sight."""
        tid = self._to_id.get(term)
        if tid is None:
            tid = len(self._terms)
            self._to_id[term] = tid
            self._terms.append(term)
            self._kinds.append(term._kind)
            self._bump()
        return tid

    def encode_many(self, terms: Iterable[Term]) -> np.ndarray:
        """Vectorized :meth:`encode`: one int64 id per input term, minting
        ids for unseen terms in iteration order."""
        to_id = self._to_id
        term_list = self._terms
        kinds = self._kinds
        out: list[int] = []
        grown = False
        for term in terms:
            tid = to_id.get(term)
            if tid is None:
                tid = len(term_list)
                to_id[term] = tid
                term_list.append(term)
                kinds.append(term._kind)
                grown = True
            out.append(tid)
        if grown:
            self._bump()
        return np.asarray(out, dtype=np.int64)

    def encode_existing(self, term: Term) -> int:
        """Id for a term that must already be present (raises ``KeyError``)."""
        return self._to_id[term]

    def get(self, term: Term) -> int | None:
        """Id for ``term`` if present, else ``None`` (no assignment)."""
        return self._to_id.get(term)

    def decode(self, tid: int) -> Term:
        return self._terms[tid]

    def decode_many(self, ids: np.ndarray) -> list[Term]:
        """Vectorized :meth:`decode`: the term list for an id column."""
        terms = self._terms
        return [terms[i] for i in np.asarray(ids, dtype=np.int64).tolist()]

    def _kind_array(self) -> np.ndarray:
        return self._cached(
            "kinds", lambda: np.asarray(self._kinds, dtype=np.int8))

    def resource_mask(self, ids: np.ndarray) -> np.ndarray:
        """Boolean array: ``mask[i]`` iff ``ids[i]`` names a URI/BNode.

        Vectorized via the maintained per-id kind bytes; the kind array is
        rebuilt lazily after dictionary growth.
        """
        return self._kind_array()[ids] < _KIND_LITERAL

    def uri_mask(self, ids: np.ndarray) -> np.ndarray:
        """Boolean array: ``mask[i]`` iff ``ids[i]`` names a URI — the
        predicate-position validity test of the columnar kernels."""
        return self._kind_array()[ids] == 0

    def __contains__(self, term: Term) -> bool:
        return term in self._to_id

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._terms)

    def items(self) -> Iterator[tuple[Term, int]]:
        return iter(self._to_id.items())

    def terms(self) -> list[Term]:
        """The id->term list (index i holds the term with id i) — the
        master ships this to workers to reconstruct an identical base."""
        return list(self._terms)

    @classmethod
    def from_terms(cls, terms: Iterable[Term]) -> "TermDictionary":
        """Rebuild from an id-ordered term list (inverse of :meth:`terms`)."""
        d = cls()
        for term in terms:
            d.encode(term)
        return d


def encode_rows(
    dictionary: "TermDictionary | PartitionDictionary",
    spo: Iterable[tuple[Term, Term, Term]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s, p, o)`` id columns for ``(s, p, o)`` term rows — the ingest
    side of the term/id boundary.  One :meth:`encode_many` pass over the
    flattened rows, so unseen terms are minted in row-major order."""
    flat = dictionary.encode_many(chain.from_iterable(spo))
    s, p, o = np.ascontiguousarray(flat.reshape(-1, 3).T)
    return s, p, o


def lookup_rows(
    dictionary: "TermDictionary | PartitionDictionary",
    spo: Iterable[tuple[Term, Term, Term]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`encode_rows` but *without* minting: rows with a
    never-seen term are dropped (they cannot be in any store keyed by
    this dictionary) — the lookup side of removals and membership."""
    get = dictionary.get
    rows = [ids for ids in ((get(s), get(p), get(o)) for s, p, o in spo)
            if None not in ids]
    s, p, o = np.ascontiguousarray(
        np.asarray(rows, dtype=np.int64).reshape(-1, 3).T)
    return s, p, o


def decode_rows(
    dictionary: "TermDictionary | PartitionDictionary",
    s: np.ndarray,
    p: np.ndarray,
    o: np.ndarray,
) -> Iterator[Triple]:
    """The triples of ``(s, p, o)`` id columns — the egress side."""
    decode = dictionary.decode_many
    return map(Triple, decode(s), decode(p), decode(o))


class PartitionDictionary:
    """One worker's partition-aware view over a shared base dictionary.

    Ids split into two ranges:

    * ``[0, len(base))`` — the base stripe, identical on every worker.
    * ``base_size + j*k + node_id`` for j = 0, 1, ... — this worker's
      private stripe for terms first seen at runtime.  Stripes of distinct
      workers are disjoint by construction, so no coordination is needed
      to mint an id.

    Foreign ids (minted by peers, learned through a received delta) are
    registered for decode; when this worker later derives the same term it
    reuses the foreign id rather than minting a duplicate, keeping dedup
    and traffic tight.
    """

    __slots__ = ("base", "node_id", "k", "_base_size", "_to_id", "_by_id",
                 "_kind_by_id", "_minted")

    def __init__(self, base: TermDictionary, node_id: int, k: int) -> None:
        if not 0 <= node_id < k:
            raise ValueError(f"node_id {node_id} outside [0, {k})")
        self.base = base
        self.node_id = node_id
        self.k = k
        self._base_size = len(base)
        #: term -> id for non-base terms (locally minted or foreign).
        self._to_id: dict[Term, int] = {}
        #: id -> term for non-base ids.
        self._by_id: dict[int, Term] = {}
        #: id -> kind byte for non-base ids (the non-base continuation of
        #: the base dictionary's kind array).
        self._kind_by_id: dict[int, int] = {}
        #: Count of ids minted locally (j in the stripe formula).
        self._minted = 0

    def encode(self, term: Term) -> int:
        """Id for ``term``: base id, known non-base id, or a fresh id in
        this worker's private stripe."""
        tid = self.base.get(term)
        if tid is not None:
            return tid
        tid = self._to_id.get(term)
        if tid is not None:
            return tid
        tid = self._base_size + self._minted * self.k + self.node_id
        self._minted += 1
        self._to_id[term] = tid
        self._by_id[tid] = term
        self._kind_by_id[tid] = term._kind
        return tid

    def encode_many(self, terms: Iterable[Term]) -> np.ndarray:
        """Vectorized :meth:`encode` (one int64 id per input term)."""
        return np.asarray([self.encode(t) for t in terms], dtype=np.int64)

    @property
    def base_size(self) -> int:
        """Ids below this are base-stripe (known to every worker)."""
        return self._base_size

    def get(self, term: Term) -> int | None:
        tid = self.base.get(term)
        if tid is None:
            tid = self._to_id.get(term)
        return tid

    def decode(self, tid: int) -> Term:
        if tid < self._base_size:
            return self.base.decode(tid)
        return self._by_id[tid]

    def decode_many(self, ids: np.ndarray) -> list[Term]:
        """Vectorized :meth:`decode` for a mixed base/non-base id column."""
        base_terms = self.base._terms
        by_id = self._by_id
        base_size = self._base_size
        return [
            base_terms[i] if i < base_size else by_id[i]
            for i in np.asarray(ids, dtype=np.int64).tolist()
        ]

    def apply_delta(self, entries: Sequence[tuple[int, Term]]) -> None:
        """Register a received delta-dictionary: peer-minted (id, term)
        pairs.  The term keeps its first-registered local encoding (a peer
        id never displaces one this worker already uses), but every
        registered id becomes decodable."""
        for tid, term in entries:
            if tid in self._by_id:
                continue
            self._by_id[tid] = term
            self._kind_by_id[tid] = term._kind
            self._to_id.setdefault(term, tid)

    def canonical_ids(self, ids: np.ndarray) -> np.ndarray:
        """Map every id to the id :meth:`encode` would return for its term.

        Two workers can mint different ids for the same runtime term;
        id-space joins would miss rows that are term-equal but id-distinct.
        Id-native workers therefore canonicalize every received id column
        through this before it touches the local
        :class:`~repro.rdf.idstore.IdGraph`.  Base ids map to themselves.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0 or int(ids.max(initial=0)) < self._base_size:
            return ids
        to_id = self._to_id
        by_id = self._by_id
        base_size = self._base_size
        return np.asarray(
            [i if i < base_size else to_id[by_id[i]] for i in ids.tolist()],
            dtype=np.int64,
        )

    def _mask(self, ids: np.ndarray, literal_ok: bool) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        base_size = self._base_size
        if ids.size == 0 or int(ids.max(initial=0)) < base_size:
            arr = self.base._kind_array()[ids]
            return arr < _KIND_LITERAL if literal_ok else arr == 0
        kinds = self._kind_by_id
        limit = _KIND_LITERAL if literal_ok else 1
        base_kinds = self.base._kind_array()
        return np.asarray(
            [
                (base_kinds[i] if i < base_size else kinds[i]) < limit
                for i in ids.tolist()
            ],
            dtype=bool,
        )

    def resource_mask(self, ids: np.ndarray) -> np.ndarray:
        """``mask[i]`` iff ``ids[i]`` names a URI/BNode (any stripe)."""
        return self._mask(ids, literal_ok=True)

    def uri_mask(self, ids: np.ndarray) -> np.ndarray:
        """``mask[i]`` iff ``ids[i]`` names a URI (any stripe)."""
        return self._mask(ids, literal_ok=False)

    def __contains__(self, term: Term) -> bool:
        return term in self.base or term in self._to_id

    def __len__(self) -> int:
        return self._base_size + len(self._by_id)


class EncodedGraph(Versioned):
    """A triple multiset as parallel id arrays plus the dictionary.

    ``s_ids``, ``p_ids``, ``o_ids`` are int64 arrays of equal length; row i
    encodes the i-th triple.  Resource nodes (URIs/BNodes in s/o position)
    and predicates share one id space, which is harmless: partitioning only
    looks at the s/o columns.

    The derived views :meth:`resource_ids` and :meth:`edges` are cached —
    partition policies consult them repeatedly while scoring candidate
    cuts — and invalidated by :meth:`append` (the only mutator).
    """

    __slots__ = ("dictionary", "s_ids", "p_ids", "o_ids")

    def __init__(
        self,
        dictionary: TermDictionary,
        s_ids: np.ndarray,
        p_ids: np.ndarray,
        o_ids: np.ndarray,
    ) -> None:
        if not (len(s_ids) == len(p_ids) == len(o_ids)):
            raise ValueError("id columns must have equal length")
        super().__init__()
        self.dictionary = dictionary
        self.s_ids = s_ids
        self.p_ids = p_ids
        self.o_ids = o_ids

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Triple],
        dictionary: TermDictionary | None = None,
    ) -> "EncodedGraph":
        d = dictionary if dictionary is not None else TermDictionary()
        s_list: list[int] = []
        p_list: list[int] = []
        o_list: list[int] = []
        enc = d.encode
        for t in triples:
            s_list.append(enc(t.s))
            p_list.append(enc(t.p))
            o_list.append(enc(t.o))
        return cls(
            d,
            np.asarray(s_list, dtype=np.int64),
            np.asarray(p_list, dtype=np.int64),
            np.asarray(o_list, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.s_ids)

    def append(self, triples: Iterable[Triple]) -> int:
        """Encode and append triples (rows are kept as given — the encoded
        graph is a multiset).  Invalidates the cached derived views.
        Returns the number of rows appended."""
        enc = self.dictionary.encode
        s_list: list[int] = []
        p_list: list[int] = []
        o_list: list[int] = []
        for t in triples:
            s_list.append(enc(t.s))
            p_list.append(enc(t.p))
            o_list.append(enc(t.o))
        if not s_list:
            return 0
        self.s_ids = np.concatenate(
            [self.s_ids, np.asarray(s_list, dtype=np.int64)])
        self.p_ids = np.concatenate(
            [self.p_ids, np.asarray(p_list, dtype=np.int64)])
        self.o_ids = np.concatenate(
            [self.o_ids, np.asarray(o_list, dtype=np.int64)])
        self._bump()
        return len(s_list)

    def triple(self, index: int) -> Triple:
        d = self.dictionary
        return Triple(
            d.decode(int(self.s_ids[index])),
            d.decode(int(self.p_ids[index])),
            d.decode(int(self.o_ids[index])),
        )

    def triples(self) -> Iterator[Triple]:
        for i in range(len(self)):
            yield self.triple(i)

    def resource_ids(self) -> np.ndarray:
        """Sorted unique ids of resource nodes (subjects, plus objects that
        are URIs/BNodes) — the vertex set for partitioning.  Cached until
        :meth:`append`."""
        def build() -> np.ndarray:
            mask = self.dictionary.resource_mask(self.o_ids)
            return np.union1d(self.s_ids, self.o_ids[mask])
        return self._cached("resource_ids", build)

    def edges(self) -> np.ndarray:
        """(m, 2) array of (subject_id, object_id) rows for triples whose
        object is a resource — the edge list of the RDF graph in the paper's
        partitioning model.  Self-loops are kept (they don't affect cuts).
        Cached until :meth:`append`."""
        def build() -> np.ndarray:
            mask = self.dictionary.resource_mask(self.o_ids)
            return np.stack([self.s_ids[mask], self.o_ids[mask]], axis=1)
        return self._cached("edges", build)
