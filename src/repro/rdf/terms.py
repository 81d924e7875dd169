"""RDF term model.

Terms are interned, immutable, and ordered, so they can be dict keys,
set members, and sort keys throughout the stack.  Four concrete kinds:

* :class:`URI` — an IRI reference (``<http://...>`` in N-Triples).
* :class:`BNode` — a blank node with a local label (``_:b0``).
* :class:`Literal` — a lexical form with optional datatype IRI or language
  tag (mutually exclusive, as in RDF 1.1).
* :class:`Variable` — a rule/query variable (``?x``).  Variables are never
  stored in a graph; they appear only in rule atoms and query patterns.

Interning: constructing the same URI twice yields the *same object*, which
makes the equality checks in the datalog inner loops pointer comparisons in
the common case and roughly halves the memory of large parsed graphs.
"""

from __future__ import annotations

import re
from typing import Union

# Intern tables.  Keyed by the constructor arguments; values are the
# canonical instances.  These are process-global on purpose: terms carry no
# mutable state, and workers in the multiprocessing backend re-intern on
# unpickling via __reduce__.
_URI_INTERN: dict[str, "URI"] = {}
_BNODE_INTERN: dict[str, "BNode"] = {}
_LITERAL_INTERN: dict[tuple, "Literal"] = {}
_VARIABLE_INTERN: dict[str, "Variable"] = {}

# Sort-rank per term kind, so heterogeneous term collections have a total
# order: URIs < BNodes < Literals < Variables.
_KIND_URI = 0
_KIND_BNODE = 1
_KIND_LITERAL = 2
_KIND_VARIABLE = 3


class Term:
    """Base class for all RDF terms.  Not instantiated directly."""

    __slots__ = ("_key", "_hash")

    _kind: int = -1

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return self._kind == other._kind and self._key == other._key

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return not eq

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        if self._kind != other._kind:
            return self._kind < other._kind
        return self._key < other._key

    def __le__(self, other: "Term") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return other < self

    def __ge__(self, other: "Term") -> bool:
        return self == other or other < self

    @property
    def is_variable(self) -> bool:
        return self._kind == _KIND_VARIABLE

    @property
    def is_literal(self) -> bool:
        return self._kind == _KIND_LITERAL


#: Characters an N-Triples IRIREF may not hold raw.
_IRI_UNSAFE = re.compile(r'[\x00-\x20<>"{}|^`\\\x85\u2028\u2029]')


def _uchar(match: "re.Match[str]") -> str:
    return f"\\u{ord(match.group()):04X}"


class URI(Term):
    """An IRI reference term.

    >>> URI("http://example.org/a") is URI("http://example.org/a")
    True
    """

    __slots__ = ("value",)
    _kind = _KIND_URI

    def __new__(cls, value: str) -> "URI":
        cached = _URI_INTERN.get(value)
        if cached is not None:
            return cached
        if not isinstance(value, str):
            raise TypeError(f"URI value must be str, got {type(value).__name__}")
        if not value:
            raise ValueError("URI value must be non-empty")
        self = object.__new__(cls)
        self.value = value
        self._key = value
        self._hash = hash((_KIND_URI, value))
        _URI_INTERN[value] = self
        return self

    def __repr__(self) -> str:
        return f"URI({self.value!r})"

    def __str__(self) -> str:
        return self.value

    def n3(self) -> str:
        """N-Triples form: ``<iri>``, with every character the IRIREF
        grammar forbids raw (controls, space, ``<>"{}|^`\\``) and the
        line separators ``str.splitlines`` breaks on written as
        ``\\uXXXX``, so the line reads back.

        >>> print(URI("ex:a b").n3())
        <ex:a\\u0020b>
        """
        return f"<{_IRI_UNSAFE.sub(_uchar, self.value)}>"

    def local_name(self) -> str:
        """The fragment after the last ``#`` or ``/`` — a display helper.

        >>> URI("http://example.org/ns#Student").local_name()
        'Student'
        """
        value = self.value
        for sep in ("#", "/"):
            idx = value.rfind(sep)
            if idx >= 0 and idx + 1 < len(value):
                return value[idx + 1 :]
        return value

    def __reduce__(self):
        return (URI, (self.value,))


class BNode(Term):
    """A blank node, identified by a local label.

    Labels are scoped to the document/graph they came from; the library
    treats equal labels as the same node, so generators must emit globally
    unique labels (they do, via their run id).
    """

    __slots__ = ("label",)
    _kind = _KIND_BNODE

    def __new__(cls, label: str) -> "BNode":
        cached = _BNODE_INTERN.get(label)
        if cached is not None:
            return cached
        if not isinstance(label, str):
            raise TypeError(f"BNode label must be str, got {type(label).__name__}")
        if not label:
            raise ValueError("BNode label must be non-empty")
        self = object.__new__(cls)
        self.label = label
        self._key = label
        self._hash = hash((_KIND_BNODE, label))
        _BNODE_INTERN[label] = self
        return self

    def __repr__(self) -> str:
        return f"BNode({self.label!r})"

    def __str__(self) -> str:
        return f"_:{self.label}"

    def n3(self) -> str:
        return f"_:{self.label}"

    def __reduce__(self):
        return (BNode, (self.label,))


class Literal(Term):
    """An RDF literal: lexical form + optional datatype or language tag.

    >>> Literal("3", datatype=URI("http://www.w3.org/2001/XMLSchema#integer"))
    Literal('3', datatype=URI('http://www.w3.org/2001/XMLSchema#integer'))
    """

    __slots__ = ("lexical", "datatype", "language")
    _kind = _KIND_LITERAL

    def __new__(
        cls,
        lexical: str,
        datatype: URI | None = None,
        language: str | None = None,
    ) -> "Literal":
        if not isinstance(lexical, str):
            raise TypeError(
                f"Literal lexical form must be str, got {type(lexical).__name__}"
            )
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot have both a datatype and a language")
        if language is not None:
            language = language.lower()
        # "" stands in for "absent" so the key stays totally ordered
        # (None < str raises); no collision is possible because URI values
        # and language tags are never empty.
        key = (lexical, datatype.value if datatype else "", language or "")
        cached = _LITERAL_INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.lexical = lexical
        self.datatype = datatype
        self.language = language
        self._key = key
        self._hash = hash((_KIND_LITERAL, key))
        _LITERAL_INTERN[key] = self
        return self

    def __repr__(self) -> str:
        parts = [repr(self.lexical)]
        if self.datatype is not None:
            parts.append(f"datatype={self.datatype!r}")
        if self.language is not None:
            parts.append(f"language={self.language!r}")
        return f"Literal({', '.join(parts)})"

    def __str__(self) -> str:
        return self.lexical

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        _linebreakish = "\x85\u2028\u2029"
        if any(ord(c) < 0x20 or c in _linebreakish for c in escaped):
            # Remaining control characters (and the Unicode line separators
            # that str.splitlines treats as newlines) as \uXXXX escapes, per
            # the N-Triples grammar.
            escaped = "".join(
                f"\\u{ord(c):04X}"
                if (ord(c) < 0x20 or c in _linebreakish)
                else c
                for c in escaped
            )
        if self.datatype is not None:
            return f'"{escaped}"^^{self.datatype.n3()}'
        if self.language is not None:
            return f'"{escaped}"@{self.language}'
        return f'"{escaped}"'

    def __reduce__(self):
        return (Literal, (self.lexical, self.datatype, self.language))


class Variable(Term):
    """A rule/query variable, written ``?name``.

    Variables never occur in stored triples; :class:`repro.rdf.graph.Graph`
    rejects them on insert.
    """

    __slots__ = ("name",)
    _kind = _KIND_VARIABLE

    def __new__(cls, name: str) -> "Variable":
        cached = _VARIABLE_INTERN.get(name)
        if cached is not None:
            return cached
        if not isinstance(name, str):
            raise TypeError(f"Variable name must be str, got {type(name).__name__}")
        if not name:
            raise ValueError("Variable name must be non-empty")
        if name.startswith("?"):
            raise ValueError("Variable name should not include the '?' sigil")
        self = object.__new__(cls)
        self.name = name
        self._key = name
        self._hash = hash((_KIND_VARIABLE, name))
        _VARIABLE_INTERN[name] = self
        return self

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return f"?{self.name}"

    def n3(self) -> str:
        return f"?{self.name}"

    def __reduce__(self):
        return (Variable, (self.name,))


GroundTerm = Union[URI, BNode, Literal]


def is_resource(term: Term) -> bool:
    """True for terms that can be graph *nodes* subject to ownership
    assignment in data partitioning: URIs and blank nodes (not literals —
    literals never join on the paper's rule set's shared variable because
    they cannot appear in subject position)."""
    return isinstance(term, (URI, BNode))


def intern_stats() -> dict[str, int]:
    """Sizes of the intern tables — used by memory diagnostics and tests."""
    return {
        "uri": len(_URI_INTERN),
        "bnode": len(_BNODE_INTERN),
        "literal": len(_LITERAL_INTERN),
        "variable": len(_VARIABLE_INTERN),
    }
