"""N-Triples parsing and serialization.

N-Triples is the line-oriented RDF syntax the paper's shared-file
communication layer would naturally use; our file-based comm backend and the
dataset generators' save/load paths both go through this module.

The parser covers the N-Triples 1.1 grammar for the constructs this library
produces: IRIREF, blank node labels, literals with ``\\uXXXX``-style string
escapes, datatypes, and language tags.  It is strict: malformed lines raise
:class:`NTriplesParseError` with line numbers instead of being skipped.

Reading is by lexeme, not by character.  One compiled regex (``_LINE``)
recognises the canonical ``term WS term WS term WS? .`` line whose terms
carry no escapes and yields its three *lexemes* (the term texts as
written); a per-document ``IRI text -> value`` memo builds each distinct
IRI's value once.  Every line the regex does not fully match — escapes,
blank node labels with dots or non-ASCII letters, comments, blank lines,
anything malformed — goes to :class:`_Scanner`, the per-character reference
reader, so the accepted language, the error type and the line numbers are
the scanner's.  Two sinks share that reader: :func:`parse_ntriples` yields
:class:`Triple` objects, :func:`read_rows` dictionary-encoded int64 columns
with no ``Triple`` and no ``Graph`` in between.  Both consume their input
line by line.
"""

from __future__ import annotations

import re
from itertools import chain, starmap
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

import numpy as np

from repro.rdf.dictionary import PartitionDictionary, TermDictionary
from repro.rdf.terms import BNode, Literal, Term, URI
from repro.rdf.triple import Triple

_T = TypeVar("_T")


class NTriplesParseError(ValueError):
    """Raised on malformed N-Triples input; carries the 1-based line number."""

    def __init__(self, message: str, lineno: int | None = None) -> None:
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


# -- the line recogniser ---------------------------------------------------------
#
# Each sub-pattern is a subset of what the scanner accepts for that token and
# means the same term, so a full match never disagrees with the scanner.
# ``\s`` is the character set ``str.strip`` removes; the scanner strips the
# line and then skips ``[ \t]`` between tokens.  The groups are the lexemes:
# an IRI's text, a blank node's label, a literal as written.

_IRI = r'[^\x00-\x20<>"{}|^`\\]+'
_LABEL = r"[A-Za-z0-9_-]+"
_LANGTAG = r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"
_LITERAL = rf'"[^"\\]*"(?:\^\^<{_IRI}>|@{_LANGTAG})?'
_LINE = re.compile(
    rf"\s*(?:<({_IRI})>|_:({_LABEL}))[ \t]*<({_IRI})>[ \t]*"
    rf"(?:<({_IRI})>|_:({_LABEL})|({_LITERAL}))[ \t]*\.\s*\Z"
)
_LANGTAG_AT = re.compile(_LANGTAG)

#: Entries an IRI memo may hold before it is dropped and refilled.
_MEMO_LIMIT = 1 << 16


def _literal(lexeme: str) -> Literal:
    """The literal a recognised lexeme denotes (no escapes to undo)."""
    # Neither the lexical form nor a datatype IRI can hold a quote.
    close = lexeme.rindex('"')
    lexical, suffix = lexeme[1:close], lexeme[close + 1 :]
    if not suffix:
        return Literal(lexical)
    if suffix[0] == "@":
        return Literal(lexical, language=suffix[1:])
    return Literal(lexical, datatype=URI(suffix[3:-1]))


class _IriMemo(dict[str, _T]):
    """``IRI text -> convert(URI(text))``, filled on first sight.

    IRIs are what repeats (LUBM: ten positions per distinct term); blank
    nodes and literals are built per occurrence.  An entry is keyed by the
    string its URI already holds, so the memo keeps no second copy of any
    text alive: with copies interleaved among the terms' own strings, a
    parse left the heap at half density and every later stage ~4% slower.
    """

    __slots__ = ("_convert",)

    def __init__(self, convert: Callable[[Term], _T]) -> None:
        super().__init__()
        self._convert = convert

    def __missing__(self, text: str) -> _T:
        if len(self) >= _MEMO_LIMIT:
            self.clear()
        uri = URI(text)
        value = self[str(uri)] = self._convert(uri)  # str(uri) is uri.value
        return value


# -- the per-character fallback and test oracle ----------------------------------

_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


class _Scanner:
    """Character-cursor over one N-Triples line."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        text, n = self.text, len(self.text)
        pos = self.pos
        while pos < n and text[pos] in " \t":
            pos += 1
        self.pos = pos

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise NTriplesParseError(
                f"expected {char!r} at column {self.pos}, found {self.peek()!r}"
            )
        self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    # -- token readers ----------------------------------------------------

    def read_iriref(self) -> URI:
        self.expect("<")
        end = self.text.find(">", self.pos)
        if end < 0:
            raise NTriplesParseError("unterminated IRI (missing '>')")
        raw = self.text[self.pos : end]
        self.pos = end + 1
        if not raw:
            raise NTriplesParseError("empty IRI <>")
        if any(c in raw for c in ' "{}|^`') or any(ord(c) <= 0x20 for c in raw):
            raise NTriplesParseError(f"illegal character in IRI <{raw}>")
        return URI(_unescape(raw, allow_uchar_only=True))

    def read_bnode(self) -> BNode:
        self.expect("_")
        self.expect(":")
        start = self.pos
        text, n = self.text, len(self.text)
        pos = self.pos
        while pos < n and (text[pos].isalnum() or text[pos] in "_-."):
            pos += 1
        # trailing '.' belongs to the statement terminator, not the label
        while pos > start and text[pos - 1] == ".":
            pos -= 1
        if pos == start:
            raise NTriplesParseError("empty blank node label")
        self.pos = pos
        return BNode(text[start:pos])

    def read_literal(self) -> Literal:
        self.expect('"')
        chunks: list[str] = []
        text, n = self.text, len(self.text)
        pos = self.pos
        while True:
            if pos >= n:
                raise NTriplesParseError("unterminated literal (missing '\"')")
            c = text[pos]
            if c == '"':
                pos += 1
                break
            if c == "\\":
                pos += 1
                if pos >= n:
                    raise NTriplesParseError("dangling escape at end of literal")
                esc = text[pos]
                if esc in _ESCAPES:
                    chunks.append(_ESCAPES[esc])
                    pos += 1
                elif esc == "u":
                    chunks.append(_read_hex(text, pos + 1, 4))
                    pos += 5
                elif esc == "U":
                    chunks.append(_read_hex(text, pos + 1, 8))
                    pos += 9
                else:
                    raise NTriplesParseError(f"unknown escape '\\{esc}'")
            else:
                chunks.append(c)
                pos += 1
        self.pos = pos
        lexical = "".join(chunks)

        if self.peek() == "^":
            self.expect("^")
            self.expect("^")
            dtype = self.read_iriref()
            return Literal(lexical, datatype=dtype)
        if self.peek() == "@":
            tag = _LANGTAG_AT.match(self.text, self.pos + 1)
            if tag is None:
                raise NTriplesParseError("empty or malformed language tag")
            self.pos = tag.end()
            return Literal(lexical, language=tag.group())
        return Literal(lexical)


_HEX = re.compile("[0-9A-Fa-f]+")


def _read_hex(text: str, start: int, width: int) -> str:
    hexpart = text[start : start + width]
    if len(hexpart) != width:
        raise NTriplesParseError(f"truncated \\u escape: {hexpart!r}")
    # Hex digits only: ``int(x, 16)`` alone also takes a sign, a ``0x``
    # prefix, underscores and surrounding whitespace.
    code = int(hexpart, 16) if _HEX.fullmatch(hexpart) else -1
    # A surrogate is not a character: it could not be written back as UTF-8.
    if not 0 <= code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise NTriplesParseError(f"bad \\u escape: {hexpart!r}")
    return chr(code)


def _unescape(raw: str, allow_uchar_only: bool = False) -> str:
    if "\\" not in raw:
        return raw
    out: list[str] = []
    i, n = 0, len(raw)
    while i < n:
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= n:
            raise NTriplesParseError("dangling escape")
        esc = raw[i + 1]
        if esc == "u":
            out.append(_read_hex(raw, i + 2, 4))
            i += 6
        elif esc == "U":
            out.append(_read_hex(raw, i + 2, 8))
            i += 10
        elif not allow_uchar_only and esc in _ESCAPES:
            out.append(_ESCAPES[esc])
            i += 2
        else:
            raise NTriplesParseError(f"unknown escape '\\{esc}'")
    return "".join(out)


def _scan_line(
    line: str, lineno: int | None = None
) -> tuple[Term, Term, Term] | None:
    """One line through :class:`_Scanner`: its ``(s, p, o)`` terms, or
    ``None`` for a blank line or a comment."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    try:
        sc = _Scanner(stripped)
        sc.skip_ws()
        c = sc.peek()
        if c == "<":
            s: Term = sc.read_iriref()
        elif c == "_":
            s = sc.read_bnode()
        else:
            raise NTriplesParseError(f"subject must be IRI or bnode, found {c!r}")
        sc.skip_ws()
        p = sc.read_iriref()
        sc.skip_ws()
        c = sc.peek()
        if c == "<":
            o: Term = sc.read_iriref()
        elif c == "_":
            o = sc.read_bnode()
        elif c == '"':
            o = sc.read_literal()
        else:
            raise NTriplesParseError(f"object must be IRI, bnode or literal, found {c!r}")
        sc.skip_ws()
        sc.expect(".")
        sc.skip_ws()
        # What follows the terminator may only be a comment.
        if not sc.at_end() and sc.peek() != "#":
            raise NTriplesParseError(
                f"trailing characters after '.': {sc.text[sc.pos:]!r}"
            )
        return s, p, o
    except NTriplesParseError as exc:
        if exc.lineno is None and lineno is not None:
            raise NTriplesParseError(str(exc), lineno) from None
        raise


# -- reading -----------------------------------------------------------------------


def _read_lines(
    source: str | TextIO, convert: Callable[[Term], _T]
) -> Iterator[tuple[_T, _T, _T]]:
    """``(convert(s), convert(p), convert(o))`` per statement of ``source``
    in document order; ``convert`` runs once per distinct IRI on recognised
    lines and once per term otherwise."""
    lines = source.splitlines() if isinstance(source, str) else source
    iris = _IriMemo(convert)
    match = _LINE.match
    for lineno, line in enumerate(lines, start=1):
        m = match(line)
        if m is None:
            terms = _scan_line(line, lineno)
            if terms is not None:
                yield convert(terms[0]), convert(terms[1]), convert(terms[2])
            continue
        s, s_label, p, o, o_label, o_literal = m.groups()
        yield (
            iris[s] if s is not None else convert(BNode(s_label)),
            iris[p],
            iris[o] if o is not None
            else convert(BNode(o_label)) if o_label is not None
            else convert(_literal(o_literal)),
        )


def _same(term: Term) -> Term:
    return term


def parse_ntriples_line(line: str, lineno: int | None = None) -> Triple | None:
    """Parse one line; returns ``None`` for blank lines and comments."""
    m = _LINE.match(line)
    if m is None:
        terms = _scan_line(line, lineno)
        return None if terms is None else Triple(*terms)
    s, s_label, p, o, o_label, o_literal = m.groups()
    return Triple(
        URI(s) if s is not None else BNode(s_label),
        URI(p),
        URI(o) if o is not None
        else BNode(o_label) if o_label is not None
        else _literal(o_literal),
    )


def parse_ntriples(source: str | TextIO) -> Iterator[Triple]:
    """Parse an N-Triples document (string or text stream), yielding triples.

    >>> list(parse_ntriples('<ex:a> <ex:p> "v" .'))
    [Triple(URI('ex:a'), URI('ex:p'), Literal('v'))]
    """
    return starmap(Triple, _read_lines(source, _same))


def read_rows(
    source: str | TextIO, dictionary: TermDictionary | PartitionDictionary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read an N-Triples document straight to ``(s, p, o)`` int64 id
    columns, one row per statement in document order (duplicates kept).

    Equal to ``encode_rows(dictionary, parse_ntriples(source))`` — same
    columns, same ids minted in the same order, same errors — without
    constructing a ``Triple``; :meth:`MaterializedKB.bulk_load
    <repro.owl.kb.MaterializedKB.bulk_load>` takes the result as is.

    >>> d = TermDictionary()
    >>> s, p, o = read_rows('<ex:a> <ex:p> <ex:a> .', d)
    >>> s.tolist(), p.tolist(), o.tolist(), len(d)
    ([0], [1], [0], 2)
    """
    flat = np.fromiter(
        chain.from_iterable(_read_lines(source, dictionary.encode)),
        dtype=np.int64)
    s, p, o = np.ascontiguousarray(flat.reshape(-1, 3).T)
    return s, p, o


# -- writing -----------------------------------------------------------------------


def triple_to_ntriples(triple: Triple) -> str:
    """One triple as one N-Triples line (without the newline)."""
    return f"{triple.s.n3()} {triple.p.n3()} {triple.o.n3()} ."


def serialize_ntriples(triples: Iterable[Triple], sort: bool = False) -> str:
    """Serialize triples to an N-Triples document.

    ``sort=True`` gives a canonical ordering (term total order) so documents
    can be diffed; the default preserves iteration order for speed.
    """
    items = list(triples)
    if sort:
        items.sort()
    return "".join(triple_to_ntriples(t) + "\n" for t in items)
