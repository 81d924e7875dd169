"""SPARQL (subset) parser: SELECT/ASK over one basic graph pattern.

Gives the query layer a text form so materialized KBs can be queried
without constructing :class:`~repro.datalog.ast.Atom` objects by hand —
the shape of LUBM's fourteen benchmark queries, all of which are plain
BGPs::

    PREFIX ub: <http://repro.example.org/univ-bench#>
    SELECT ?x ?y WHERE {
        ?x a ub:Professor .
        ?x ub:memberOf ?y .
    }

Supported grammar::

    query    := prefix* (select | ask)
    prefix   := 'PREFIX' NAME ':' IRIREF
    select   := 'SELECT' 'DISTINCT'? ('*' | var+) 'WHERE'?
                '{' pattern* '}' ('LIMIT' INTEGER)?
    ask      := 'ASK' 'WHERE'? '{' pattern* '}'
    pattern  := term term term '.'?      -- with ';'/',' lists as in Turtle
    term     := var | IRIREF | pname | literal | 'a'

``DISTINCT`` is accepted (and recorded) because the engine's ``select``
already returns distinct sorted rows — the flag documents intent rather
than changing the result; ``LIMIT n`` truncates the sorted rows, so it is
deterministic.  No OPTIONAL / FILTER / UNION / property paths — those are
outside what a conjunctive-pattern engine answers; the parser rejects
them by name with a pointed error instead of a generic syntax failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalog.ast import Atom, Bindings
from repro.rdf.graph import Graph
from repro.rdf.idquery import IdIndex
from repro.rdf.namespace import XSD
from repro.rdf.query import BGPQuery
from repro.rdf.terms import Literal, Term, URI, Variable
from repro.rdf.turtle import (
    RDF_TYPE,
    TurtleParseError,
    _Token,
    _tokenize,
    _unescape,
)


class SparqlParseError(ValueError):
    """Malformed (or unsupported) SPARQL."""


_UNSUPPORTED = {
    "OPTIONAL", "FILTER", "UNION", "GRAPH", "ORDER", "GROUP",
    "OFFSET", "DESCRIBE", "CONSTRUCT", "MINUS", "BIND", "VALUES",
    "REDUCED",
}


@dataclass(frozen=True)
class ParsedQuery:
    """A parsed SELECT/ASK query, executable against any graph (in id
    space, through :class:`~repro.rdf.idquery.IdIndex`)."""

    form: str  # "select" | "ask"
    projection: tuple[Variable, ...]  # empty tuple = SELECT *
    bgp: BGPQuery
    #: SELECT DISTINCT was written.  The engine's ``select`` always
    #: returns distinct rows, so this records intent without changing
    #: the result.
    distinct: bool = False
    #: LIMIT n, or None for all rows.  Applied after the deterministic
    #: sort, so a limited query is reproducible.
    limit: int | None = None

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The projected variables (``SELECT *``: all, sorted by name)."""
        return self.projection or tuple(
            sorted(self.bgp.variables(), key=lambda v: v.name))

    def execute(self, graph: Graph) -> list[Bindings]:
        return IdIndex(graph, ordering="bound").execute(self.bgp)

    def ask(self, graph: Graph) -> bool:
        return IdIndex(graph, ordering="bound").ask(self.bgp)

    def select(self, graph: Graph) -> list[tuple[Term, ...]]:
        rows = IdIndex(graph, ordering="bound").select(
            self.bgp, *self.variables)
        if self.limit is not None:
            rows = rows[: self.limit]
        return rows


class _SparqlParser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.index = 0
        self.prefixes: dict[str, str] = {}

    def peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise SparqlParseError("unexpected end of query")
        self.index += 1
        return tok

    # -- grammar -----------------------------------------------------------------

    def parse(self) -> ParsedQuery:
        while True:
            tok = self.peek()
            if tok is None:
                raise SparqlParseError("empty query")
            if (
                tok.kind in ("bareword", "prefix_decl")
                and tok.text.lstrip("@").upper() == "PREFIX"
            ):
                self.next()
                self._prefix()
                continue
            break
        form_tok = self.next()
        form = form_tok.text.upper() if form_tok.kind == "bareword" else ""
        if form == "SELECT":
            return self._finish(self._select())
        if form == "ASK":
            return self._finish(self._ask())
        if form in _UNSUPPORTED:
            raise SparqlParseError(
                f"{form} is outside the supported SPARQL subset "
                "(conjunctive SELECT/ASK only)"
            )
        raise SparqlParseError(
            f"expected SELECT or ASK, found {form_tok.text!r}"
        )

    def _finish(self, query: ParsedQuery) -> ParsedQuery:
        """Reject trailing tokens (e.g. ``LIMIT`` after an ASK, where it
        has no meaning) instead of silently ignoring them."""
        tok = self.peek()
        if tok is not None:
            raise SparqlParseError(
                f"unexpected {tok.text!r} after the end of the query"
            )
        return query

    def _prefix(self) -> None:
        name_tok = self.next()
        if name_tok.kind != "pname_full" or not name_tok.text.endswith(":"):
            raise SparqlParseError(
                f"expected prefix name, found {name_tok.text!r}"
            )
        iri_tok = self.next()
        if iri_tok.kind != "iri":
            raise SparqlParseError(f"expected IRI, found {iri_tok.text!r}")
        self.prefixes[name_tok.text[:-1]] = iri_tok.text[1:-1]

    def _select(self) -> ParsedQuery:
        projection: list[Variable] = []
        star = False
        distinct = False
        tok = self.peek()
        if tok is not None and tok.kind == "bareword" \
                and tok.text.upper() == "DISTINCT":
            distinct = True
            self.next()
        while True:
            tok = self.peek()
            if tok is None:
                raise SparqlParseError("unterminated SELECT clause")
            if tok.kind == "bareword" and tok.text.upper() == "WHERE":
                self.next()
                break
            if tok.kind == "punct" and tok.text == "{":
                break
            if tok.kind == "star":
                star = True
                self.next()
                continue
            if tok.kind == "var":
                projection.append(Variable(self.next().text[1:]))
                continue
            raise SparqlParseError(
                f"expected variable, '*' or WHERE, found {tok.text!r}"
            )
        if not star and not projection:
            raise SparqlParseError("SELECT needs variables or *")
        bgp = self._group()
        return ParsedQuery(
            form="select",
            projection=() if star else tuple(projection),
            bgp=bgp,
            distinct=distinct,
            limit=self._limit(),
        )

    def _limit(self) -> int | None:
        """An optional trailing ``LIMIT <n>`` solution modifier."""
        tok = self.peek()
        if tok is None or not (
            tok.kind == "bareword" and tok.text.upper() == "LIMIT"
        ):
            return None
        self.next()
        count_tok = self.peek()
        if (
            count_tok is None
            or count_tok.kind != "number"
            or any(c in count_tok.text for c in ".eE-")
        ):
            found = "end of query" if count_tok is None \
                else repr(count_tok.text)
            raise SparqlParseError(
                f"LIMIT needs a non-negative integer, found {found}"
            )
        self.next()
        return int(count_tok.text)

    def _ask(self) -> ParsedQuery:
        tok = self.peek()
        if tok is not None and tok.kind == "bareword" and tok.text.upper() == "WHERE":
            self.next()
        return ParsedQuery(form="ask", projection=(), bgp=self._group())

    def _group(self) -> BGPQuery:
        tok = self.next()
        if tok.kind != "punct" or tok.text != "{":
            raise SparqlParseError(f"expected '{{', found {tok.text!r}")
        patterns: list[Atom] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise SparqlParseError("unterminated group (missing '}')")
            if tok.kind == "punct" and tok.text == "}":
                self.next()
                break
            if tok.kind == "bareword" and tok.text.upper() in _UNSUPPORTED:
                raise SparqlParseError(
                    f"{tok.text.upper()} is outside the supported SPARQL "
                    "subset (conjunctive SELECT/ASK only)"
                )
            patterns.extend(self._triple_patterns())
        if not patterns:
            raise SparqlParseError("empty graph pattern")
        return BGPQuery(patterns)

    def _triple_patterns(self) -> list[Atom]:
        """One subject's patterns, honouring ';' and ',' lists."""
        out: list[Atom] = []
        subject = self._term()
        while True:
            predicate = self._term()
            while True:
                obj = self._term()
                out.append(Atom(subject, predicate, obj))
                tok = self.peek()
                if tok is not None and tok.kind == "punct" and tok.text == ",":
                    self.next()
                    continue
                break
            tok = self.peek()
            if tok is not None and tok.kind == "punct" and tok.text == ";":
                self.next()
                nxt = self.peek()
                if nxt is not None and nxt.kind == "punct" and nxt.text in ".}":
                    break
                continue
            break
        tok = self.peek()
        if tok is not None and tok.kind == "punct" and tok.text == ".":
            self.next()
        return out

    def _term(self) -> Term:
        tok = self.next()
        if tok.kind == "var":
            return Variable(tok.text[1:])
        if tok.kind == "kw_a":
            return RDF_TYPE
        if tok.kind == "iri":
            return URI(tok.text[1:-1])
        if tok.kind == "pname_full":
            colon = tok.text.index(":")
            prefix, local = tok.text[:colon], tok.text[colon + 1 :]
            namespace = self.prefixes.get(prefix)
            if namespace is None:
                raise SparqlParseError(f"unknown prefix {prefix + ':'!r}")
            return URI(namespace + local)
        if tok.kind in ("string", "triplequote"):
            quote = 3 if tok.kind == "triplequote" else 1
            lexical = _unescape(tok.text[quote:-quote], tok.lineno)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "caret":
                self.next()
                dtype = self._term()
                if not isinstance(dtype, URI):
                    raise SparqlParseError("datatype must be an IRI")
                return Literal(lexical, datatype=dtype)
            if nxt is not None and nxt.kind == "lang":
                self.next()
                return Literal(lexical, language=nxt.text[1:])
            return Literal(lexical)
        if tok.kind == "number":
            dt = XSD.decimal if any(c in tok.text for c in ".eE") else XSD.integer
            return Literal(tok.text, datatype=dt)
        if tok.kind == "boolean":
            return Literal(tok.text, datatype=XSD.boolean)
        raise SparqlParseError(f"unexpected token {tok.text!r} in pattern")


def parse_sparql(text: str) -> ParsedQuery:
    """Parse a SELECT/ASK query.

    >>> q = parse_sparql('''
    ...     PREFIX ex: <http://x.org/>
    ...     SELECT ?s WHERE { ?s a ex:Thing . }
    ... ''')
    >>> q.form
    'select'
    >>> [v.name for v in q.projection]
    ['s']
    """
    # Unsupported features often carry syntax (FILTER expressions, paths)
    # that the lexer cannot even tokenize; detect them up front so the
    # error names the feature instead of a stray character.
    import re as _re

    found = _re.search(
        r"\b(" + "|".join(sorted(_UNSUPPORTED)) + r")\b", text
    )
    if found:
        raise SparqlParseError(
            f"{found.group(1)} is outside the supported SPARQL subset "
            "(conjunctive SELECT/ASK only)"
        )
    try:
        return _SparqlParser(text).parse()
    except TurtleParseError as exc:
        raise SparqlParseError(str(exc)) from exc


def run_sparql(graph: Graph, text: str):
    """Parse and run in one call; returns rows for SELECT, bool for ASK.

    (Named ``run_sparql`` rather than ``sparql`` so the package-level
    re-export cannot shadow this module's attribute on ``repro.rdf``.)

    >>> from repro.rdf import Graph, URI
    >>> g = Graph()
    >>> _ = g.add_spo(URI("http://x.org/s"), RDF_TYPE, URI("http://x.org/T"))
    >>> run_sparql(g, "PREFIX ex: <http://x.org/> ASK { ex:s a ex:T }")
    True
    """
    query = parse_sparql(text)
    if query.form == "ask":
        return query.ask(graph)
    return query.select(graph)
