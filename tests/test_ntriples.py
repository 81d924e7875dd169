"""Unit tests for N-Triples parsing and serialization, including the
malformed-input failure paths."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import (
    BNode,
    Graph,
    Literal,
    NTriplesParseError,
    Triple,
    URI,
    parse_ntriples,
    parse_ntriples_line,
    serialize_ntriples,
    triple_to_ntriples,
)


class TestParsing:
    def test_simple_triple(self):
        t = parse_ntriples_line("<ex:a> <ex:p> <ex:b> .")
        assert t == Triple(URI("ex:a"), URI("ex:p"), URI("ex:b"))

    def test_plain_literal(self):
        t = parse_ntriples_line('<ex:a> <ex:p> "hello" .')
        assert t.o == Literal("hello")

    def test_language_literal(self):
        t = parse_ntriples_line('<ex:a> <ex:p> "bonjour"@fr .')
        assert t.o == Literal("bonjour", language="fr")

    def test_datatyped_literal(self):
        t = parse_ntriples_line('<ex:a> <ex:p> "1"^^<ex:int> .')
        assert t.o == Literal("1", datatype=URI("ex:int"))

    def test_bnode_subject_and_object(self):
        t = parse_ntriples_line("_:s <ex:p> _:o .")
        assert t.s == BNode("s")
        assert t.o == BNode("o")

    def test_escapes(self):
        t = parse_ntriples_line(r'<ex:a> <ex:p> "tab\there\nnl \"q\" \\ done" .')
        assert t.o.lexical == 'tab\there\nnl "q" \\ done'

    def test_unicode_escape(self):
        t = parse_ntriples_line(r'<ex:a> <ex:p> "é\U0001F600" .')
        assert t.o.lexical == "é\U0001F600"

    def test_blank_lines_and_comments_skipped(self):
        doc = "\n# a comment\n<ex:a> <ex:p> <ex:b> .\n\n"
        assert len(list(parse_ntriples(doc))) == 1

    @pytest.mark.parametrize("tag", ["en", "en-GB", "zh-Hant-TW", "x-1a2b"])
    def test_language_tag_grammar(self, tag):
        t = parse_ntriples_line(f'<ex:a> <ex:p> "x"@{tag} .')
        assert t.o == Literal("x", language=tag)
        assert t.o.language == tag.lower()

    @pytest.mark.parametrize(
        "line",
        [
            "<ex:a> <ex:p> <ex:b> . # note",
            "<ex:a> <ex:p> <ex:b> .# note",
            "<ex:a> <ex:p> <ex:b> .\t#",
        ],
    )
    def test_comment_after_the_terminator(self, line):
        assert parse_ntriples_line(line) == Triple(
            URI("ex:a"), URI("ex:p"), URI("ex:b"))

    def test_surrogate_neighbours_still_parse(self):
        t = parse_ntriples_line(r'<ex:a> <ex:p> "\uD7FF\uE000" .')
        assert t.o.lexical == "\ud7ff\ue000"

    def test_extra_whitespace_tolerated(self):
        t = parse_ntriples_line("  <ex:a>   <ex:p>\t<ex:b>   .  ")
        assert t is not None


class TestMalformed:
    @pytest.mark.parametrize(
        "line",
        [
            "<ex:a> <ex:p> <ex:b>",  # missing dot
            "<ex:a> <ex:p> .",  # missing object
            "<ex:a <ex:p> <ex:b> .",  # unterminated IRI
            '<ex:a> <ex:p> "open .',  # unterminated literal
            "<ex:a> <ex:p> <ex:b> . trailing",  # junk after dot
            '"lit" <ex:p> <ex:b> .',  # literal subject
            "<ex:a> _:b <ex:c> .",  # bnode predicate
            r'<ex:a> <ex:p> "\q" .',  # unknown escape
            r'<ex:a> <ex:p> "\u12" .',  # truncated \u
            "<ex:a> <ex:p> <ex b> .",  # space inside IRI
            "_: <ex:p> <ex:b> .",  # empty bnode label
            '<ex:a> <ex:p> "x"@ .',  # empty language tag
            "<> <ex:p> <ex:o> .",  # empty IRI (was a bare ValueError)
            '<ex:a> <ex:p> "x"^^<> .',  # empty datatype IRI (ditto)
            r'<ex:a> <ex:p> "\uD800" .',  # lone surrogate: not UTF-8 writable
            r'<ex:a> <ex:p> "\uDFFF" .',
            r'<ex:a> <ex:p> "\U0000DC00" .',
            r"<ex:a\uD800> <ex:p> <ex:o> .",  # ... in an IRI too
            '<ex:a> <ex:p> "x"@- .',  # language tag: [a-zA-Z]+(-[a-zA-Z0-9]+)*
            '<ex:a> <ex:p> "x"@en- .',
            '<ex:a> <ex:p> "x"@en--gb .',
            '<ex:a> <ex:p> "x"@1en .',
            '<ex:a> <ex:p> "x"@\u00e9 .',  # isalnum() but not ASCII
            '<ex:a> <ex:p> "x"@en\u00e9 .',
            "<ex:a> <ex:p> <ex:b> . <ex:c> # not only a comment",
            # \u takes hex digits only, not whatever int(x, 16) takes.
            r"<ex:\u+1F0> <ex:p> <ex:o> .",
            r"<ex:\u1_00> <ex:p> <ex:o> .",
            r'<ex:a> <ex:p> "\u+1F0" .',
            r'<ex:a> <ex:p> "\u 1F0" .',
            r'<ex:a> <ex:p> "\U0000_1F0" .',
        ],
    )
    def test_raises_parse_error(self, line):
        with pytest.raises(NTriplesParseError) as info:
            parse_ntriples_line(line, 7)
        assert info.value.lineno == 7
        assert type(info.value) is NTriplesParseError

    def test_error_carries_line_number(self):
        doc = "<ex:a> <ex:p> <ex:b> .\nBROKEN\n"
        with pytest.raises(NTriplesParseError, match="line 2"):
            list(parse_ntriples(doc))


class TestRoundTrip:
    def test_graph_round_trip(self):
        g = Graph()
        g.add_spo(URI("ex:a"), URI("ex:p"), URI("ex:b"))
        g.add_spo(URI("ex:a"), URI("ex:p"), Literal('with "quotes"\n'))
        g.add_spo(BNode("n1"), URI("ex:p"), Literal("x", language="en"))
        g.add_spo(URI("ex:a"), URI("ex:p"), Literal("1", datatype=URI("ex:int")))
        doc = serialize_ntriples(g)
        assert Graph(parse_ntriples(doc)) == g

    def test_sorted_serialization_is_canonical(self):
        t1 = Triple(URI("ex:a"), URI("ex:p"), URI("ex:b"))
        t2 = Triple(URI("ex:c"), URI("ex:p"), URI("ex:d"))
        assert serialize_ntriples([t1, t2], sort=True) == serialize_ntriples(
            [t2, t1], sort=True
        )

    def test_single_triple_form(self):
        t = Triple(URI("ex:a"), URI("ex:p"), URI("ex:b"))
        assert triple_to_ntriples(t) == "<ex:a> <ex:p> <ex:b> ."

    def test_control_character_iri_round_trips(self):
        # An IRI read from an escaped control character writes the
        # escape back, so the line reads again.
        t = parse_ntriples_line(r"<ex:a\u0001> <ex:p> <ex:o> .")
        assert t.s == URI("ex:a\x01")
        assert triple_to_ntriples(t) == r"<ex:a\u0001> <ex:p> <ex:o> ."
        assert parse_ntriples_line(triple_to_ntriples(t)) == t


_uris = st.text(min_size=1).map(URI)
_bnodes = st.from_regex(
    r"[A-Za-z0-9_]([A-Za-z0-9_.-]*[A-Za-z0-9_-])?", fullmatch=True
).map(BNode)
_langs = st.from_regex(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8}){0,2}",
                       fullmatch=True)
_literals = st.one_of(
    st.builds(Literal, st.text()),
    st.builds(lambda lex, lang: Literal(lex, language=lang),
              st.text(), _langs),
    st.builds(lambda lex, dt: Literal(lex, datatype=dt), st.text(), _uris),
)
_any_triples = st.builds(
    Triple, st.one_of(_uris, _bnodes), _uris,
    st.one_of(_uris, _bnodes, _literals))


@settings(max_examples=200, deadline=None)
@given(st.lists(_any_triples, max_size=8))
def test_writer_reader_round_trip_every_term_kind(triples):
    """Every term kind, any text: what the writer emits the reader reads
    back to the same triples, from a string and from a stream."""
    doc = serialize_ntriples(triples)
    assert list(parse_ntriples(doc)) == triples
    assert list(parse_ntriples(io.StringIO(doc, newline=""))) == triples
