"""The N-Triples line recogniser against its oracle, the per-character
``_Scanner``: a differential over generated documents, a fuzz property, the
``read_rows`` sink against ``encode_rows(parse_ntriples(...))``, and the
"no ``Triple``, no ``Graph``" and hash-seed pins of the rows path."""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import LUBM
from repro.owl.kb import MaterializedKB
from repro.rdf import (
    Graph,
    NTriplesParseError,
    PartitionDictionary,
    TermDictionary,
    Triple,
    parse_ntriples,
    parse_ntriples_line,
    read_rows,
    serialize_ntriples,
)
from repro.rdf import ntriples
from repro.rdf.dictionary import encode_rows

# -- generated documents ---------------------------------------------------------

def _mostly(good, bad):
    """Mostly well-formed tokens: an error ends a parse, so a document of
    mostly malformed lines would leave everything after line 1 unread."""
    return st.sampled_from(good * (15 * len(bad)) + bad * len(good))


_PLAIN = st.text(
    alphabet=st.sampled_from("abzAZ09 _-.:/#@^<>é\u00a0\u4e2d'{}|"), max_size=6)
_ESCAPE = _mostly(
    [r"\t", r"\b", r"\n", r"\r", r"\f", r"\"", r"\'", r"\\",
     r"\u00e9", r"\u0041", r"\U0001F600", r"\u2028", r"\U0010FFFF"],
    [r"\q", r"\u12", r"\U0001F60", r"\uD800", r"\UFFFFFFFF", r"\U00110000",
     "\\"])
_IRI = _mostly(
    ["ex:a", "ex:a", "ex:b", "http://x.org/p#q", "ex:é", "u:\u4e2d",
     r"ex:\u0041", r"ex:\U0001F600", "a<b"],
    [r"ex:\t", "ex a", "", 'a"b', "a{b}", r"ex:\uDC00", "a\x7f\x00b"],
).map(lambda body: f"<{body}>")
_BNODE = _mostly(
    ["_:b0", "_:a-b_c", "_:a.b", "_:a.b.c", "_:a..b", "_:é1", "_:-x", "_:9",
     "_:a."],
    ["_:", "_:.", "_ :a"])
_LANG = _mostly(
    ["@en", "@en-GB", "@EN", "@zh-Hant-TW", "@e-1"],
    ["@", "@-", "@en-", "@é", "@1e", "@ en"])
_LITERAL = st.builds(
    lambda parts, suffix: '"' + "".join(parts) + '"' + suffix,
    st.lists(st.one_of(_PLAIN.map(lambda s: s.replace('"', "")), _ESCAPE),
             max_size=4),
    st.one_of(st.just(""), _LANG, _IRI.map(lambda iri: "^^" + iri),
              _mostly([""], ["^^", "^<ex:t>"])),
)
_GAP = st.sampled_from([" ", " ", " ", "\t", "  \t ", ""])
_EDGE_WS = st.sampled_from(
    ["", "", "", " ", "\t", "\u00a0", "\u2003 ", "\x1f", "\u3000\t"])
_TAIL = _mostly(["", "", "", " # note", "# note"], [" junk", ".", " ."])


@st.composite
def _statements(draw):
    # one_of() drops repeated branches, so the odds are drawn by hand
    pick = draw(st.integers(0, 23))
    s = draw(_LITERAL if pick == 0 else _BNODE if pick < 9 else _IRI)
    p = draw(_BNODE if pick == 23 else _IRI)
    o = draw(st.one_of(_IRI, _BNODE, _LITERAL))
    g1, g2, g3 = draw(_GAP), draw(_GAP), draw(_GAP)
    return (f"{draw(_EDGE_WS)}{s}{g1}{p}{g2}{o}{g3}.{draw(_TAIL)}"
            f"{draw(_EDGE_WS)}")


@st.composite
def _mutated(draw):
    line = draw(_statements())
    if not line:
        return line
    at = draw(st.integers(0, len(line) - 1))
    edit = draw(st.sampled_from(["drop", "dup", "cut", "swap"]))
    if edit == "drop":
        return line[:at] + line[at + 1:]
    if edit == "dup":
        return line[:at] + line[at] + line[at:]
    if edit == "cut":
        return line[:at]
    return line[:at] + draw(st.sampled_from('<>"_:.\\@^# \t')) + line[at + 1:]


_OTHER_LINES = st.sampled_from(
    ["", "   ", "# a comment", "  # indented comment", "\u00a0", "BROKEN"])
_LINES = st.one_of(
    _statements().filter(lambda line: ntriples._LINE.match(line) is not None),
    _statements(),
    _OTHER_LINES,
    _mutated(),
)
# Every boundary str.splitlines honours, CRLF included.
_EOL = st.sampled_from(
    ["\n", "\n", "\n", "\r\n", "\r", "\x85", "\u2028", "\u2029", "\x0b",
     "\x0c", "\x1c", "\x1d", "\x1e"])


@st.composite
def _documents(draw):
    lines = draw(st.lists(_LINES, max_size=8))
    text = "".join(line + draw(_EOL) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(rows):
    """What a parse produced before it stopped, and the line it stopped
    at (``None`` when it reached the end)."""
    out = []
    try:
        for row in rows:
            out.append(row)
    except NTriplesParseError as exc:
        assert exc.lineno is not None and str(exc).startswith(f"line {exc.lineno}: ")
        return out, exc.lineno
    return out, None


def _oracle(lines, start=1):
    """The document read by the scanner alone."""
    for lineno, line in enumerate(lines, start):
        terms = ntriples._scan_line(line, lineno)
        if terms is not None:
            yield Triple(*terms)


def _same_terms(got, want):
    return len(got) == len(want) and all(
        a is b for t, u in zip(got, want) for a, b in zip(t, u))


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_recogniser_equals_scanner_on_documents(doc):
    want = _outcome(_oracle(doc.splitlines()))
    got = _outcome(parse_ntriples(doc))
    assert got == want and _same_terms(got[0], want[0])
    # A stream splits on "\n" only; the other boundaries stay in the line.
    assert _outcome(parse_ntriples(io.StringIO(doc))) == _outcome(
        _oracle(io.StringIO(doc)))


@settings(max_examples=400, deadline=None)
@given(_LINES, st.sampled_from(["", "\n", "\r\n"]))
def test_recogniser_equals_scanner_on_one_line(line, eol):
    line += eol
    want = _outcome(_oracle([line], start=3))
    got = _outcome(filter(None, map(parse_ntriples_line, [line], [3])))
    assert got == want and _same_terms(got[0], want[0])


def test_generated_documents_reach_both_paths():
    """The differential means nothing if one side never runs."""
    recognised = scanned = errors = 0

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(_LINES)
    def count(line):
        nonlocal recognised, scanned, errors
        if ntriples._LINE.match(line):
            recognised += 1
            return
        try:
            scanned += ntriples._scan_line(line) is not None
        except NTriplesParseError:
            errors += 1

    count()
    assert min(recognised, scanned, errors) >= 10, (recognised, scanned, errors)


@pytest.mark.parametrize("line,recognised", [
    ("<ex:a> <ex:p> <ex:b> .", True),
    ("_:a <ex:p> _:b-c .", True),
    ("<ex:a><ex:p>_:a.", True),
    ('<ex:a> <ex:p> "v"@en-GB.', True),
    ('\u00a0<ex:a>\t<ex:p> "v"^^<ex:t>  .\u2003\r\n', True),
    (r'<ex:a> <ex:p> "a\tb" .', False),
    (r"<ex:\u0041> <ex:p> <ex:b> .", False),
    ("<ex:a> <ex:p> _:a.b .", False),
    ("<ex:a> <ex:p> _:é .", False),
    ("<ex:a> <ex:p> <ex:b> . # note", False),
    ("# comment", False),
    ("", False),
])
def test_which_lines_the_recogniser_takes(line, recognised):
    assert (ntriples._LINE.match(line) is not None) == recognised
    want = ntriples._scan_line(line)
    assert parse_ntriples_line(line) == (want and Triple(*want))


# -- fuzz: a typed error or a valid parse ------------------------------------------


def _parses_or_typed_error(text):
    for source in (text, io.StringIO(text)):
        try:
            triples = list(parse_ntriples(source))
        except NTriplesParseError as exc:
            assert exc.lineno is not None
        else:
            assert all(type(t) is Triple for t in triples)
            # What parsed can be written out (no lone surrogates).  Reading
            # it back is not asserted: URI.n3() writes an IRI that held an
            # escaped control character unescaped (ROADMAP item 2, left).
            serialize_ntriples(triples).encode("utf-8")
    try:
        rows = read_rows(text, TermDictionary())
    except NTriplesParseError:
        return
    assert len(rows[0]) == len(triples)


@settings(max_examples=300, deadline=2000)
@given(st.one_of(
    st.text(max_size=60),
    st.text(alphabet='<>"_:.\\@^# \tabu09-\n\r\u2028é', max_size=60),
    st.lists(_mutated(), max_size=4).map("\n".join),
))
def test_fuzz_typed_error_or_valid_parse(text):
    _parses_or_typed_error(text)


@pytest.mark.parametrize("line", [
    " " * 200_000,
    " " * 200_000 + "x",
    "<ex:a> <ex:p> " + '"x"@a' + "-a" * 100_000 + "!",
    "<ex:a> <ex:p> " + '"' + "y" * 200_000,
    "<ex:a>" + " \t" * 100_000 + "<ex:p> <ex:b>",
    "_:" + "a-" * 100_000 + " <ex:p> <ex:b> ,",
    "<" + "a" * 200_000,
])
def test_no_line_is_superlinear(line):
    """Never a hang: the recogniser fails fast on lines built to make a
    backtracking matcher retry."""
    t0 = time.perf_counter()
    for _ in range(3):
        try:
            parse_ntriples_line(line, 1)
        except NTriplesParseError:
            pass
    assert time.perf_counter() - t0 < 5.0


# -- the rows sink -----------------------------------------------------------------


def _rows_outcome(read):
    d = TermDictionary()
    try:
        s, p, o = read(d)
    except NTriplesParseError as exc:
        return None, exc.lineno, d.terms()
    assert s.dtype == p.dtype == o.dtype == np.int64
    return (s.tolist(), p.tolist(), o.tolist()), None, d.terms()


@settings(max_examples=200, deadline=None)
@given(_documents())
def test_read_rows_equals_encode_rows_of_parse(doc):
    for make in (str, io.StringIO):
        want = _rows_outcome(lambda d: encode_rows(d, parse_ntriples(make(doc))))
        got = _rows_outcome(lambda d: read_rows(make(doc), d))
        assert got[:2] == want[:2]
        # encode_rows consumes the whole parse before it mints and read_rows
        # mints as it reads, so the dictionaries agree when no error cut in.
        if want[1] is None:
            assert got[2] == want[2]


_DOC = (
    '<ex:a> <ex:p> <ex:b> .\n'
    '# comment\n'
    '<ex:a> <ex:p> <ex:b> .\n'                  # duplicate line
    r'<ex:b> <ex:p> "t\tab"@EN .' '\n'           # scanner line
    '<ex:b> <ex:p> "t\tab"@en .\n'               # same term, other lexeme
    '\n'
    '_:n1 <ex:q> "1"^^<ex:int> .\n'
    '<ex:a> <ex:p> <ex:b> .\n'
)


@pytest.mark.parametrize("make_source", [str, io.StringIO], ids=["str", "TextIO"])
def test_read_rows_columns_and_mint_order(make_source):
    want_d, got_d = TermDictionary(), TermDictionary()
    want = encode_rows(want_d, parse_ntriples(_DOC))
    got = read_rows(make_source(_DOC), got_d)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]
    assert got[0].tolist() == [0, 0, 2, 2, 4, 0]  # duplicates are rows too
    assert got_d.terms() == want_d.terms()
    # Reading again mints nothing and returns the same ids.
    again = read_rows(make_source(_DOC), got_d)
    assert [c.tolist() for c in again] == [c.tolist() for c in got]
    assert len(got_d) == len(want_d)


def test_read_rows_empty_and_partition_dictionary():
    s, p, o = read_rows("# nothing\n\n", TermDictionary())
    assert s.shape == p.shape == o.shape == (0,) and s.dtype == np.int64
    base = TermDictionary()
    read_rows("<ex:a> <ex:p> <ex:b> .", base)
    stripe = PartitionDictionary(base, node_id=1, k=2)
    s, p, o = read_rows("<ex:a> <ex:p> <ex:c> .\n<ex:c> <ex:p> <ex:a> .", stripe)
    minted = stripe.base_size + stripe.node_id  # first id of node 1's stripe
    assert s.tolist() == [0, minted] and o.tolist() == [minted, 0]
    assert stripe.decode(minted) == ntriples.URI("ex:c") and len(base) == 3


def test_memo_limit_only_bounds_memory(monkeypatch):
    doc = serialize_ntriples(LUBM(1, seed=3).data, sort=True)
    want_d, got_d = TermDictionary(), TermDictionary()
    want = read_rows(doc, want_d)
    triples = list(parse_ntriples(doc))
    monkeypatch.setattr(ntriples, "_MEMO_LIMIT", 3)
    got = read_rows(doc, got_d)
    assert all((a == b).all() for a, b in zip(got, want))
    assert got_d.terms() == want_d.terms()
    assert list(parse_ntriples(doc)) == triples


def test_error_line_numbers_reach_read_rows():
    with pytest.raises(NTriplesParseError, match="line 3") as info:
        read_rows("<ex:a> <ex:p> <ex:b> .\n\n<ex:a> <ex:p> <> .\n",
                  TermDictionary())
    assert info.value.lineno == 3


# -- rows into the KB: no Triple, no Graph -----------------------------------------


def _digest(kb):
    lines = sorted(f"{s.n3()} {p.n3()} {o.n3()}" for s, p, o in kb.graph)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _work(kb):
    stats = kb.last_load_stats
    return stats.join_probes, stats.firings, stats.derived, stats.iterations


def test_rows_path_builds_no_triple_and_no_graph(monkeypatch):
    lubm = LUBM(4, seed=1)
    doc = serialize_ntriples(lubm.data, sort=True)
    assert all(ntriples._LINE.match(line) for line in doc.splitlines())

    by_graph = MaterializedKB(lubm.ontology)
    by_graph.bulk_load(Graph(parse_ntriples(doc)))
    by_rows = MaterializedKB(lubm.ontology)

    built = []
    for cls in (Triple, Graph):
        init = cls.__init__

        def counting(self, *args, _init=init, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    rows = read_rows(doc, by_rows.dictionary)
    by_rows.bulk_load(rows)
    assert by_rows.add(rows) == 0  # add() takes rows too; nothing is new
    monkeypatch.undo()

    assert built == []
    assert len(rows[0]) == len(lubm.data)
    assert _work(by_rows)[3] == 0  # ... so that add() ran no fixpoint
    by_rows.rebuild()
    by_graph.rebuild()
    assert _work(by_rows) == _work(by_graph) and _work(by_rows)[2] > 0
    assert by_rows.size == by_graph.size
    assert _digest(by_rows) == _digest(by_graph)
    assert by_rows.base_graph == lubm.data


def test_bulk_load_rows_matches_graph_load_counters():
    lubm = LUBM(2, seed=5)
    doc = serialize_ntriples(lubm.data, sort=True)
    by_graph = MaterializedKB(lubm.ontology)
    by_graph.bulk_load(Graph(parse_ntriples(doc)))
    by_rows = MaterializedKB(lubm.ontology)
    by_rows.bulk_load(read_rows(doc, by_rows.dictionary))
    assert _work(by_rows) == _work(by_graph)
    assert _digest(by_rows) == _digest(by_graph)


def test_kb_rejects_rows_it_cannot_hold(family_tbox):
    kb = MaterializedKB(family_tbox)
    rows = read_rows('<ex:a> <ex:p> "v" .', kb.dictionary)
    with pytest.raises(NotImplementedError):
        kb.bulk_load(rows, parallel_k=2)
    foreign = read_rows("<ex:x> <ex:y> <ex:z> .", TermDictionary())
    with pytest.raises(ValueError, match="dictionary"):
        kb.bulk_load(tuple(col + len(kb.dictionary) for col in foreign))
    s, p, o = rows
    with pytest.raises(TypeError, match="subjects"):
        kb.add((o, p, s))  # a literal subject
    with pytest.raises(TypeError, match="int64"):
        kb.add((s.astype(np.int32), p, o))
    with pytest.raises(TypeError, match="one length"):
        kb.add((s[:0], p, o))
    assert kb.size == 0
    assert kb.add(rows) == 1 and kb.size >= 1


# -- ids and closure do not depend on the hash seed --------------------------------

_SEED_PROBE = """
import hashlib, json
from repro.datasets import LUBM
from repro.owl.kb import MaterializedKB
from repro.rdf import read_rows, serialize_ntriples

lubm = LUBM(2, seed=1)
doc = serialize_ntriples(lubm.data, sort=True)
kb = MaterializedKB(lubm.ontology)
rows = read_rows(doc, kb.dictionary)
kb.bulk_load(rows)
closure = sorted(f"{s.n3()} {p.n3()} {o.n3()}" for s, p, o in kb.graph)
stats = kb.last_load_stats
print(json.dumps({
    "rows": hashlib.sha256(b"".join(c.tobytes() for c in rows)).hexdigest(),
    "terms": hashlib.sha256(
        "\\n".join(t.n3() for t in kb.dictionary.terms()).encode()).hexdigest(),
    "closure": hashlib.sha256("\\n".join(closure).encode()).hexdigest(),
    "size": kb.size,
    "work": [stats.join_probes, stats.firings, stats.derived],
}))
"""


def test_read_rows_ids_and_closure_ignore_the_hash_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _SEED_PROBE],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": seed,
                 "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0]["size"] > 1000 and runs[0]["work"][2] > 0
