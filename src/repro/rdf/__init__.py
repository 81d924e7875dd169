"""RDF substrate: terms, triples, namespaces, an indexed triple store,
N-Triples I/O, and a term<->integer dictionary used by the datalog engine.

This is the storage layer every other subsystem builds on.  It deliberately
implements only what rule-based OWL-Horst materialization needs — ground
triples over IRIs, blank nodes, and literals — not the full RDF 1.1 stack
(no named graphs, no language-tag matching subtleties, no datatype
coercion), keeping the hot paths small.
"""

from repro.rdf.terms import URI, Literal, BNode, Term, Variable, is_resource
from repro.rdf.triple import Triple
from repro.rdf.namespace import Namespace, RDF, RDFS, OWL, XSD
from repro.rdf.graph import Graph
from repro.rdf.dictionary import EncodedGraph, PartitionDictionary, TermDictionary
from repro.rdf.idstore import IdGraph
from repro.rdf.runstore import RunStore
from repro.rdf.query import BGPQuery, BGPStats
from repro.rdf.idquery import IdBGPQuery, IdIndex
from repro.rdf.turtle import (
    TurtleParseError,
    parse_turtle,
    parse_turtle_graph,
    serialize_turtle,
)
from repro.rdf.sparql import (
    ParsedQuery,
    SparqlParseError,
    parse_sparql,
    run_sparql,
)
from repro.rdf.ntriples import (
    NTriplesParseError,
    parse_ntriples,
    parse_ntriples_line,
    read_rows,
    serialize_ntriples,
    triple_to_ntriples,
)

__all__ = [
    "URI",
    "Literal",
    "BNode",
    "Variable",
    "Term",
    "is_resource",
    "Triple",
    "Namespace",
    "RDF",
    "RDFS",
    "OWL",
    "XSD",
    "Graph",
    "BGPQuery",
    "BGPStats",
    "IdBGPQuery",
    "IdIndex",
    "TermDictionary",
    "PartitionDictionary",
    "EncodedGraph",
    "IdGraph",
    "RunStore",
    "NTriplesParseError",
    "TurtleParseError",
    "parse_turtle",
    "parse_turtle_graph",
    "serialize_turtle",
    "ParsedQuery",
    "SparqlParseError",
    "parse_sparql",
    "run_sparql",
    "parse_ntriples",
    "parse_ntriples_line",
    "read_rows",
    "serialize_ntriples",
    "triple_to_ntriples",
]
