#!/usr/bin/env python
"""Using the datalog layer directly: write rules in the text syntax, run
the semi-naive engine against the naive oracle, ask the backward engine a
question, and partition a custom rule base (Algorithm 2) — the library
without the OWL layer on top.

Run:  python examples/custom_rules.py
"""

from repro.datalog import (
    BackwardEngine,
    NaiveEngine,
    SemiNaiveEngine,
    classify_rule,
    parse_rules,
)
from repro.datalog.ast import Atom
from repro.partitioning import partition_rules
from repro.rdf import Graph, URI
from repro.rdf.terms import Variable

RULES_TEXT = """
@prefix net: <http://example.org/network#>

# Reachability: direct links reach, and reach is transitive through links.
[reach-base:  (?a net:linkedTo ?b) -> (?a net:reaches ?b)]
[reach-trans: (?a net:reaches ?b) (?b net:linkedTo ?c) -> (?a net:reaches ?c)]

# Two-way links.
[symmetric:   (?a net:linkedTo ?b) -> (?b net:linkedTo ?a)]

# A node reaching a gateway is itself externally connected.
[external:    (?a net:reaches ?g) (?g net:isGateway "true") -> (?a net:external "true")]
"""

NET = "http://example.org/network#"


def main() -> None:
    rules = parse_rules(RULES_TEXT)
    print("parsed rules:")
    for rule in rules:
        print(f"  {rule}   [{classify_rule(rule).value}]")

    # A little ring network with one gateway.
    g = Graph()
    nodes = [URI(f"{NET}host{i}") for i in range(6)]
    for a, b in zip(nodes, nodes[1:]):
        g.add_spo(a, URI(NET + "linkedTo"), b)
    from repro.rdf import Literal
    g.add_spo(nodes[-1], URI(NET + "isGateway"), Literal("true"))

    # --- forward engines agree -----------------------------------------------
    g1, g2 = g.copy(), g.copy()
    semi = SemiNaiveEngine(rules).run(g1)
    naive = NaiveEngine(rules).run(g2)
    assert g1 == g2
    print(f"\nclosure: {len(g1)} triples "
          f"(semi-naive: {semi.stats.iterations} iterations, "
          f"{semi.stats.join_probes} probes; "
          f"naive: {naive.stats.iterations} iterations, "
          f"{naive.stats.join_probes} probes)")

    # --- ask the backward engine a question ----------------------------------
    backward = BackwardEngine(g.copy(), rules)
    answers = backward.query(
        Atom(nodes[0], URI(NET + "external"), Variable("x"))
    )
    print(f"is host0 externally connected? {'yes' if answers else 'no'}")

    # --- Algorithm 2 on the custom rule base ----------------------------------
    partitioned = partition_rules(rules, k=2, seed=1)
    print(f"\nrule partitioning (k=2, dependency edge cut = "
          f"{partitioned.edge_cut}):")
    for i, subset in enumerate(partitioned.rule_sets):
        print(f"  node {i}: {[r.name for r in subset]}")


if __name__ == "__main__":
    main()
