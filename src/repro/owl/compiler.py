"""Ontology -> instance-rule compilation ("compile the ontology into rules").

Rule-based OWL engines don't interpret the TBox at query time; they
*partially evaluate* the entailment rules against it (paper Section I/II;
Jena's hybrid engine does the same with its forward stage).  Two steps:

1. :func:`saturate_schema` — close the TBox under the schema-level rules
   (subclass/subproperty transitivity, equivalence bridges, domain/range
   inheritance), so e.g. ``A subClassOf B subClassOf C`` compiles a direct
   ``A -> C`` rule and instance reasoning never has to chain hierarchies.
2. :func:`compile_ontology` — for every :class:`RuleTemplate`, enumerate all
   bindings of its schema atoms against the saturated TBox and emit the
   residual instance rules.

The residual rules are zero-join or single-join by construction — the
property the paper's data-partitioning correctness argument needs — except
the optional faithful sameAs-propagation rule (``split_sameas=False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.datalog.analysis import check_data_partitionable
from repro.datalog.ast import Atom, Bindings, Rule
from repro.datalog.engine import SemiNaiveEngine, match_atom
from repro.owl.rules_horst import (
    HORST_TEMPLATES,
    RDFP11,
    RDFP11_SPLIT,
    SCHEMA_RULES,
    RuleTemplate,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import Variable


@dataclass
class CompiledRuleSet:
    """Output of :func:`compile_ontology`.

    ``rules`` is what each partition's engine runs; ``schema`` is the
    saturated TBox (the triples Algorithm 1 strips and every partition keeps
    a copy of); ``per_template`` records how many instance rules each Horst
    template expanded into (diagnostic, shown by the experiment harness).
    """

    rules: list[Rule]
    schema: Graph
    per_template: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rules)

    def engine(
        self,
        store: str | None = None,
        memory_budget_bytes: int | None = None,
    ) -> SemiNaiveEngine:
        """A fresh fixpoint engine over the compiled rules; ``store`` /
        ``memory_budget_bytes`` pick its id store ("dense" / "run") and
        the resident-byte cap."""
        return SemiNaiveEngine(
            self.rules, store=store, memory_budget_bytes=memory_budget_bytes,
        )

    def check_single_join(self) -> None:
        """Assert every compiled rule is safe for data partitioning."""
        check_data_partitionable(self.rules)


def saturate_schema(schema: Graph, rules: Sequence[Rule] = SCHEMA_RULES) -> Graph:
    """Close a TBox under the schema-level rules.  Returns a new graph;
    the input is not mutated."""
    out = schema.copy()
    SemiNaiveEngine(rules).run(out)
    return out


def schema_can_produce_sameas(schema: Graph) -> bool:
    """Whether the TBox can generate ``owl:sameAs`` conclusions: only the
    functional/inverse-functional rules (rdfp1/rdfp2) produce them in pD*.
    """
    from repro.owl.vocabulary import OWL, RDF

    return (
        next(schema.match(None, RDF.type, OWL.FunctionalProperty), None) is not None
        or next(schema.match(None, RDF.type, OWL.InverseFunctionalProperty), None)
        is not None
    )


def compile_ontology(
    schema: Graph,
    templates: Sequence[RuleTemplate] = HORST_TEMPLATES,
    include_sameas_propagation: bool | str = "auto",
    split_sameas: bool = True,
    saturate: bool = True,
) -> CompiledRuleSet:
    """Compile a TBox into instance-level rules.

    Parameters
    ----------
    schema:
        The ontology triples (TBox).  Instance triples may be present; only
        schema-shaped atoms are consulted.
    templates:
        The Horst templates to expand (default: the full pD* instance set).
    include_sameas_propagation / split_sameas:
        Whether to include the sameAs equality theory (rdfp6/rdfp7 and the
        propagation rule), and whether propagation uses the single-join
        split (rdfp11a/b, default — required for data partitioning) or the
        faithful 3-atom rdfp11.  The default ``"auto"`` includes it only
        when the TBox can actually produce sameAs conclusions (declares a
        Functional/InverseFunctional property) — the standard rule-set
        pruning of production engines (OWLIM et al.), and a large win for
        the backward engine, whose wildcard-head propagation rules
        otherwise make every proof goal cyclic.  **Caveat:** if the
        *instance data* asserts ``owl:sameAs`` directly while the TBox has
        no FP/IFP, pass ``True`` explicitly.
    saturate:
        Close the TBox under :data:`SCHEMA_RULES` first (default).  Disable
        only when the caller passes an already-saturated schema.

    >>> from repro.rdf import Graph, URI, Triple
    >>> from repro.owl.vocabulary import RDFS
    >>> tbox = Graph([Triple(URI("ex:Student"), RDFS.subClassOf, URI("ex:Person"))])
    >>> crs = compile_ontology(tbox)
    >>> any(r.name.startswith("rdfs9") for r in crs.rules)
    True
    """
    saturated = saturate_schema(schema) if saturate else schema.copy()

    if include_sameas_propagation == "auto":
        include_sameas = schema_can_produce_sameas(saturated)
    else:
        include_sameas = bool(include_sameas_propagation)

    templates = list(templates)
    if not include_sameas:
        # Drop the whole equality theory: with no sameAs producers, the
        # sym/trans rules (rdfp6/rdfp7) can never fire either.
        templates = [t for t in templates if t.name not in ("rdfp6", "rdfp7")]
    if include_sameas:
        templates.extend(RDFP11_SPLIT if split_sameas else (RDFP11,))

    rules: list[Rule] = []
    seen: set[tuple] = set()
    per_template: dict[str, int] = {}

    for template in templates:
        count = 0
        for compiled in _expand(template, saturated):
            key = (compiled.body, compiled.head)
            if key in seen:
                continue
            seen.add(key)
            rules.append(compiled)
            count += 1
        per_template[template.name] = count

    # owl:intersectionOf / owl:unionOf are list-valued and cannot be
    # expressed as fixed-arity templates; expand them by walking the RDF
    # collections in the TBox.
    list_rules, list_counts = _expand_class_lists(saturated)
    for compiled in list_rules:
        key = (compiled.body, compiled.head)
        if key not in seen:
            seen.add(key)
            rules.append(compiled)
    per_template.update(list_counts)

    return CompiledRuleSet(rules=rules, schema=saturated, per_template=per_template)


def read_rdf_list(graph: Graph, head) -> list:
    """Materialize an RDF collection (rdf:first/rdf:rest chain) as a list.

    Malformed lists (missing first/rest, cycles) raise ``ValueError`` —
    silently truncating an intersection would weaken its semantics.
    """
    from repro.owl.vocabulary import RDF

    items = []
    seen = set()
    node = head
    while node != RDF.nil:
        if node in seen:
            raise ValueError(f"cyclic RDF list at {node}")
        seen.add(node)
        first = graph.value(node, RDF.first)
        rest = graph.value(node, RDF.rest)
        if first is None or rest is None:
            raise ValueError(f"malformed RDF list node {node}")
        items.append(first)
        node = rest
    return items


def _expand_class_lists(schema: Graph) -> tuple[list[Rule], dict[str, int]]:
    """Instance rules for owl:intersectionOf and owl:unionOf class
    definitions (ter Horst's pD* extensions; Jena's OWL rule set includes
    the same).

    * ``C unionOf (D1..Dn)``: each Di is a subclass of C — one zero-join
      rule per member.  (The converse direction is a disjunction, outside
      datalog.)
    * ``C intersectionOf (D1..Dn)``: both directions are horn —
      membership in every Di implies C (one **star-join** rule: all body
      atoms share ?x, so the paper's data-partitioning argument still
      applies — see :class:`repro.datalog.analysis.JoinClass`), and C
      implies each Di (zero-join rules).
    """
    from repro.owl.vocabulary import OWL, RDF

    x = Variable("x")
    rules: list[Rule] = []
    counts = {"unionOf": 0, "intersectionOf": 0}

    # sorted: see the binding sort in `_expand`.
    for t in sorted(schema.match(None, OWL.unionOf, None)):
        members = read_rdf_list(schema, t.o)
        for i, member in enumerate(members):
            if member == t.s:
                continue
            rules.append(
                Rule(
                    f"unionOf.{counts['unionOf']}",
                    [Atom(x, RDF.type, member)],
                    Atom(x, RDF.type, t.s),
                )
            )
            counts["unionOf"] += 1

    for t in sorted(schema.match(None, OWL.intersectionOf, None)):
        members = read_rdf_list(schema, t.o)
        if not members:
            continue
        # D1 ∧ ... ∧ Dn -> C  (star join on ?x)
        rules.append(
            Rule(
                f"intersectionOf.{counts['intersectionOf']}",
                [Atom(x, RDF.type, m) for m in members],
                Atom(x, RDF.type, t.s),
            )
        )
        counts["intersectionOf"] += 1
        # C -> Di for each member
        for member in members:
            if member == t.s:
                continue
            rules.append(
                Rule(
                    f"intersectionOf.{counts['intersectionOf']}",
                    [Atom(x, RDF.type, t.s)],
                    Atom(x, RDF.type, member),
                )
            )
            counts["intersectionOf"] += 1

    return rules, counts


def _expand(template: RuleTemplate, schema: Graph) -> list[Rule]:
    """All instance rules a template yields against a saturated TBox."""
    rule = template.rule
    if not template.schema_positions:
        return [rule]

    # Join the schema atoms against the TBox to enumerate bindings.
    bindings_list: list[Bindings] = [{}]
    for pos in template.schema_positions:
        atom = rule.body[pos]
        next_list: list[Bindings] = []
        for b in bindings_list:
            next_list.extend(match_atom(schema, atom, b))
        bindings_list = next_list
        if not bindings_list:
            return []
    # `match_atom` walks set-valued index leaves, whose order follows
    # PYTHONHASHSEED; sorting makes rule order and the `.N` name suffixes
    # (and so rule partitioning) a function of the ontology alone.
    bindings_list.sort(key=lambda b: sorted(b.items()))

    out: list[Rule] = []
    residual_atoms = [
        rule.body[i]
        for i in range(len(rule.body))
        if i not in template.schema_positions
    ]
    for i, b in enumerate(bindings_list):
        body = [a.substitute(b) for a in residual_atoms]
        head = rule.head.substitute(b)
        if head in body:
            # Degenerate expansion, e.g. rdfs9 over a reflexive
            # subClassOf pair compiles to (?s type C) -> (?s type C).
            continue
        try:
            # '.' (not '#') joins template name and expansion index so the
            # name survives the rule-text syntax, where '#' starts comments.
            out.append(Rule(f"{rule.name}.{i}", body, head))
        except ValueError:
            # Unsafe residual (head variable vanished from the body because
            # schema binding grounded it away) — cannot happen with the
            # shipped templates, but user templates get a clean skip.
            continue
    return out
