"""Plan-time rule analysis for the rule evaluator.

Each rule is analyzed once, at engine construction, into a declarative
:class:`RulePlan` that :class:`~repro.datalog.join.RuleEvaluator` and the
predicate dispatch of :class:`~repro.datalog.columnar.ColumnarEngine`
read:

* the *kind* — how the per-delta-position joins combine (see
  :class:`PlanKind`);
* the variable order — every rule variable in first-occurrence order, the
  column order of the evaluator's binding matrix;
* the *dispatch signature* — the set of ground body predicates, which
  lets the engine skip rules that no delta row can possibly feed.

Plans are pure analysis: they never touch a store.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.datalog.ast import Rule
from repro.rdf.terms import Term, Variable


class PlanKind(enum.Enum):
    """How a rule's semi-naive halves are combined."""

    #: 1-atom body: one scan of the delta, nothing to combine.
    SCAN = "scan"
    #: 2-atom body sharing at least one variable: the second half joins
    #: against ``G ∖ Δ``, so the halves are disjoint.
    JOIN = "join"
    #: Everything else (3+ atoms, or a 2-atom cross product): the halves
    #: are deduplicated by binding.
    GENERIC = "generic"


@dataclass(frozen=True)
class RulePlan:
    """Everything the evaluator needs to specialize one rule."""

    rule: Rule
    kind: PlanKind
    #: Total number of variables in the rule.
    nvars: int
    #: Every body variable, in first-occurrence order.
    var_order: tuple[Variable, ...]
    #: Ground predicates of the body atoms, or ``None`` if any body atom
    #: has a variable in predicate position (rule must always dispatch).
    body_predicates: frozenset[Term] | None


def build_plan(rule: Rule) -> RulePlan:
    """Analyze one rule into a :class:`RulePlan`.

    >>> from repro.datalog.parser import parse_rules
    >>> r = parse_rules('''@prefix ex: <ex:>
    ... [t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]''')[0]
    >>> plan = build_plan(r)
    >>> plan.kind, plan.nvars
    (<PlanKind.JOIN: 'join'>, 3)
    """
    var_order: dict[Variable, None] = {}
    for atom in rule.body:
        for term in atom:
            if isinstance(term, Variable):
                var_order.setdefault(term)
    # Head variables are body variables by the safety check in Rule.

    body = rule.body
    if len(body) == 1:
        kind = PlanKind.SCAN
    elif len(body) == 2 and body[0].variables() & body[1].variables():
        kind = PlanKind.JOIN
    else:
        kind = PlanKind.GENERIC

    preds: set[Term] = set()
    wildcard = False
    for atom in body:
        if isinstance(atom.p, Variable):
            wildcard = True
            break
        preds.add(atom.p)

    return RulePlan(
        rule=rule,
        kind=kind,
        nvars=len(var_order),
        var_order=tuple(var_order),
        body_predicates=None if wildcard else frozenset(preds),
    )
