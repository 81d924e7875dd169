"""Datalog substrate: rule AST, rule-text parser, forward (naive and
semi-naive) engines, a backward SLD engine with tabling, and rule analysis.

The paper's reasoners are rule engines over *negation-free datalog* whose
atoms are triple patterns.  This package implements that model directly:

* :class:`Atom` — a triple pattern ``(s, p, o)`` whose positions are ground
  terms or :class:`~repro.rdf.terms.Variable`.
* :class:`Rule` — ``head <- body`` with a single head atom and a conjunctive
  body (a horn clause), exactly the paper's rule shape.
* :class:`ColumnarEngine` — the one forward-chaining fixpoint, over id
  stores, run inside every partition and by the KB.  Each rule is one
  :class:`~repro.datalog.join.RuleEvaluator`; every body atom after the
  delta scan is one join step (:func:`~repro.datalog.join.extend`), the
  same step that answers BGP queries.  Rules are skipped per round via a
  predicate dispatch index.
* :class:`SemiNaiveEngine` — the same fixpoint with a term graph in and
  out (encode → :class:`ColumnarEngine` → decode).
* :class:`NaiveEngine` — the textbook evaluator, kept as a test oracle and
  ablation baseline.
* :class:`BackwardEngine` — SLD resolution with tabling plus the Jena-style
  per-resource materialization driver the paper's Section VI analyzes
  (the source of the super-linear-speedup effect).
* :mod:`repro.datalog.analysis` — single-join classification (Section II)
  and the rule dependency graph (Algorithm 2).
"""

from repro.datalog.ast import Atom, Rule, Bindings
from repro.datalog.parser import RuleParseError, parse_rules, parse_rule
from repro.datalog.engine import SemiNaiveEngine, EngineStats, FixpointResult
from repro.datalog.plan import PlanKind, RulePlan, build_plan
from repro.datalog.columnar import ColumnarEngine
from repro.datalog.naive import NaiveEngine
from repro.datalog.backward import BackwardEngine, materialize_backward
from repro.datalog.analysis import (
    JoinClass,
    classify_rule,
    is_single_join,
    rule_dependency_graph,
    predicate_counts,
)

__all__ = [
    "Atom",
    "Rule",
    "Bindings",
    "RuleParseError",
    "parse_rules",
    "parse_rule",
    "SemiNaiveEngine",
    "NaiveEngine",
    "BackwardEngine",
    "materialize_backward",
    "EngineStats",
    "FixpointResult",
    "PlanKind",
    "RulePlan",
    "build_plan",
    "ColumnarEngine",
    "JoinClass",
    "classify_rule",
    "is_single_join",
    "rule_dependency_graph",
    "predicate_counts",
]
