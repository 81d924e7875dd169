"""The rule evaluator: plan selection, predicate dispatch, pinned work
counters, and oracle differentials — :class:`SemiNaiveEngine` against
:class:`NaiveEngine` over random rules, and the id query engine
(``IdIndex(ordering="bound")``) against :class:`BGPQuery` over random
BGPs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Atom,
    NaiveEngine,
    PlanKind,
    Rule,
    SemiNaiveEngine,
    build_plan,
    parse_rules,
)
from repro.datalog.columnar import IdDispatchIndex
from repro.datasets import LUBM, MDC, UOBM
from repro.datasets.lubm_queries import LUBM_QUERIES
from repro.owl.compiler import compile_ontology
from repro.owl.reasoner import HorstReasoner
from repro.owl.vocabulary import OWL, RDF, RDFS
from repro.rdf import BGPQuery, Graph, IdIndex, Literal, TermDictionary, Triple, URI
from repro.rdf.terms import Variable

PREFIX = "@prefix ex: <ex:>\n"
TRANS = parse_rules(PREFIX + "[t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]")


def chain(n, pred="ex:p"):
    g = Graph()
    for i in range(n):
        g.add_spo(URI(f"ex:n{i}"), URI(pred), URI(f"ex:n{i + 1}"))
    return g


# -- plan selection ----------------------------------------------------------


class TestPlanSelection:
    def test_zero_join_compiles_to_scan(self):
        r = parse_rules(PREFIX + "[z: (?x ex:p ?y) -> (?y ex:q ?x)]")[0]
        assert build_plan(r).kind is PlanKind.SCAN

    def test_single_join_compiles_to_join(self):
        assert build_plan(TRANS[0]).kind is PlanKind.JOIN

    def test_cartesian_two_atom_falls_back(self):
        r = parse_rules(
            PREFIX + "[c: (?a ex:p ?b) (?c ex:q ?d) -> (?a ex:r ?d)]"
        )[0]
        assert build_plan(r).kind is PlanKind.GENERIC

    def test_three_atom_falls_back(self):
        r = parse_rules(
            PREFIX + "[m: (?a ex:p ?b) (?b ex:q ?c) (?c ex:r ?d) -> (?a ex:s ?d)]"
        )[0]
        assert build_plan(r).kind is PlanKind.GENERIC

    def test_engine_reports_kernel_kinds(self):
        rules = parse_rules(
            PREFIX
            + "[z: (?x ex:p ?y) -> (?y ex:q ?x)]"
            + "[t: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]"
            + "[m: (?a ex:p ?b) (?b ex:q ?c) (?c ex:r ?d) -> (?a ex:s ?d)]"
        )
        assert tuple(build_plan(r).kind.value for r in rules) == (
            "scan", "join", "generic")

    def test_variable_predicate_rule_is_wildcard_dispatch(self):
        r = parse_rules(
            PREFIX + "[p11a: (?s <http://www.w3.org/2002/07/owl#sameAs> ?x)"
            " (?s ?p ?o) -> (?x ?p ?o)]"
        )[0]
        plan = build_plan(r)
        assert plan.kind is PlanKind.JOIN
        assert plan.body_predicates is None


# -- kernel correctness ------------------------------------------------------


class TestKernels:
    def test_transitive_chain_closure(self):
        g = chain(5)
        SemiNaiveEngine(TRANS).run(g)
        assert len(g) == 15

    def test_scan_kernel_rewrites(self):
        rules = parse_rules(PREFIX + "[z: (?x ex:p ?y) -> (?y ex:q ?x)]")
        g = chain(3)
        result = SemiNaiveEngine(rules).run(g)
        assert result.stats.derived == 3
        assert Triple(URI("ex:n1"), URI("ex:q"), URI("ex:n0")) in g

    def test_scan_kernel_repeated_variable(self):
        rules = parse_rules(PREFIX + "[r: (?x ex:p ?x) -> (?x ex:self ?x)]")
        g = Graph()
        g.add_spo(URI("ex:a"), URI("ex:p"), URI("ex:a"))
        g.add_spo(URI("ex:a"), URI("ex:p"), URI("ex:b"))
        result = SemiNaiveEngine(rules).run(g)
        assert result.stats.derived == 1
        assert Triple(URI("ex:a"), URI("ex:self"), URI("ex:a")) in g

    def test_join_kernel_repeated_variable_in_other_atom(self):
        rules = parse_rules(
            PREFIX + "[r: (?x ex:p ?y) (?y ex:q ?y) -> (?x ex:r ?y)]"
        )
        g = Graph()
        g.add_spo(URI("ex:a"), URI("ex:p"), URI("ex:b"))
        g.add_spo(URI("ex:b"), URI("ex:q"), URI("ex:b"))
        g.add_spo(URI("ex:b"), URI("ex:q"), URI("ex:c"))
        result = SemiNaiveEngine(rules).run(g)
        assert result.stats.derived == 1
        assert Triple(URI("ex:a"), URI("ex:r"), URI("ex:b")) in g

    def test_join_kernel_variable_predicate(self):
        # The sameAs-propagation shape: second atom has a variable predicate.
        rules = parse_rules(
            PREFIX + "[p11a: (?s ex:same ?x) (?s ?p ?o) -> (?x ?p ?o)]"
        )
        g = Graph()
        g.add_spo(URI("ex:a"), URI("ex:same"), URI("ex:b"))
        g.add_spo(URI("ex:a"), URI("ex:knows"), URI("ex:c"))
        SemiNaiveEngine(rules).run(g)
        assert Triple(URI("ex:b"), URI("ex:knows"), URI("ex:c")) in g
        # ... including propagating the sameAs triple itself.
        assert Triple(URI("ex:b"), URI("ex:same"), URI("ex:b")) in g

    def test_literal_subject_derivation_dropped(self):
        rules = parse_rules(PREFIX + "[r: (?s ex:p ?o) -> (?o ex:t ?s)]")
        g = Graph([Triple(URI("ex:a"), URI("ex:p"), Literal("lit"))])
        result = SemiNaiveEngine(rules).run(g)
        assert result.stats.derived == 0

    def test_resume_with_delta(self):
        base = chain(4)
        extra = [Triple(URI("ex:n4"), URI("ex:p"), URI("ex:n5"))]
        full = chain(5)
        SemiNaiveEngine(TRANS).run(full)
        engine = SemiNaiveEngine(TRANS)
        engine.run(base)
        engine.run(base, delta=extra)
        assert base == full


# -- duplicate-derivation fix (satellite) ------------------------------------


class TestDeltaDedup:
    def test_compiled_fires_once_per_binding(self):
        # a-p-b, b-p-c: the single derivation (a,b,c) matches the delta at
        # both body positions in round 1; pre-fix engines fired it twice.
        g = chain(2)
        result = SemiNaiveEngine(TRANS).run(g)
        assert result.stats.firings == 1

    def test_generic_interpreter_dedupes_too(self):
        # A 3-atom (generic-plan) body over a 3-edge chain: the single
        # binding matches the delta at all three positions in round 1 and
        # is kept once.
        rules = parse_rules(
            PREFIX + "[m: (?a ex:p ?b) (?b ex:p ?c) (?c ex:p ?d) -> (?a ex:q ?d)]")
        result = SemiNaiveEngine(rules).run(chain(3))
        assert result.stats.firings == 1

    def test_firings_drop_on_delta_heavy_round(self):
        # Round 1 of a from-scratch run is maximally delta-heavy (Δ = G):
        # every 2-atom binding used to be derived once per delta position.
        # Firings must now equal distinct bindings: one per adjacent pair
        # plus the downstream rounds' single-position derivations.
        g = chain(8)
        result = SemiNaiveEngine(TRANS).run(g)
        assert result.stats.firings == 84
        # The closure of an 8-edge chain: every firing is a distinct
        # binding; duplicates would push this above the pair count.
        naive = NaiveEngine(TRANS).run(chain(8))
        assert result.stats.firings < naive.stats.firings


# -- predicate dispatch (satellite: dispatch-count unit test) ----------------


class TestDispatch:
    RULES = parse_rules(
        PREFIX
        + "[a: (?x ex:p ?y) -> (?x ex:q ?y)]"
        + "[b: (?x ex:r ?y) -> (?x ex:s ?y)]"
    )

    def test_rules_skipped_when_predicates_absent(self):
        g = chain(3)  # only ex:p triples
        result = SemiNaiveEngine(self.RULES).run(g)
        # Round 1 (Δ predicates = {p}): rule a dispatched, b skipped.
        # Round 2 (Δ predicates = {q}): nothing dispatched, both skipped.
        assert result.stats.iterations == 2
        assert result.stats.rules_dispatched == 1
        assert result.stats.rules_skipped == 3

    def test_dispatch_preserves_fixpoint(self):
        g1, g2 = chain(5), chain(5)
        SemiNaiveEngine(self.RULES).run(g1)
        NaiveEngine(self.RULES).run(g2)
        assert g1 == g2

    def test_wildcard_rule_always_dispatched(self):
        rules = parse_rules(
            PREFIX + "[w: (?s ex:same ?x) (?s ?p ?o) -> (?x ?p ?o)]"
        )
        d = TermDictionary()
        idx = IdDispatchIndex([build_plan(r) for r in rules], d)
        assert idx.candidates(_pred_ids(d)) == [0]
        assert idx.candidates(_pred_ids(d, "ex:whatever")) == [0]

    def test_dispatch_index_candidates(self):
        d = TermDictionary()
        idx = IdDispatchIndex([build_plan(r) for r in self.RULES], d)
        assert idx.candidates(_pred_ids(d, "ex:p")) == [0]
        assert idx.candidates(_pred_ids(d, "ex:r")) == [1]
        assert idx.candidates(_pred_ids(d, "ex:p", "ex:r")) == [0, 1]
        assert idx.candidates(_pred_ids(d, "ex:absent")) == []


def _pred_ids(dictionary, *uris):
    return np.asarray([dictionary.encode(URI(u)) for u in uris],
                      dtype=np.int64)


# -- differential property test (satellite) ----------------------------------

EX = "http://example.org/diff#"


def _rich_tbox() -> Graph:
    """A TBox exercising every kernel-relevant rule shape: scan rules
    (hierarchy, domain/range, inverse, symmetric), join rules (transitive,
    someValuesFrom), and the sameAs equality theory with its
    variable-predicate propagation split (via the functional property)."""
    g = Graph()
    g.add_spo(URI(EX + "Student"), RDFS.subClassOf, URI(EX + "Person"))
    g.add_spo(URI(EX + "Person"), RDFS.subClassOf, URI(EX + "Agent"))
    g.add_spo(URI(EX + "advisor"), RDFS.domain, URI(EX + "Student"))
    g.add_spo(URI(EX + "advisor"), RDFS.range, URI(EX + "Person"))
    g.add_spo(URI(EX + "knows"), RDF.type, OWL.SymmetricProperty)
    g.add_spo(URI(EX + "partOf"), RDF.type, OWL.TransitiveProperty)
    g.add_spo(URI(EX + "advisor"), OWL.inverseOf, URI(EX + "advises"))
    g.add_spo(URI(EX + "hasId"), RDF.type, OWL.InverseFunctionalProperty)
    g.add_spo(URI(EX + "Restriction1"), OWL.onProperty, URI(EX + "advisor"))
    g.add_spo(URI(EX + "Restriction1"), OWL.someValuesFrom, URI(EX + "Person"))
    g.add_spo(URI(EX + "Restriction1"), RDFS.subClassOf, URI(EX + "Advised"))
    return g


HORST_RULES = compile_ontology(_rich_tbox(), include_sameas_propagation=True).rules

_individuals = st.integers(min_value=0, max_value=6).map(
    lambda i: URI(f"{EX}ind{i}")
)
_classes = st.sampled_from(
    [URI(EX + "Student"), URI(EX + "Person"), URI(EX + "Agent")]
)
_ids = st.integers(min_value=0, max_value=2).map(lambda i: URI(f"{EX}id{i}"))

_instance_triples = st.one_of(
    st.tuples(
        _individuals,
        st.sampled_from(
            [
                URI(EX + "advisor"),
                URI(EX + "advises"),
                URI(EX + "knows"),
                URI(EX + "partOf"),
            ]
        ),
        _individuals,
    ),
    st.tuples(_individuals, st.just(RDF.type), _classes),
    st.tuples(_individuals, st.just(URI(EX + "hasId")), _ids),
)


@st.composite
def _instance_graphs(draw):
    triples = draw(st.lists(_instance_triples, min_size=0, max_size=18))
    g = Graph()
    for s, p, o in triples:
        g.add_spo(s, p, o)
    return g


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(_instance_graphs())
    def test_three_layers_agree_on_full_horst_set(self, data):
        # The naive oracle, and the semi-naive engine over both id stores
        # (dense, and the run store under a small budget).
        g_naive = data.copy()
        g_dense = data.copy()
        g_run = data.copy()
        naive = NaiveEngine(HORST_RULES).run(g_naive)
        dense = SemiNaiveEngine(HORST_RULES).run(g_dense)
        run = SemiNaiveEngine(
            HORST_RULES, memory_budget_bytes=1 << 16).run(g_run)
        assert g_naive == g_dense == g_run
        assert dense.stats.derived == naive.stats.derived
        assert dense.stats == run.stats

    @settings(max_examples=10, deadline=None)
    @given(_instance_graphs(), _instance_graphs())
    def test_compiled_delta_resume_agrees(self, base, extra):
        # Resume semantics: fixpoint(base) then delta-resume(extra) must
        # equal a from-scratch fixpoint of base + extra, on both layers.
        full = base.copy()
        full.update(iter(extra))
        SemiNaiveEngine(HORST_RULES).run(full)

        resumed = base.copy()
        engine = SemiNaiveEngine(HORST_RULES)
        engine.run(resumed)
        engine.run(resumed, delta=list(extra))
        assert resumed == full


# -- stats plumbing ----------------------------------------------------------


class TestStatsPlumbing:
    def test_merge_includes_dispatch_counters(self):
        from repro.datalog.engine import EngineStats

        a = EngineStats(rules_dispatched=2, rules_skipped=3)
        b = EngineStats(rules_dispatched=10, rules_skipped=20)
        a.merge(b)
        assert (a.rules_dispatched, a.rules_skipped) == (12, 23)

    def test_work_formula_unchanged(self):
        g = chain(5)
        result = SemiNaiveEngine(TRANS).run(g)
        assert result.stats.work == result.stats.join_probes + result.stats.firings


# -- pinned work counters ----------------------------------------------------

#: ``HorstReasoner`` forward stats ``(iterations, join_probes, firings,
#: derived, rules_dispatched, rules_skipped, |closure|)``, as the deleted
#: term-level compiled engine and the columnar engine both reported them.
FORWARD_PINS = {
    ("LUBM", False): (3, 2416, 2392, 628, 165, 75, 1436),
    ("LUBM", True): (3, 3852, 2392, 628, 168, 81, 1436),
    ("UOBM", False): (4, 5388, 5108, 1197, 185, 175, 2352),
    ("UOBM", True): (4, 7740, 5108, 1197, 189, 183, 2352),
    ("MDC", False): (6, 7082, 5568, 1283, 93, 105, 1530),
    ("MDC", True): (6, 8612, 5568, 1283, 99, 117, 1530),
}

_DATASETS = {"LUBM": LUBM, "UOBM": UOBM, "MDC": MDC}

#: ``(index_probes, solutions)`` of the 14 LUBM queries over the LUBM(2)
#: closure, identical for the term oracle and the bound-ordered id engine.
QUERY_PINS = {
    "Q1": (76, 4), "Q2": (806, 14), "Q3": (74, 2), "Q4": (42, 6),
    "Q5": (378, 54), "Q6": (288, 288), "Q7": (10959, 15),
    "Q8": (3024, 144), "Q9": (13418, 26), "Q10": (303, 15),
    "Q11": (9, 3), "Q12": (63, 3), "Q13": (36, 36), "Q14": (216, 216),
}


class TestCounterPins:
    @pytest.mark.parametrize("faithful", [False, True],
                             ids=["default", "faithful-sameas"])
    @pytest.mark.parametrize("name", ["LUBM", "UOBM", "MDC"])
    def test_forward_stats_pinned(self, name, faithful):
        # ``faithful``: the unsplit rdfp11, a variable-predicate 3-atom
        # rule on the distinct-bindings path.
        dataset = _DATASETS[name](1)
        kwargs = (dict(include_sameas_propagation=True, split_sameas=False)
                  if faithful else {})
        result = HorstReasoner(dataset.ontology, **kwargs).materialize(
            dataset.data)
        s = result.engine_stats
        assert (s.iterations, s.join_probes, s.firings, s.derived,
                s.rules_dispatched, s.rules_skipped,
                len(result.graph)) == FORWARD_PINS[name, faithful]

    def test_lubm_query_probes_pinned(self):
        dataset = LUBM(2)
        closed = HorstReasoner(dataset.ontology).materialize(
            dataset.data).graph
        index = IdIndex(closed, ordering="bound")
        for query in LUBM_QUERIES:
            bgp = query.parse().bgp
            _rows, term = bgp.execute_with_stats(closed)
            _rows, ids = index.execute_with_stats(bgp)
            assert (term.index_probes, term.solutions) == QUERY_PINS[
                query.name], query.name
            assert (ids.index_probes, ids.solutions) == QUERY_PINS[
                query.name], query.name


# -- oracle differential: random rules ---------------------------------------

_X, _Y, _Z, _W = (Variable(n) for n in "xyzw")
_VARS = st.sampled_from([_X, _Y, _Z, _W])
_RES = st.sampled_from([URI(f"ex:r{i}") for i in range(4)])
_PREDS = st.sampled_from([URI("ex:p"), URI("ex:q"), URI("ex:r0")])
_LIT = st.just(Literal("lit"))

_atoms = st.builds(
    Atom,
    st.one_of(_VARS, _RES),
    st.one_of(_VARS, _PREDS),
    st.one_of(_VARS, _RES, _LIT),
)


@st.composite
def _rules(draw):
    """1–3 random rules of 1–3 body atoms: repeated variables, variable
    predicates, and heads that may put a literal (or a resource bound
    from a literal position) in subject or predicate position."""
    out = []
    for i in range(draw(st.integers(1, 3))):
        body = draw(st.lists(_atoms, min_size=1, max_size=3))
        bound = sorted(set().union(*(a.variables() for a in body)),
                       key=lambda v: v.name)
        pick = st.sampled_from(bound) if bound else _RES
        head = Atom(draw(st.one_of(pick, _RES)),
                    draw(st.one_of(pick, _PREDS)),
                    draw(st.one_of(pick, _RES, _LIT)))
        try:
            out.append(Rule(f"r{i}", body, head))
        except ValueError:
            assume(False)
    return out


_triples = st.builds(Triple, _RES, _PREDS, st.one_of(_RES, _LIT))


class TestRuleDifferential:
    @settings(max_examples=60, deadline=None)
    @given(_rules(), st.lists(_triples, max_size=12))
    def test_semi_naive_matches_naive_from_scratch(self, rules, triples):
        g_naive, g_semi = Graph(triples), Graph(triples)
        naive = NaiveEngine(rules).run(g_naive)
        semi = SemiNaiveEngine(rules).run(g_semi)
        assert g_semi == g_naive
        assert set(semi.inferred) == set(naive.inferred)

    @settings(max_examples=40, deadline=None)
    @given(_rules(), st.lists(_triples, max_size=10),
           st.lists(_triples, max_size=6))
    def test_semi_naive_matches_naive_with_delta_resume(
            self, rules, base, extra):
        oracle = Graph(base + extra)
        NaiveEngine(rules).run(oracle)
        resumed = Graph(base)
        engine = SemiNaiveEngine(rules)
        engine.run(resumed)
        engine.run(resumed, delta=extra)
        assert resumed == oracle


# -- oracle differential: random BGPs ----------------------------------------

_patterns = st.builds(
    Atom,
    st.one_of(_VARS, _RES),
    st.one_of(_VARS, _PREDS, st.just(URI("ex:absent"))),
    st.one_of(_VARS, _RES, _LIT),
)


class TestBGPDifferential:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_patterns, min_size=1, max_size=3),
           st.lists(_triples, max_size=15))
    def test_bound_ordered_id_engine_matches_term_oracle(
            self, patterns, triples):
        g = Graph(triples)
        query = BGPQuery(patterns)
        term_rows, term = query.execute_with_stats(g)
        id_rows, ids = IdIndex(g, ordering="bound").execute_with_stats(query)
        assert ids == term
        assert (sorted(sorted(map(str, b.items())) for b in id_rows)
                == sorted(sorted(map(str, b.items())) for b in term_rows))
