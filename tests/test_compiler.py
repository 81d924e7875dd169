"""Unit tests for ontology -> instance-rule compilation."""

import pytest

from repro.datalog.analysis import JoinClass, classify_rule
from repro.owl import compile_ontology, saturate_schema
from repro.owl.compiler import schema_can_produce_sameas
from repro.owl.vocabulary import OWL, RDF, RDFS
from repro.rdf import Graph, Triple, URI


def u(name):
    return URI(f"ex:{name}")


class TestSaturation:
    def test_subclass_transitivity(self):
        g = Graph()
        g.add_spo(u("A"), RDFS.subClassOf, u("B"))
        g.add_spo(u("B"), RDFS.subClassOf, u("C"))
        saturated = saturate_schema(g)
        assert Triple(u("A"), RDFS.subClassOf, u("C")) in saturated

    def test_equivalent_class_expands_to_mutual_subclass(self):
        g = Graph()
        g.add_spo(u("A"), OWL.equivalentClass, u("B"))
        saturated = saturate_schema(g)
        assert Triple(u("A"), RDFS.subClassOf, u("B")) in saturated
        assert Triple(u("B"), RDFS.subClassOf, u("A")) in saturated

    def test_domain_inherited_through_subproperty(self):
        g = Graph()
        g.add_spo(u("p"), RDFS.subPropertyOf, u("q"))
        g.add_spo(u("q"), RDFS.domain, u("C"))
        saturated = saturate_schema(g)
        assert Triple(u("p"), RDFS.domain, u("C")) in saturated

    def test_input_not_mutated(self):
        g = Graph()
        g.add_spo(u("A"), RDFS.subClassOf, u("B"))
        g.add_spo(u("B"), RDFS.subClassOf, u("C"))
        saturate_schema(g)
        assert len(g) == 2


class TestCompilation:
    def test_subclass_compiles_zero_join_type_rule(self):
        g = Graph([Triple(u("A"), RDFS.subClassOf, u("B"))])
        crs = compile_ontology(g)
        rdfs9 = [r for r in crs.rules if r.name.startswith("rdfs9")]
        assert len(rdfs9) == 1
        assert classify_rule(rdfs9[0]) is JoinClass.ZERO_JOIN

    def test_transitive_property_compiles_single_join(self):
        g = Graph([Triple(u("p"), RDF.type, OWL.TransitiveProperty)])
        crs = compile_ontology(g)
        rdfp4 = [r for r in crs.rules if r.name.startswith("rdfp4")]
        assert len(rdfp4) == 1
        assert classify_rule(rdfp4[0]) is JoinClass.SINGLE_JOIN

    def test_somevaluesfrom_binds_two_schema_atoms(self):
        g = Graph()
        g.add_spo(u("R"), OWL.someValuesFrom, u("D"))
        g.add_spo(u("R"), OWL.onProperty, u("p"))
        crs = compile_ontology(g)
        rdfp15 = [r for r in crs.rules if r.name.startswith("rdfp15")]
        assert len(rdfp15) == 1
        assert classify_rule(rdfp15[0]) is JoinClass.SINGLE_JOIN

    def test_transitive_closure_of_hierarchy_compiled_directly(self):
        g = Graph()
        g.add_spo(u("A"), RDFS.subClassOf, u("B"))
        g.add_spo(u("B"), RDFS.subClassOf, u("C"))
        crs = compile_ontology(g)
        # A->B, B->C, and the saturated A->C: three rdfs9 rules.
        assert crs.per_template["rdfs9"] == 3

    def test_degenerate_reflexive_rule_skipped(self):
        g = Graph([Triple(u("A"), RDFS.subClassOf, u("A"))])
        crs = compile_ontology(g)
        assert crs.per_template["rdfs9"] == 0

    def test_compiled_set_is_data_partitionable(self):
        g = Graph()
        g.add_spo(u("p"), RDF.type, OWL.TransitiveProperty)
        g.add_spo(u("p"), RDFS.domain, u("C"))
        g.add_spo(u("q"), OWL.inverseOf, u("p"))
        crs = compile_ontology(g)
        crs.check_single_join()  # must not raise

    def test_no_duplicate_rules(self):
        g = Graph()
        g.add_spo(u("A"), RDFS.subClassOf, u("B"))
        crs = compile_ontology(g)
        seen = {(r.body, r.head) for r in crs.rules}
        assert len(seen) == len(crs.rules)

    def test_empty_schema_compiles_no_schema_bound_rules(self):
        crs = compile_ontology(Graph())
        # No TBox, no sameAs producers: nothing to run.
        assert len(crs.rules) == 0


class TestSameAsGating:
    def test_auto_excludes_without_producers(self):
        g = Graph([Triple(u("A"), RDFS.subClassOf, u("B"))])
        crs = compile_ontology(g)
        names = {r.name.split(".")[0] for r in crs.rules}
        assert "rdfp6" not in names and "rdfp11a" not in names

    def test_auto_includes_with_functional_property(self):
        g = Graph([Triple(u("p"), RDF.type, OWL.FunctionalProperty)])
        assert schema_can_produce_sameas(g)
        crs = compile_ontology(g)
        names = {r.name.split(".")[0] for r in crs.rules}
        assert {"rdfp6", "rdfp7", "rdfp11a", "rdfp11b"} <= names

    def test_forced_inclusion(self):
        crs = compile_ontology(Graph(), include_sameas_propagation=True)
        names = {r.name.split(".")[0] for r in crs.rules}
        assert "rdfp11a" in names

    def test_faithful_rdfp11_variant(self):
        crs = compile_ontology(
            Graph(), include_sameas_propagation=True, split_sameas=False
        )
        names = {r.name.split(".")[0] for r in crs.rules}
        assert "rdfp11" in names
        with pytest.raises(ValueError):
            crs.check_single_join()


# --- rule order is a function of the ontology, not of PYTHONHASHSEED ----------

_SEED_PROBE = """
import json
from repro.experiments.common import SCALES, build_dataset
from repro.datalog.analysis import predicate_counts
from repro.owl.compiler import compile_ontology
from repro.partitioning.rulepart import graph_workload_estimator, partition_rules

out = {}
for name in ("lubm", "mdc"):
    ds = build_dataset(name, SCALES["tiny"])
    rules = compile_ontology(ds.ontology, split_sameas=False).rules
    parts = partition_rules(
        rules, 3, predicate_stats=predicate_counts(ds.data),
        workload_estimator=graph_workload_estimator(ds.data), seed=0)
    out[name] = [[str(r) for r in rules],
                 [[r.name for r in rs] for rs in parts.rule_sets]]
print(json.dumps(out))
"""


def test_rule_order_and_rule_partitioning_ignore_the_hash_seed():
    """`Graph.match` walks set-valued index leaves; the compiler must not
    let that order reach rule order, the `.N` name suffixes, or (through
    the vertex order) Algorithm 2's assignment — Figs 5/6 depend on it."""
    import json
    import subprocess
    import sys
    from pathlib import Path

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
    assert len(runs[0]["lubm"][0]) > 50  # the probe compiled real rules
