"""Hybrid partitioning — the paper's stated future work (Section VII).

"In hybrid partitioning both the rule-set as well as data-set are
partitioned to obtain better results" (citing Shao, Bell & Hull, PDIS
1991).  The classic construction is a processor grid:

* data is split into ``k_data`` partitions (Algorithm 1, any policy);
* the rule base is split into ``k_rules`` subsets (Algorithm 2);
* node ``(i, j)`` holds data partition *i* and rule subset *j* — so the
  system has ``k_data x k_rules`` nodes, each holding a fraction of the
  data **and** a fraction of the rules.

Placement: each base tuple goes to its owner rows (subject and object
owners), replicated across that row's columns (every rule subset needs the
row's data).  Routing a fresh tuple composes the two single-approach
routers: destination rows come from the owner table, destination columns
from body-atom matching — so a tuple reaches exactly the nodes where it
can both meet its join partners and trigger a rule.

Compared to pure data partitioning this multiplies node count by
``k_rules`` without re-partitioning the data; compared to pure rule
partitioning it removes the every-node-holds-everything memory cost.  The
price is the row-wide replication of base tuples.

:class:`HybridParallelReasoner` mirrors :class:`ParallelReasoner`'s API and
reuses its worker, round loop and aggregation; only the router is its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalog.analysis import check_data_partitionable
from repro.owl.compiler import CompiledRuleSet, compile_ontology
from repro.owl.reasoner import split_schema
from repro.parallel.cluster import ClusterSpec, build_base_dictionary
from repro.parallel.comm import CommBackend, InMemoryComm
from repro.parallel.driver import ParallelRunResult, run_rounds
from repro.parallel.routing import DataPartitionRouter, RulePartitionRouter
from repro.parallel.stats import RunStats
from repro.partitioning.data_generic import default_vocabulary, partition_data
from repro.partitioning.policies import GraphPartitioningPolicy, PartitioningPolicy
from repro.partitioning.rulepart import graph_workload_estimator, partition_rules
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple
from repro.util.timing import Stopwatch


class HybridRouter:
    """Grid routing: rows by owner table, columns by body-atom matching.

    Node ids are ``row * k_rules + col``.
    """

    def __init__(
        self,
        data_router: DataPartitionRouter,
        rule_router: RulePartitionRouter,
        k_data: int,
        k_rules: int,
    ) -> None:
        self.data_router = data_router
        self.rule_router = rule_router
        self.k_data = k_data
        self.k_rules = k_rules
        self.k = k_data * k_rules

    def node_id(self, row: int, col: int) -> int:
        return row * self.k_rules + col

    def destinations(self, node_id: int, triple: Triple) -> list[int]:
        my_row, my_col = divmod(node_id, self.k_rules)
        # Rows where the tuple's join partners live (owner semantics;
        # data_router excludes nothing by node, so query from a neutral id).
        rows = set(self.data_router.destinations(-1, triple))
        rows.add(self.data_router.owner(triple.s))
        # Columns whose rule subsets can consume the tuple.  The rule
        # router's node exclusion is column-based; query with -1 and filter
        # ourselves.
        cols = [
            col
            for col in range(self.k_rules)
            if self.rule_router._matches_partition(col, triple)
        ]
        dests = [
            self.node_id(row, col)
            for row in rows
            for col in cols
            if not (row == my_row and col == my_col)
        ]
        return sorted(dests)


@dataclass
class HybridConfig:
    k_data: int
    k_rules: int

    @property
    def k(self) -> int:
        return self.k_data * self.k_rules


class HybridParallelReasoner:
    """OWL-Horst materializer over a k_data x k_rules processor grid.

    >>> from repro.rdf import Graph, URI
    >>> from repro.owl.vocabulary import OWL, RDF
    >>> tbox = Graph()
    >>> _ = tbox.add_spo(URI("ex:p"), RDF.type, OWL.TransitiveProperty)
    >>> _ = tbox.add_spo(URI("ex:p"), OWL.inverseOf, URI("ex:q"))
    >>> data = Graph()
    >>> for i in range(4):
    ...     _ = data.add_spo(URI(f"ex:n{i}"), URI("ex:p"), URI(f"ex:n{i+1}"))
    >>> hybrid = HybridParallelReasoner(tbox, k_data=2, k_rules=2)
    >>> result = hybrid.materialize(data)
    >>> len(result.graph) >= 4 + 6  # base + transitive closure
    True
    """

    def __init__(
        self,
        ontology: Graph,
        k_data: int,
        k_rules: int,
        policy: PartitioningPolicy | None = None,
        comm: CommBackend | None = None,
        max_rounds: int = 10_000,
        seed: int = 0,
    ) -> None:
        if k_data <= 0 or k_rules <= 0:
            raise ValueError("k_data and k_rules must be positive")
        self.config = HybridConfig(k_data=k_data, k_rules=k_rules)
        self.compiled: CompiledRuleSet = compile_ontology(ontology, split_sameas=True)
        check_data_partitionable(self.compiled.rules)
        if k_rules > max(1, len(self.compiled.rules)):
            raise ValueError(
                f"cannot split {len(self.compiled.rules)} rules into "
                f"{k_rules} non-empty subsets"
            )
        self.policy = policy or GraphPartitioningPolicy(seed=seed)
        self.comm: CommBackend = comm if comm is not None else InMemoryComm(
            self.config.k
        )
        self.max_rounds = max_rounds
        self.seed = seed

    def materialize(self, graph: Graph) -> ParallelRunResult:
        schema, instance = split_schema(graph)
        cfg = self.config
        stats = RunStats(k=cfg.k)
        base = build_base_dictionary(
            [instance], extra=[schema, self.compiled.schema],
            rules=self.compiled.rules)

        watch = Stopwatch()
        vocabulary = default_vocabulary(instance)
        vocabulary |= self.compiled.schema.resources()
        data_result = partition_data(
            instance, self.policy, cfg.k_data,
            strip_schema=False, vocabulary=vocabulary,
        )
        rule_result = partition_rules(
            self.compiled.rules,
            cfg.k_rules,
            workload_estimator=graph_workload_estimator(instance),
            seed=self.seed,
        )
        data_router = DataPartitionRouter(
            data_result.owner, vocabulary=frozenset(vocabulary)
        )
        rule_router = RulePartitionRouter(rule_result.rule_sets)
        router = HybridRouter(data_router, rule_router, cfg.k_data, cfg.k_rules)

        # Node (row, col) = row * k_rules + col: data partition `row`,
        # rule subset `col`.
        cells = [(row, col) for row in range(cfg.k_data)
                 for col in range(cfg.k_rules)]
        spec = ClusterSpec.build(
            [data_result.partitions[row] for row, _col in cells],
            [rule_result.rule_sets[col] for _row, col in cells],
            router, (schema, self.compiled.schema), base=base)
        stats.partition_time = watch.elapsed()

        run = run_rounds(spec, self.comm, stats, self.max_rounds)
        return ParallelRunResult(
            None,
            stats,
            "data",  # closest ancestor for downstream consumers
            data_partitioning=data_result,
            rule_partitioning=rule_result,
            engine_stats=run.engine_stats,
            workers=run.workers,
            dictionary=run.dictionary,
            store=run.store,
        )
