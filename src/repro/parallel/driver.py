"""The synchronous-rounds master — Algorithm 3.

:class:`ParallelReasoner` is the public entry point of the whole library:
give it an ontology, pick a partitioning approach and policy, and call
``materialize``.  It

1. compiles the ontology into instance rules,
2. partitions the data (Algorithm 1) or the rule base (Algorithm 2),
3. builds one :class:`PartitionWorker` per node with the matching router,
4. iterates synchronous rounds until no node produced cross-partition
   tuples and nothing is in transit (the paper's termination condition),
5. aggregates the union of the nodes' outputs.

Workers execute *in-process* (sequentially).  That is deliberate: it makes
every per-node measurement exact and deterministic, and the simulated
cluster (:mod:`repro.parallel.simulated`) reconstructs the parallel
timeline from those measurements.  For a real-multiple-process run, see
:mod:`repro.parallel.mp_backend`.

"Note that the master node itself has no role to play once the initial
partition is done" (Section IV) — accordingly, everything after
partitioning is per-node work plus the final aggregation.
"""

from __future__ import annotations

from typing import Literal, Sequence

from repro.datalog.analysis import check_data_partitionable, predicate_counts
from repro.datalog.engine import EngineStats
from repro.owl.compiler import CompiledRuleSet, compile_ontology
from repro.owl.reasoner import split_schema
from repro.parallel.aggregate import RunOutput, gather_rows
from repro.parallel.async_backend import (
    AsyncRunResult,
    build_base_dictionary,
    run_apply_inprocess,
    run_async_inprocess,
    run_multiprocess_async,
)
from repro.parallel.comm import CommBackend, InMemoryComm
from repro.parallel.routing import DataPartitionRouter, Router, RulePartitionRouter
from repro.parallel.stats import NodeRoundStats, RunStats
from repro.parallel.supervisor import SupervisionPolicy
from repro.parallel.worker import PartitionWorker, Strategy
from repro.partitioning.base import DataPartitioningResult, RulePartitioningResult
from repro.partitioning.data_generic import default_vocabulary, partition_data
from repro.partitioning.policies import GraphPartitioningPolicy, PartitioningPolicy
from repro.partitioning.rulepart import graph_workload_estimator, partition_rules
from repro.rdf.dictionary import PartitionDictionary, TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.idstore import IdGraph
from repro.util.timing import Stopwatch

Approach = Literal["data", "rule"]


class ParallelRunResult(RunOutput):
    """Everything a run produces: the materialized KB (id rows, with
    ``graph`` / ``node_outputs`` as lazily decoded views — see
    :class:`~repro.parallel.aggregate.RunOutput`), the paper's metrics
    inputs, and the raw per-round measurements."""

    def __init__(
        self,
        graph: Graph | None,
        stats: RunStats,
        approach: Approach,
        data_partitioning: DataPartitioningResult | None = None,
        rule_partitioning: RulePartitioningResult | None = None,
        engine_stats: EngineStats | None = None,
        workers: Sequence[PartitionWorker] = (),
        dictionary: TermDictionary | None = None,
        store: IdGraph | None = None,
    ) -> None:
        super().__init__(graph, dictionary, store, workers)
        self.stats = stats
        self.approach: Approach = approach
        self.data_partitioning = data_partitioning
        self.rule_partitioning = rule_partitioning
        #: Cluster-wide engine counters: the sum of every worker's per-round
        #: fixpoint stats, so a parallel load reports the same six-field
        #: accounting a serial :class:`~repro.datalog.columnar.ColumnarEngine`
        #: run would (the backward bootstrap contributes only to the
        #: per-round ``work`` scalar in :attr:`stats`, not here).
        self.engine_stats = (
            engine_stats if engine_stats is not None else EngineStats())

    @property
    def k(self) -> int:
        return self.stats.k


def run_rounds(
    workers: Sequence[PartitionWorker], comm: CommBackend, max_rounds: int
) -> list[list[NodeRoundStats]]:
    """The BSP loop of Algorithm 3: bootstrap every worker, then exchange
    and step in lock-step until a round sends nothing (the paper's
    termination condition).  Returns ``rounds[r][i]``, node i's
    measurements in round r."""
    rounds: list[list[NodeRoundStats]] = []
    #: Bytes addressed to each node by the previous round — what it
    #: consumes at the start of this one (exact: same process).
    inbound: dict[int, int] = {}
    results = [w.bootstrap() for w in workers]
    for _ in range(max_rounds):
        rounds.append([
            NodeRoundStats(
                node_id=r.node_id,
                round_no=r.round_no,
                reasoning_time=r.reasoning_time,
                work=r.work,
                derived=r.derived,
                received_tuples=r.received,
                sent_tuples=r.sent_tuples,
                sent_bytes=sum(b.payload_bytes() for b in r.outgoing),
                received_bytes=inbound.get(r.node_id, 0),
                sent_messages=len(r.outgoing),
            )
            for r in results
        ])
        inbound = {}
        for r in results:
            for batch in r.outgoing:
                comm.send(batch)
                inbound[batch.dest] = (
                    inbound.get(batch.dest, 0) + batch.payload_bytes())
        if comm.pending() == 0:
            return rounds
        results = [w.step(comm.recv_all(w.node_id)) for w in workers]
    raise RuntimeError(
        f"no termination after {max_rounds} rounds — "
        "routing is likely re-sending tuples in a cycle"
    )


class ParallelReasoner:
    """Parallel OWL-Horst materializer (the paper's full system).

    Every partition is one :class:`~repro.parallel.worker.PartitionWorker`
    — columnar engine over an id store, id-encoded wire — so ``engine`` and
    ``encode_wire`` select nothing: they are accepted only at
    ``None``/``"columnar"`` and ``True``.

    >>> from repro.rdf import Graph, URI, Triple
    >>> from repro.owl.vocabulary import RDF, RDFS
    >>> tbox = Graph([Triple(URI("ex:Student"), RDFS.subClassOf, URI("ex:Person"))])
    >>> data = Graph([Triple(URI("ex:alice"), RDF.type, URI("ex:Student"))])
    >>> pr = ParallelReasoner(tbox, k=2)
    >>> result = pr.materialize(data)
    >>> Triple(URI("ex:alice"), RDF.type, URI("ex:Person")) in result.graph
    True
    """

    def __init__(
        self,
        ontology: Graph,
        k: int,
        approach: Approach = "data",
        policy: PartitioningPolicy | None = None,
        strategy: Strategy = "forward",
        comm: CommBackend | None = None,
        weight_rule_edges: bool = True,
        max_rounds: int = 10_000,
        seed: int = 0,
        engine: str | None = None,
        store: str | None = None,
        memory_budget_bytes: int | None = None,
        encode_wire: bool = True,
        degrade: str = "abort",
        max_retries: int = 2,
        supervision: "SupervisionPolicy | None" = None,
        sanitize: bool | None = None,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if approach not in ("data", "rule"):
            raise ValueError(f"unknown approach {approach!r}")
        if engine not in (None, "columnar") or encode_wire is not True:
            raise ValueError(
                f"partition workers run the columnar engine over the id "
                f"wire only (PR 21 removed the term-mode worker), got "
                f"engine={engine!r}, encode_wire={encode_wire!r}; the "
                "term-level engines live in SemiNaiveEngine / HorstReasoner")
        self.k = k
        self.approach: Approach = approach
        # Data partitioning demands single-join rules; the compiler's sameAs
        # split provides them.  Rule partitioning has no such constraint, so
        # it runs the faithful rdfp11.
        self.compiled: CompiledRuleSet = compile_ontology(
            ontology, split_sameas=(approach == "data")
        )
        if approach == "data":
            check_data_partitionable(self.compiled.rules)
        self.policy = policy or GraphPartitioningPolicy(seed=seed)
        self.strategy: Strategy = strategy
        self.comm: CommBackend = comm if comm is not None else InMemoryComm(k)
        self.weight_rule_edges = weight_rule_edges
        self.max_rounds = max_rounds
        self.seed = seed
        #: Id store per worker: "dense" (IdGraph) or "run" (the
        #: memory-budgeted compressed RunStore); ``memory_budget_bytes``
        #: is the *per-worker* resident cap the run store honors.
        self.store = store
        self.memory_budget_bytes = memory_budget_bytes
        #: Opt every worker's store into the runtime invariant sanitizer
        #: (:mod:`repro.analysis.sanitize`); ``None`` defers to the
        #: ``REPRO_SANITIZE`` environment variable.
        self.sanitize = sanitize
        if degrade not in ("abort", "recover"):
            raise ValueError(f'degrade must be "abort" or "recover", got {degrade!r}')
        #: Failure handling for :meth:`materialize_async` (see
        #: :mod:`repro.parallel.supervisor`): ``"abort"`` raises the typed
        #: :class:`~repro.parallel.supervisor.WorkerFailure`; ``"recover"``
        #: re-runs a lost node's partition on a survivor.
        self.degrade = degrade
        self.max_retries = max_retries
        #: Full :class:`~repro.parallel.supervisor.SupervisionPolicy`
        #: override; when set, ``degrade``/``max_retries`` are ignored.
        self.supervision = supervision

    # -- the run ---------------------------------------------------------------

    def _partition(
        self, instance: Graph
    ) -> tuple[DataPartitioningResult | None, RulePartitioningResult | None,
               frozenset]:
        """Algorithm 1 or Algorithm 2 over the instance data:
        ``(data result, rule result, vocabulary)`` — exactly one result is
        set, and the vocabulary is empty for rule partitioning."""
        if self.approach == "data":
            # Vocabulary = class URIs in the data plus every TBox resource:
            # inference can type instances with classes (e.g. restriction
            # classes) that never appear in the base data, and those must
            # not become routing targets either.
            vocabulary = default_vocabulary(instance)
            vocabulary |= self.compiled.schema.resources()
            data_result = partition_data(instance, self.policy, self.k,
                                         strip_schema=False,
                                         vocabulary=vocabulary)
            return data_result, None, frozenset(vocabulary)
        rule_result = partition_rules(
            self.compiled.rules, self.k,
            predicate_stats=(
                predicate_counts(instance) if self.weight_rule_edges else None),
            workload_estimator=(
                graph_workload_estimator(instance)
                if self.weight_rule_edges
                else None
            ),
            seed=self.seed,
        )
        return None, rule_result, frozenset()

    def materialize(
        self, graph: Graph, preflight: str | None = None
    ) -> ParallelRunResult:
        """Materialize a KB (mixed schema+instance or instance-only).
        The input graph is not mutated.

        ``preflight="strict"`` runs the static-analysis gate
        (:func:`repro.analysis.run_preflight`) before touching the data:
        rule partitionability (re-checked against the *current* rule set,
        not the one the constructor saw), protocol conformance of the
        installed backend, and the concurrency lint — raising a typed
        :class:`~repro.analysis.PreflightError` on any violation.
        ``"warn"`` reports the same findings as a warning; the default
        ``None`` (or ``"off"``) skips the gate.
        """
        self._preflight(preflight)
        schema, instance = split_schema(graph)
        stats = RunStats(k=self.k)

        # Seed the shared base with the compiled rules (their ground terms
        # are the bulk of what workers would otherwise mint and ship as
        # delta entries) and with the schema graphs, so the aggregation
        # below mints nothing while the workers are resident on it.
        base = build_base_dictionary(
            [instance], extra=[schema, self.compiled.schema],
            rules=self.compiled.rules)

        watch = Stopwatch()
        data_result, rule_result, vocabulary = self._partition(instance)
        if data_result is not None:
            router: Router = DataPartitionRouter(
                data_result.owner, vocabulary=vocabulary)
            bases: Sequence[Graph] = data_result.partitions
            rule_sets: Sequence = [self.compiled.rules] * self.k
        else:
            assert rule_result is not None
            router = RulePartitionRouter(rule_result.rule_sets)
            bases = [instance] * self.k  # every node gets the full data set
            rule_sets = rule_result.rule_sets
        workers = [
            PartitionWorker(
                node_id=i,
                base=bases[i],
                rules=rule_sets[i],
                router=router,
                dictionary=PartitionDictionary(base, i, self.k),
                strategy=self.strategy,
                store=self.store,
                memory_budget_bytes=self.memory_budget_bytes,
                sanitize=self.sanitize,
            )
            for i in range(self.k)
        ]
        stats.partition_time = watch.elapsed()

        stats.rounds = run_rounds(workers, self.comm, self.max_rounds)

        agg_watch = Stopwatch()
        dictionary, store = gather_rows(workers, schema, self.compiled.schema)
        engine_stats = EngineStats()
        for w in workers:
            engine_stats.merge(w.engine_stats)
        stats.aggregation_time = agg_watch.elapsed()

        return ParallelRunResult(
            None,
            stats,
            self.approach,
            data_partitioning=data_result,
            rule_partitioning=rule_result,
            engine_stats=engine_stats,
            workers=workers,
            dictionary=dictionary,
            store=store,
        )

    # -- the asynchronous run --------------------------------------------------

    def _partition_async(self, instance: Graph):
        """Partition for the round-free backends, which rebuild routers on
        the far side of a process boundary from plain picklable inputs:
        ``(partitions, rules_per_node, router_kind, owner_table, rule_sets)``.
        """
        data_result, rule_result, _vocabulary = self._partition(instance)
        if data_result is not None:
            return (
                data_result.partitions,
                [list(self.compiled.rules) for _ in range(self.k)],
                "data",
                dict(data_result.owner.table),
                None,
            )
        assert rule_result is not None
        rule_sets = [list(rs) for rs in rule_result.rule_sets]
        return (
            [instance] * self.k,  # every node sees the full data set
            rule_sets,
            "rule",
            None,
            rule_sets,
        )

    def materialize_async(
        self,
        graph: Graph,
        multiprocess: bool = False,
        start_method: str | None = None,
        delivery: str = "fifo",
        faults=None,
        idle_timeout: float = 120.0,
        preflight: str | None = None,
    ) -> AsyncRunResult:
        """Materialize via the supervised round-free runtime instead of
        BSP rounds; returns an
        :class:`~repro.parallel.async_backend.AsyncRunResult` whose graph
        includes the schema closure (same KB as :meth:`materialize`).

        ``multiprocess=True`` runs one OS process per partition
        (:func:`~repro.parallel.async_backend.run_multiprocess_async`);
        the default runs in-process with controllable ``delivery`` order
        and optional deterministic ``faults``
        (:class:`~repro.parallel.faults.FaultPlan`).  Either way, the
        reasoner's ``degrade``/``max_retries``/``supervision`` knobs
        decide whether a worker failure aborts the run (typed
        :class:`~repro.parallel.supervisor.WorkerFailure`) or triggers
        ledger-replay recovery on a survivor.
        """
        self._preflight(preflight)
        schema, instance = split_schema(graph)
        schema_graphs = (schema, self.compiled.schema)
        partitions, rules_per_node, router_kind, owner_table, rule_sets = (
            self._partition_async(instance)
        )
        if multiprocess:
            if faults is not None:
                raise ValueError(
                    "FaultPlan drives the in-process executor only; inject "
                    "multiprocess crashes via the REPRO_FAULT_KILL env var"
                )
            return run_multiprocess_async(
                partitions, rules_per_node, router_kind,
                owner_table=owner_table, rule_sets=rule_sets,
                schema_graphs=schema_graphs,
                start_method=start_method, idle_timeout=idle_timeout,
                degrade=self.degrade, max_retries=self.max_retries,
                supervision=self.supervision, store=self.store,
                memory_budget_bytes=self.memory_budget_bytes,
                sanitize=self.sanitize,
            )
        policy = self.supervision
        return run_async_inprocess(
            partitions, rules_per_node, router_kind,
            owner_table=owner_table, rule_sets=rule_sets,
            schema_graphs=schema_graphs,
            delivery=delivery, seed=self.seed, faults=faults,
            degrade=policy.degrade if policy else self.degrade,
            max_retries=policy.max_retries if policy else self.max_retries,
            store=self.store,
            memory_budget_bytes=self.memory_budget_bytes,
            sanitize=self.sanitize,
        )

    def apply_async(
        self,
        graph: Graph,
        adds=(),
        removes=(),
        delivery: str = "fifo",
    ) -> AsyncRunResult:
        """Materialize ``graph``, then maintain the closure under
        ``(adds, removes)`` with cluster-wide delete-and-rederive
        (:func:`~repro.parallel.async_backend.run_apply_inprocess`):
        the master broadcasts the retractions as id-encoded
        :class:`~repro.parallel.messages.RemovalBatch` rows, nodes
        overdelete and rebroadcast cascades to quiescence, then delete,
        rederive and re-close.  Retraction targets *instance* data —
        schema triples are compiled into the rules and replicated, not
        maintained.

        Returns an :class:`~repro.parallel.async_backend.AsyncRunResult`
        whose graph equals re-closing ``(base ∖ removes) ∪ adds``.
        """
        schema, instance = split_schema(graph)
        partitions, rules_per_node, router_kind, owner_table, rule_sets = (
            self._partition_async(instance)
        )
        return run_apply_inprocess(
            partitions, rules_per_node, router_kind,
            adds=list(adds), removes=list(removes),
            owner_table=owner_table, rule_sets=rule_sets,
            schema_graphs=(schema, self.compiled.schema),
            delivery=delivery, seed=self.seed,
            store=self.store,
            memory_budget_bytes=self.memory_budget_bytes,
            sanitize=self.sanitize,
        )

    # -- helpers -----------------------------------------------------------------

    def _preflight(self, mode: str | None) -> None:
        """Run the static-analysis gate when requested (see
        :meth:`materialize`).  Checks the *current* ``self.compiled.rules``
        — a rule set swapped after construction is exactly the drift the
        run-time gate exists to catch."""
        if mode is None or mode == "off":
            return
        from repro.analysis import run_preflight

        run_preflight(
            rules=self.compiled.rules, mode=mode, approach=self.approach
        )
