"""The synchronous-rounds master — Algorithm 3.

:class:`ParallelReasoner` is the public entry point of the whole library:
give it an ontology, pick a partitioning approach and policy, and call
``materialize``.  It

1. compiles the ontology into instance rules,
2. partitions the data (Algorithm 1) or the rule base (Algorithm 2) and
   writes the decision down as one :class:`~repro.parallel.cluster.
   ClusterSpec` — partitions, rule subsets, router — which every executor
   (these rounds, the round-free runtimes, the multiprocess oracle) runs,
3. builds one :class:`PartitionWorker` per node from it,
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
    run_apply_inprocess,
    run_async_inprocess,
    run_multiprocess_async,
)
from repro.parallel.cluster import ClusterSpec, build_base_dictionary
from repro.parallel.comm import CommBackend, InMemoryComm
from repro.parallel.messages import OutputMsg
from repro.parallel.routing import DataPartitionRouter, Router, RulePartitionRouter
from repro.parallel.stats import NodeRoundStats, RunStats
from repro.parallel.supervisor import SupervisionPolicy
from repro.parallel.worker import PartitionWorker, Strategy
from repro.partitioning.base import DataPartitioningResult, RulePartitioningResult
from repro.partitioning.data_generic import default_vocabulary, partition_data
from repro.partitioning.policies import GraphPartitioningPolicy, PartitioningPolicy
from repro.partitioning.rulepart import graph_workload_estimator, partition_rules
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.idstore import IdGraph
from repro.rdf.triple import Triple
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
        super().__init__(graph, dictionary, store, workers, engine_stats)
        self.stats = stats
        self.approach: Approach = approach
        self.data_partitioning = data_partitioning
        self.rule_partitioning = rule_partitioning

    @property
    def k(self) -> int:
        return self.stats.k


def run_rounds(
    spec: ClusterSpec, comm: CommBackend, stats: RunStats,
    max_rounds: int = 10_000,
) -> RunOutput:
    """The BSP loop of Algorithm 3: build the spec's nodes, bootstrap
    every worker, then exchange and step in lock-step until a round sends
    nothing (the paper's termination condition), and gather.

    ``stats`` is filled in: building the nodes — scattering the
    partitions into their stores — is charged to ``partition_time``,
    ``rounds[r][i]`` holds node i's measurements in round r, and the
    gather is ``aggregation_time``."""
    watch = Stopwatch()
    spec = spec.for_run()
    workers = [spec.worker(i) for i in range(spec.k)]
    stats.partition_time += watch.elapsed()
    rounds = stats.rounds
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
            break
        results = [w.step(comm.recv_all(w.node_id)) for w in workers]
    else:
        raise RuntimeError(
            f"no termination after {max_rounds} rounds — "
            "routing is likely re-sending tuples in a cycle"
        )
    watch = Stopwatch()
    dictionary, store, engine_stats = gather_rows(
        spec, map(OutputMsg.of, workers))
    stats.aggregation_time = watch.elapsed()
    return RunOutput(None, dictionary, store, workers, engine_stats)


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
        supervision: SupervisionPolicy | None = None,
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
                f"engine={engine!r}, encode_wire={encode_wire!r}; for a "
                "term graph in and out use SemiNaiveEngine / HorstReasoner")
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
        #: Failure handling for :meth:`materialize_async` (see
        #: :mod:`repro.parallel.supervisor`): the default aborts with the
        #: typed :class:`~repro.parallel.supervisor.WorkerFailure`;
        #: ``degrade="recover"`` re-runs a lost node's partition on a
        #: survivor.
        self.supervision = supervision

    # -- the run ---------------------------------------------------------------

    def _plan(
        self, instance: Graph, schema: Graph, stats: RunStats | None = None,
        adds: Sequence[Triple] = (), removes: Sequence[Triple] = (),
    ) -> tuple[DataPartitioningResult | None, RulePartitioningResult | None,
               ClusterSpec]:
        """Algorithm 1 or Algorithm 2 over the instance data, written down
        as the run's :class:`~repro.parallel.cluster.ClusterSpec`:
        ``(data result, rule result, spec)`` — exactly one result is set.
        The partitioning itself is charged to ``stats.partition_time``.

        The shared base is seeded with the compiled rules (their ground
        terms are the bulk of what workers would otherwise mint and ship
        as delta entries), the schema graphs — so the gather mints nothing
        while the workers are resident on it — and any maintenance
        ``adds`` / ``removes`` the master itself will put on the wire."""
        extra = [schema, self.compiled.schema]
        if adds or removes:
            extra += [Graph(adds), Graph(removes)]
        base = build_base_dictionary(
            [instance], extra=extra, rules=self.compiled.rules)
        watch = Stopwatch()
        data_result = rule_result = None
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
            router: Router = DataPartitionRouter(
                data_result.owner, vocabulary=frozenset(vocabulary))
            partitions: Sequence[Graph] = data_result.partitions
            rule_sets: Sequence = [self.compiled.rules] * self.k
        else:
            rule_result = partition_rules(
                self.compiled.rules, self.k,
                predicate_stats=(
                    predicate_counts(instance)
                    if self.weight_rule_edges else None),
                workload_estimator=(
                    graph_workload_estimator(instance)
                    if self.weight_rule_edges
                    else None
                ),
                seed=self.seed,
            )
            router = RulePartitionRouter(rule_result.rule_sets)
            partitions = [instance] * self.k  # every node gets the full data
            rule_sets = rule_result.rule_sets
        spec = ClusterSpec.build(
            partitions, rule_sets, router, (schema, self.compiled.schema),
            base=base, strategy=self.strategy, store=self.store,
            memory_budget_bytes=self.memory_budget_bytes,
            sanitize=self.sanitize, supervision=self.supervision)
        if stats is not None:
            stats.partition_time = watch.elapsed()
        return data_result, rule_result, spec

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
        data_result, rule_result, spec = self._plan(instance, schema, stats)
        run = run_rounds(spec, self.comm, stats, self.max_rounds)
        return ParallelRunResult(
            None,
            stats,
            self.approach,
            data_partitioning=data_result,
            rule_partitioning=rule_result,
            engine_stats=run.engine_stats,
            workers=run.workers,
            dictionary=run.dictionary,
            store=run.store,
        )

    # -- the asynchronous run --------------------------------------------------

    def materialize_async(
        self,
        graph: Graph,
        multiprocess: bool = False,
        start_method: str | None = None,
        delivery: str = "fifo",
        faults=None,
        preflight: str | None = None,
    ) -> AsyncRunResult:
        """Materialize via the supervised round-free runtime instead of
        BSP rounds, on the same :class:`~repro.parallel.cluster.
        ClusterSpec` :meth:`materialize` runs; returns an
        :class:`~repro.parallel.async_backend.AsyncRunResult` whose graph
        includes the schema closure (same KB as :meth:`materialize`).

        ``multiprocess=True`` runs one OS process per partition
        (:func:`~repro.parallel.async_backend.run_multiprocess_async`);
        the default runs in-process with controllable ``delivery`` order
        and optional deterministic ``faults``
        (:class:`~repro.parallel.faults.FaultPlan`).  Either way, the
        reasoner's ``supervision`` policy decides whether a worker
        failure aborts the run (typed
        :class:`~repro.parallel.supervisor.WorkerFailure`) or triggers
        ledger-replay recovery on a survivor.
        """
        self._preflight(preflight)
        schema, instance = split_schema(graph)
        _data, _rules, spec = self._plan(instance, schema)
        if multiprocess:
            if faults is not None:
                raise ValueError(
                    "FaultPlan drives the in-process executor only; inject "
                    "multiprocess crashes via the REPRO_FAULT_KILL env var"
                )
            return run_multiprocess_async(spec, start_method=start_method)
        return run_async_inprocess(
            spec, delivery=delivery, seed=self.seed, faults=faults)

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
        adds, removes = list(adds), list(removes)
        _data, _rules, spec = self._plan(
            instance, schema, adds=adds, removes=removes)
        return run_apply_inprocess(
            spec, adds=adds, removes=removes, delivery=delivery,
            seed=self.seed)

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
