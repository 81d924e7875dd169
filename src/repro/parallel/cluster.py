"""The cluster spec — the master's one partitioning decision.

"Note that the master node itself has no role to play once the initial
partition is done" (Section IV): partitions, rule subsets and routing are
decided once, shipped to the nodes, and never revisited.
:class:`ClusterSpec` is that decision written down once, for every
executor — the BSP rounds, the in-process and multiprocess round-free
runtimes, and the lock-step multiprocess oracle all build their nodes
from it with :meth:`ClusterSpec.worker`, and nothing else constructs a
:class:`~repro.parallel.worker.PartitionWorker`.

The spec is frozen and picklable: the multiprocess executors ship it
whole — the router object itself, not a flattened owner table — so a
node in another process routes exactly as an in-process one.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

from repro.datalog.ast import Rule
from repro.parallel.routing import Router
from repro.parallel.supervisor import SupervisionPolicy
from repro.parallel.worker import PartitionWorker, Strategy
from repro.rdf.dictionary import PartitionDictionary, TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.stores import sanitize_enabled, store_kind
from repro.rdf.terms import Variable


def build_base_dictionary(
    partitions: Sequence[Graph],
    extra: Sequence[Graph] = (),
    rules: Sequence[Rule] = (),
) -> TermDictionary:
    """The shared base stripe: every term the master can see at setup,
    encoded once.  Pass the rule base too — rule atoms are the only other
    source of ground terms (head constants like class URIs), and seeding
    them means delta-dictionary traffic only carries terms that genuinely
    first exist at runtime."""
    d = TermDictionary()
    enc = d.encode
    for g in list(partitions) + list(extra):
        for t in g:
            enc(t.s)
            enc(t.p)
            enc(t.o)
    for r in rules:
        for atom in (*r.body, r.head):
            for term in atom:
                if not isinstance(term, Variable):
                    enc(term)
    return d


@dataclass(frozen=True, eq=False)
class ClusterSpec:
    """Everything a run needs to build its k nodes.

    ``partitions[i]`` / ``rules[i]`` are node i's base tuples and rule
    set; ``router`` is the one routing decision every node shares;
    ``base`` is the shared base dictionary every node's id stripe
    extends; ``schema_graphs`` are the replicated schema triples — no
    node holds them, they join the gathered result.  The store settings
    are resolved once, here; ``supervision`` is the only failure-handling
    configuration, and its ``max_retries`` also sizes the id stripes.

    Build one with :meth:`build`.
    """

    partitions: tuple[Graph, ...]
    rules: tuple[tuple[Rule, ...], ...]
    router: Router
    base: TermDictionary
    schema_graphs: tuple[Graph, ...] = ()
    strategy: Strategy = "forward"
    store: str = "dense"
    memory_budget_bytes: int | None = None
    sanitize: bool = False
    supervision: SupervisionPolicy = field(default_factory=SupervisionPolicy)

    @classmethod
    def build(
        cls,
        partitions: Sequence[Graph],
        rules: Sequence[Sequence[Rule]],
        router: Router,
        schema_graphs: Sequence[Graph] = (),
        *,
        base: TermDictionary | None = None,
        strategy: Strategy = "forward",
        store: str | None = None,
        memory_budget_bytes: int | None = None,
        sanitize: bool | None = None,
        supervision: SupervisionPolicy | None = None,
    ) -> "ClusterSpec":
        """Validate and resolve a spec.  ``base`` defaults to every term
        of the partitions, the schema graphs and the rules; pass one to
        seed it differently (a base must hold every term the master will
        ever put on the wire itself)."""
        if len(rules) != len(partitions):
            raise ValueError(
                f"{len(rules)} rule sets for {len(partitions)} partitions")
        if router.k != len(partitions):
            raise ValueError(
                f"router spans {router.k} nodes, spec has {len(partitions)}")
        if base is None:
            base = build_base_dictionary(
                partitions, extra=schema_graphs,
                rules=[r for rs in rules for r in rs])
        return cls(
            partitions=tuple(partitions),
            rules=tuple(tuple(rs) for rs in rules),
            router=router,
            base=base,
            schema_graphs=tuple(schema_graphs),
            strategy=strategy,
            store=store_kind(store, memory_budget_bytes),
            memory_budget_bytes=memory_budget_bytes,
            sanitize=sanitize_enabled(sanitize),
            supervision=supervision or SupervisionPolicy(),
        )

    @property
    def k(self) -> int:
        return len(self.partitions)

    def for_run(self) -> "ClusterSpec":
        """This spec over an unbound copy of its router.  A router caches
        the ids a run's workers mint, which only that run may read; an
        in-process run's nodes share one copy, so the spec stays
        reusable."""
        return dataclasses.replace(self, router=copy.copy(self.router))

    def worker(self, node: int, epoch: int = 0) -> PartitionWorker:
        """Node ``node`` at incarnation ``epoch``.  Each incarnation
        mints ids in its own stripe, ``node + epoch*k`` of
        ``k*(max_retries+1)``, so a replacement can never re-issue an id
        its dead predecessor already shipped."""
        stripes = self.k * (self.supervision.max_retries + 1)
        return PartitionWorker(
            node_id=node,
            base=self.partitions[node],
            rules=self.rules[node],
            router=self.router,
            dictionary=PartitionDictionary(
                self.base, node + epoch * self.k, stripes),
            strategy=self.strategy,
            epoch=epoch,
            store=self.store,
            memory_budget_bytes=self.memory_budget_bytes,
            sanitize=self.sanitize,
        )
