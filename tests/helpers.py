"""Hand-wiring a :class:`PartitionWorker` outside a driver: every worker
needs a stripe over a shared base dictionary, and every batch it is fed
is id-encoded.  Plus the schedule explorer's transport
(:class:`ScheduleDriver`) and its battery (:func:`explore`)."""

from __future__ import annotations

import random
import types
from collections import deque

import numpy as np

from repro.analysis.dataflow import module_source
from repro.analysis.sanitize import check_ledger
from repro.datasets.lubm import LUBM
from repro.datasets.mdc import MDC
from repro.datasets.uobm import UOBM
from repro.owl.reasoner import split_schema
from repro.parallel import (
    EncodedBatch,
    InMemoryComm,
    ParallelReasoner,
    RunStats,
    SupervisionPolicy,
    WorkerFailure,
    build_base_dictionary,
    coordinator,
    run_rounds,
)
from repro.parallel.aggregate import gather_rows
from repro.parallel.async_backend import AsyncRunResult, maintain
from repro.parallel.messages import Adopt, Deliver
from repro.rdf.dictionary import PartitionDictionary, encode_rows, lookup_rows


def stripes(k, *graphs, rules=()):
    """One :class:`PartitionDictionary` per node over a base holding the
    terms of ``graphs`` and ``rules``."""
    base = build_base_dictionary(graphs, rules=rules)
    return [PartitionDictionary(base, i, k) for i in range(k)]


def wire_batch(dictionary, sender, dest, round_no, triples):
    """``triples`` as the peer owning ``dictionary`` would ship them:
    encoded (minting in its stripe as needed), with every non-base id's
    term in the delta-dictionary."""
    s, p, o = encode_rows(dictionary, triples)
    ids = np.unique(np.concatenate([s, p, o])).tolist()
    delta = tuple((i, dictionary.decode(i)) for i in ids
                  if i >= dictionary.base_size)
    return EncodedBatch(sender, dest, round_no, s, p, o, delta)


def decoded(store):
    """Whether a term-graph snapshot of ``store`` has been decoded."""
    return any(key[0] == "term_graph" for key, _ in store._cached_items())


# -- the schedule explorer's transport ----------------------------------------


class ScheduleDriver:
    """A third transport over :class:`~repro.parallel.coordinator.
    Coordinator` and :class:`~repro.parallel.coordinator.WorkerHost`
    (beside the resident and the process executors), for tests: the test
    picks which pending batch is delivered next, and may strike one
    delivery with a fault.

    Batches travel on (sender, dest) channels, FIFO within a channel; any
    channel may go next.  Deliveries are numbered from 0 in the order they
    happen, an Adopt (a node's boot, or its adoption in a recovery)
    counting as one.  ``pick(heads)`` gets the pending-list positions of
    each deliverable channel's oldest batch, oldest first, and returns
    the index of the one to deliver.  ``fault=(index, action)`` strikes
    delivery ``index``:

    * ``"kill"`` — the host dies consuming it;
    * ``"freeze"`` — the host wedges before it.  Once the recovery has
      moved its nodes, it wakes up and handles the message after all;
      each late reply carries the old epoch, and the coordinator must
      drop it without a command or a ledger change (``self.stale``
      counts them);
    * ``"drop"`` — a batch is lost; its channel waits behind it until
      nothing else moves, then it is retransmitted (a boot cannot be
      dropped).

    The result goes through the same gather as the executors', after
    :func:`~repro.analysis.sanitize.check_ledger` at quiescence.
    ``protocol`` is the module the two state machines come from (a
    mutant of :mod:`repro.parallel.coordinator`, for mutation tests).
    """

    def __init__(self, spec, pick=None, fault=None, max_steps=10_000,
                 protocol=None):
        protocol = protocol or coordinator
        self.spec = spec = spec.for_run()
        self.coord = protocol.Coordinator(spec)
        self.hosts = [protocol.WorkerHost(spec) for _ in range(spec.k)]
        self.pick = pick or (lambda heads: 0)
        self.fault = fault
        self.max_steps = max_steps
        #: Deliver commands in send order, as (host, batch).
        self.pending = []
        self.lost = []
        #: Host -> "killed" | "frozen", until the stall reports it.
        self.down = {}
        #: Frozen host -> the message it wedged on.
        self.wedged = {}
        self.retired = set()
        self.index = 0
        self.stale = 0
        self.send(self.coord.start())

    def send(self, commands):
        todo = deque(commands)
        while todo:
            host, msg = todo.popleft()
            if host in self.down or host in self.retired:
                continue  # lost with the host; recovery replays it
            if isinstance(msg, Deliver):
                self.pending.append((host, msg.batch))
            elif isinstance(msg, Adopt):
                todo.extend(self._deliver(host, msg))
            else:
                todo.extend(self.reply(self.hosts[host].handle(msg)))

    def reply(self, replies):
        return [c for r in replies for c in self.coord.handle(r)]

    def _deliver(self, host, msg):
        index, self.index = self.index, self.index + 1
        action = self.fault[1] if self.fault and self.fault[0] == index else None
        if action in ("kill", "freeze"):
            self.down[host] = "killed" if action == "kill" else "frozen"
            if action == "freeze":
                self.wedged[host] = msg
            return []
        if action == "drop" and isinstance(msg, Deliver):
            self.lost.append((host, msg.batch))
            return []
        return self.reply(self.hosts[host].handle(msg))

    def _heads(self):
        blocked = {(b.sender, b.dest) for _h, b in self.lost}
        seen, heads = set(), []
        for i, (host, b) in enumerate(self.pending):
            key = (b.sender, b.dest)
            if key not in seen:
                seen.add(key)
                if key not in blocked and host not in self.down:
                    heads.append(i)
        return heads

    def drain(self):
        """Deliver until the counting ledger is quiescent."""
        steps = 0
        while not self.coord.quiescent():
            steps += 1
            if steps > self.max_steps:
                raise AssertionError(f"no termination after {steps} steps")
            heads = self._heads()
            if not heads:
                self._unstall()
                continue
            host, batch = self.pending.pop(heads[self.pick(heads)])
            self.send(self._deliver(host, Deliver(batch)))

    def _unstall(self):
        ready = [e for e in self.lost if e[0] not in self.down]
        if ready:
            for entry in ready:
                self.lost.remove(entry)
            self.coord.stats.retransmitted += len(ready)
            self.pending[:0] = ready
            return
        if not self.down:
            raise AssertionError("stalled with every host up")
        coord = self.coord
        nodes = [n for n in range(self.spec.k) if coord.host[n] in self.down]
        counts = [coord.det.counts(n) for n in nodes]
        commands = coord.on_failure(WorkerFailure(
            nodes,
            "killed" if "killed" in self.down.values() else "frozen",
            forwarded=[f for f, _ in counts],
            consumed=[c for _, c in counts],
            epoch=max(coord.epoch[n] for n in nodes),
        ))
        failed = set(self.down)
        self.retired |= failed
        self.down.clear()
        self.pending = [e for e in self.pending if e[0] not in failed]
        self.lost = [e for e in self.lost if e[0] not in failed]
        self.send(commands)
        for host in failed & set(self.wedged):
            self._wake(host, self.wedged.pop(host))

    def _wake(self, host, msg):
        """A wedged host resumes after its nodes moved on: every reply is
        from a replaced incarnation and must change nothing."""
        det = self.coord.det
        before = (list(det.forwarded), list(det.consumed), self.coord.relayed)
        for reply in self.hosts[host].handle(msg):
            assert self.coord.handle(reply) == [], f"stale {reply!r} acted on"
            self.stale += 1
        assert (list(det.forwarded), list(det.consumed),
                self.coord.relayed) == before, "stale reply moved the ledger"

    def result(self):
        coord = self.coord
        check_ledger(coord.det)
        self.send(coord.finish())
        assert coord.done(), "outputs missing after Finish"
        k = self.spec.k
        dictionary, store, engine_stats = gather_rows(
            self.spec, [coord.outputs[i] for i in range(k)])
        workers = [self.hosts[coord.host[i]].workers[i] for i in range(k)]
        return AsyncRunResult(dictionary, store, engine_stats, coord.stats,
                              coord.det, workers)


def seeded_order(seed):
    """A ``pick`` for :class:`ScheduleDriver`: a seeded-random channel
    each step."""
    rng = random.Random(seed)
    return lambda heads: rng.randrange(len(heads))


def newest_first(heads):
    """A ``pick``: the channel whose oldest batch is newest."""
    return len(heads) - 1


def run_scheduled(spec, pick=None, fault=None):
    """Materialize ``spec`` under one schedule (see :class:`ScheduleDriver`)."""
    driver = ScheduleDriver(spec, pick, fault)
    driver.drain()
    return driver.result()


def run_shuffled(spec, seed):
    """Materialize ``spec`` under a seeded-random schedule."""
    return run_scheduled(spec, seeded_order(seed))


def apply_shuffled(spec, adds=(), removes=(), seed=0):
    """:func:`~repro.parallel.async_backend.run_apply_inprocess` under a
    seeded-random schedule."""
    driver = ScheduleDriver(spec, seeded_order(seed))
    driver.drain()
    maintain(driver, lookup_rows(spec.base, removes),
             lookup_rows(spec.base, list(adds)))
    return driver.result()


def plan_spec(reasoner, graph, **maintenance):
    """The spec ``reasoner.materialize_async(graph)`` runs (pass ``adds=``
    / ``removes=`` for the one ``apply_async`` runs)."""
    schema, instance = split_schema(graph)
    return reasoner._plan(instance, schema, **maintenance)[2]


class _Found(Exception):
    pass


def explore(spec, oracle, *, bound=2, seeds=5,
            faults=("kill", "freeze", "drop"), protocol=None, first=False):
    """Run ``spec`` under the explorer's battery of schedules and return
    the ``(schedule, error)`` pairs of those that went wrong:

    * every order of the first ``bound`` channel choices, oldest first
      after that;
    * ``seeds`` seeded-random orders;
    * each action of ``faults`` at every delivery index, oldest first.

    A schedule goes wrong if it raises, fails to terminate, ends with a
    ledger that does not conserve, yields a closure other than ``oracle``
    (a set of triples: the BSP rounds' on the same spec), or — where a
    freeze struck — never sees the wedged host's late, stale reply.
    With ``first``, stop at the first such schedule.
    """
    failures = []

    def attempt(schedule, pick=None, fault=None):
        """Run one schedule; return how many deliveries it made."""
        driver = None
        try:
            driver = ScheduleDriver(spec, pick, fault, max_steps=500,
                                    protocol=protocol)
            driver.drain()
            if set(driver.result().graph) != oracle:
                raise AssertionError("closure differs from the BSP rounds")
            struck = fault is not None and driver.index > fault[0]
            if struck and fault[1] == "freeze" and not driver.stale:
                raise AssertionError("no stale reply from the wedged host")
        except Exception as exc:  # noqa: BLE001 - every error is a finding
            failures.append((schedule, exc))
            if first:
                raise _Found from exc
        return driver.index if driver else 0

    try:
        _battery(attempt, bound, seeds, faults)
    except _Found:
        pass
    return failures


def _battery(attempt, bound, seeds, faults):
    stack = [()]
    while stack:
        prefix = stack.pop()
        widths = []

        def pick(heads, prefix=prefix, widths=widths):
            widths.append(len(heads))
            step = len(widths) - 1
            return prefix[step] if step < len(prefix) else 0

        attempt(("order", prefix), pick)
        for depth in range(len(prefix), min(bound, len(widths))):
            pad = (0,) * (depth - len(prefix))
            stack.extend(prefix + pad + (choice,)
                         for choice in range(1, widths[depth]))
    for seed in range(seeds):
        attempt(("seed", seed), seeded_order(seed))
    for action in faults:
        index = 0
        # Until the fault no longer strikes: every delivery index.
        while attempt((action, index), fault=(index, action)) > index:
            index += 1


def explorer_case(name, approach, k, degrade="recover"):
    """``(spec, oracle)`` for the explorer: the spec ``materialize_async``
    runs on the tiny scale's generator ``name`` at one university / one
    field, and the BSP rounds' closure of it as a set of triples."""
    tiny = dict(departments_per_university=1, faculty_per_department=2,
                students_per_faculty=3)
    ds = {
        "lubm": lambda: LUBM(1, seed=0, **tiny),
        "uobm": lambda: UOBM(1, seed=0, social_edges_per_person=2, **tiny),
        "mdc": lambda: MDC(1, seed=0, wells_per_field=3, hierarchy_depth=5),
    }[name]()
    pr = ParallelReasoner(ds.ontology, k=k, approach=approach,
                          supervision=SupervisionPolicy(degrade=degrade))
    spec = plan_spec(pr, ds.data)
    oracle = set(run_rounds(spec, InMemoryComm(k), RunStats(k=k)).graph)
    return spec, oracle


def mutant(*edits):
    """:mod:`repro.parallel.coordinator` with each ``(old, new)`` source
    edit applied once, as a fresh module (for mutation tests)."""
    source = module_source("repro.parallel.coordinator")
    for old, new in edits:
        assert old in source, f"mutation site gone: {old!r}"
        source = source.replace(old, new, 1)
    module = types.ModuleType("coordinator_mutant")
    exec(compile(source, "<coordinator mutant>", "exec"), module.__dict__)
    return module
