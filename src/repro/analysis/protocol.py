"""Protocol verifier: the async control protocol as a checkable spec.

PRs 2–3 grew the asynchronous runtime a typed, epoch-stamped control
protocol (``Produced``/``OutputMsg``/``Heartbeat`` worker→master,
``Deliver``/``Adopt``/``Finish``/``Stop`` master→worker) whose
correctness obligations — every message type handled in every reachable
state, stale-epoch drops on every epoch-guarded receive path, ledger
counters mutated only inside accounted paths — were, until now, enforced
by convention and by the fault-injection suite catching the hang *after*
a regression.  This module lifts those obligations into an explicit
declarative spec (:data:`ASYNC_PROTOCOL`) and statically checks the
handler code against it, so deleting an ``isinstance(msg, Finish)``
branch or an ``msg.epoch < epoch[...]`` guard fails a tier-1 test (and
the CI ``analysis`` job) instead of deadlocking a production run.

Checks, in spec order (finding codes ``PROTO0xx``):

* ``PROTO001`` — a spec message type is missing from
  :mod:`repro.parallel.messages` (or vice versa: ``PROTO002`` a control
  message registered there is absent from the spec).
* ``PROTO003`` — an epoch-stamped message class lost its ``node_id`` or
  ``epoch`` field.
* ``PROTO010`` — a handler no longer dispatches on a message type the
  spec requires it to handle (the "unhandled Stop" class of bug).
* ``PROTO011`` — a handler dispatches on a message type the spec does
  not know (protocol grew without the spec — drift).
* ``PROTO012`` — the handler's fall-through consumption (e.g. the
  worker's ``msg.batch`` for ``Deliver``) disappeared.
* ``PROTO020`` — an epoch-guarded receive branch lost its stale-epoch
  drop (``<msg>.epoch < ...`` comparison).
* ``PROTO030`` — a termination-ledger counter is mutated outside the
  spec's accounted call paths.
* ``PROTO031`` — an accounted path named by the spec no longer exists
  (the spec itself drifted from the code).

All checks are purely syntactic (``ast`` over the backend sources) plus
one reflective pass over the message dataclasses; nothing is executed.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.analysis.report import Finding

PASS_NAME = "protocol"

M2W = "master->worker"
W2M = "worker->master"


@dataclass(frozen=True)
class MessageSpec:
    """One control-message type: direction and stamping obligations."""

    name: str
    direction: str
    #: Worker-originated messages must carry (node_id, epoch) so the
    #: master can drop a dead incarnation's leftovers.
    epoch_stamped: bool = False


@dataclass(frozen=True)
class HandlerSpec:
    """One receive loop and the message types it must dispatch on.

    ``handles`` are checked as ``isinstance(<msg>, <Name>)`` tests
    anywhere in the function; ``fallthrough`` is a message consumed
    without an isinstance test, witnessed by an attribute access
    (``fallthrough_attr``) on the message object; ``epoch_guarded``
    branches must contain a ``<expr>.epoch < <expr>`` comparison.
    """

    module: str
    function: str
    role: str
    handles: frozenset[str] = frozenset()
    fallthrough: str | None = None
    fallthrough_attr: str | None = None
    epoch_guarded: frozenset[str] = frozenset()


@dataclass(frozen=True)
class LedgerRule:
    """Where a termination-ledger mutator may be called from."""

    module: str
    method: str
    allowed_callers: frozenset[str]


@dataclass(frozen=True)
class ProtocolSpec:
    """The whole declarative protocol: messages, handlers, ledger paths."""

    messages: tuple[MessageSpec, ...]
    handlers: tuple[HandlerSpec, ...]
    ledger: tuple[LedgerRule, ...]

    def message_names(self) -> frozenset[str]:
        return frozenset(m.name for m in self.messages)

    def by_direction(self, direction: str) -> tuple[MessageSpec, ...]:
        return tuple(m for m in self.messages if m.direction == direction)


_ASYNC = "repro.parallel.async_backend"
_SUP = "repro.parallel.supervisor"

#: The asynchronous runtime's control protocol (DESIGN.md §7–§8, §10).
ASYNC_PROTOCOL = ProtocolSpec(
    messages=(
        MessageSpec("Deliver", M2W),
        MessageSpec("Adopt", M2W),
        MessageSpec("Finish", M2W),
        MessageSpec("Stop", M2W),
        MessageSpec("Produced", W2M, epoch_stamped=True),
        MessageSpec("OutputMsg", W2M, epoch_stamped=True),
        MessageSpec("Heartbeat", W2M, epoch_stamped=True),
    ),
    handlers=(
        # The worker process loop: every master->worker message must be
        # dispatched in its single serving state; Deliver is the
        # fall-through (`batch = msg.batch`).
        HandlerSpec(
            module=_ASYNC,
            function="_async_worker_main",
            role="worker",
            handles=frozenset({"Stop", "Finish", "Adopt"}),
            fallthrough="Deliver",
            fallthrough_attr="batch",
        ),
        # The async master loop: every worker->master message except
        # Heartbeat (absorbed by the supervisor below) must be
        # dispatched, and each dispatch must drop stale epochs.
        HandlerSpec(
            module=_ASYNC,
            function="run_multiprocess_async",
            role="master",
            handles=frozenset({"Produced", "OutputMsg"}),
            epoch_guarded=frozenset({"Produced", "OutputMsg"}),
        ),
        # The supervised wait absorbs Heartbeat for both backends.
        HandlerSpec(
            module=_SUP,
            function="ProcessSupervisor.get",
            role="master",
            handles=frozenset({"Heartbeat"}),
        ),
    ),
    ledger=(
        # The two in-process executors share one run object
        # (`_InProcessRun`): one emit, one drain, one revive.
        LedgerRule(
            _ASYNC,
            "record_forward",
            frozenset(
                {
                    "_InProcessRun.emit",
                    "_InProcessRun._revive",
                    "run_multiprocess_async.relay",
                    "run_multiprocess_async.recover",
                }
            ),
        ),
        LedgerRule(
            _ASYNC,
            "record_delivery",
            frozenset({"_InProcessRun.drain", "_InProcessRun._revive"}),
        ),
        LedgerRule(
            _ASYNC, "record_ack", frozenset({"run_multiprocess_async"})
        ),
        LedgerRule(
            _ASYNC,
            "reset_node",
            frozenset(
                {"_InProcessRun._revive", "run_multiprocess_async.recover"}
            ),
        ),
        LedgerRule(
            _ASYNC,
            "mark_bootstrapped",
            frozenset(
                {
                    "_InProcessRun.__init__",
                    "_InProcessRun._revive",
                    "run_multiprocess_async",
                }
            ),
        ),
    ),
)

def spec_table(spec: ProtocolSpec = ASYNC_PROTOCOL) -> str:
    """The spec's message table as markdown (for docs and ``--spec``)."""
    handled_in: dict[str, list[str]] = {m.name: [] for m in spec.messages}
    for h in spec.handlers:
        for name in sorted(h.handles):
            handled_in.setdefault(name, []).append(f"{h.module}:{h.function}")
        if h.fallthrough:
            handled_in.setdefault(h.fallthrough, []).append(
                f"{h.module}:{h.function} (fall-through)"
            )
    lines = [
        "| message | direction | epoch-stamped | handled in |",
        "|---|---|---|---|",
    ]
    for m in spec.messages:
        lines.append(
            f"| {m.name} | {m.direction} | "
            f"{'yes' if m.epoch_stamped else 'no'} | "
            f"{'; '.join(handled_in.get(m.name, [])) or '-'} |"
        )
    return "\n".join(lines)


# -- source + AST plumbing -----------------------------------------------------


def module_source(name: str, sources: Mapping[str, str] | None = None) -> str:
    """The module's source text, overridable for drift tests."""
    if sources is not None and name in sources:
        return sources[name]
    mod = importlib.import_module(name)
    if mod.__file__ is None:  # pragma: no cover - namespace packages only
        raise FileNotFoundError(f"module {name} has no source file")
    return Path(mod.__file__).read_text(encoding="utf-8")


def _index_functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Map dotted qualnames (``Class.method``, ``outer.inner``) to defs."""
    index: dict[str, ast.AST] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                index[qual] = child
                visit(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return index


def _isinstance_targets(call: ast.Call) -> Iterator[str]:
    """Class names tested by one ``isinstance(x, C)``/``isinstance(x, (A, B))``."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"):
        return
    if len(call.args) != 2:
        return
    target = call.args[1]
    elts = target.elts if isinstance(target, ast.Tuple) else [target]
    for elt in elts:
        if isinstance(elt, ast.Name):
            yield elt.id
        elif isinstance(elt, ast.Attribute):
            yield elt.attr


def _dispatched_names(func: ast.AST) -> dict[str, ast.Call]:
    """All class names isinstance-dispatched anywhere inside ``func``."""
    out: dict[str, ast.Call] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            for name in _isinstance_targets(node):
                out.setdefault(name, node)
    return out


def _has_epoch_drop(body: Sequence[ast.stmt]) -> bool:
    """Does this branch body contain an ``<expr>.epoch < <expr>`` test?"""
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Compare):
                continue
            left = node.left
            if (
                isinstance(left, ast.Attribute)
                and left.attr == "epoch"
                and any(isinstance(op, (ast.Lt, ast.NotEq)) for op in node.ops)
            ):
                return True
    return False


def _guarded_branches(func: ast.AST, message: str) -> list[ast.If]:
    """Every ``if``/``elif`` whose test isinstance-checks ``message``."""
    out: list[ast.If] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        for sub in ast.walk(node.test):
            if isinstance(sub, ast.Call) and message in _isinstance_targets(sub):
                out.append(node)
                break
    return out


def _call_sites(
    tree: ast.Module, methods: frozenset[str]
) -> list[tuple[str, str, int]]:
    """``(method, caller_qualname, line)`` for attribute calls to ``methods``."""
    sites: list[tuple[str, str, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                if isinstance(child, ast.Call) and isinstance(
                    child.func, ast.Attribute
                ):
                    if child.func.attr in methods:
                        sites.append(
                            (child.func.attr, prefix.rstrip("."), child.lineno)
                        )
                visit(child, prefix)

    visit(tree, "")
    return sites


# -- the verification passes ---------------------------------------------------


def _check_registry(spec: ProtocolSpec) -> list[Finding]:
    """Spec <-> repro.parallel.messages drift (PROTO001/002/003)."""
    from repro.parallel import messages as messages_mod

    findings: list[Finding] = []
    registry = {
        M2W: {cls.__name__ for cls in messages_mod.MASTER_TO_WORKER},
        W2M: {cls.__name__ for cls in messages_mod.WORKER_TO_MASTER},
    }
    for direction in (M2W, W2M):
        spec_names = {m.name for m in spec.by_direction(direction)}
        for name in sorted(spec_names - registry[direction]):
            findings.append(
                Finding(
                    "PROTO001",
                    f"spec message {name} ({direction}) is not registered in "
                    "repro.parallel.messages",
                    path="repro/parallel/messages.py",
                    pass_name=PASS_NAME,
                )
            )
        for name in sorted(registry[direction] - spec_names):
            findings.append(
                Finding(
                    "PROTO002",
                    f"control message {name} ({direction}) is registered in "
                    "repro.parallel.messages but absent from the protocol spec",
                    path="repro/parallel/messages.py",
                    pass_name=PASS_NAME,
                )
            )
    for m in spec.messages:
        if not m.epoch_stamped:
            continue
        cls = getattr(messages_mod, m.name, None)
        if cls is None or not dataclasses.is_dataclass(cls):
            continue  # PROTO001 already covers a missing class
        fields = {f.name for f in dataclasses.fields(cls)}
        missing = {"node_id", "epoch"} - fields
        if missing:
            findings.append(
                Finding(
                    "PROTO003",
                    f"epoch-stamped message {m.name} lost required field(s) "
                    f"{', '.join(sorted(missing))}",
                    path="repro/parallel/messages.py",
                    pass_name=PASS_NAME,
                )
            )
    return findings


def _check_handler(
    spec: ProtocolSpec, handler: HandlerSpec, tree: ast.Module, rel: str
) -> list[Finding]:
    findings: list[Finding] = []
    index = _index_functions(tree)
    func = index.get(handler.function)
    if func is None:
        findings.append(
            Finding(
                "PROTO031",
                f"handler {handler.function} named by the spec does not exist "
                f"in {handler.module}",
                path=rel,
                pass_name=PASS_NAME,
            )
        )
        return findings
    dispatched = _dispatched_names(func)
    known = spec.message_names()
    for name in sorted(handler.handles):
        if name not in dispatched:
            findings.append(
                Finding(
                    "PROTO010",
                    f"{handler.function} ({handler.role} loop) no longer "
                    f"handles {name} — every reachable state must dispatch it",
                    path=rel,
                    line=getattr(func, "lineno", 0),
                    pass_name=PASS_NAME,
                )
            )
    for name in sorted(set(dispatched) - known):
        # Only flag names that are actually control messages (defined in
        # repro.parallel.messages): payload isinstance checks like
        # EncodedBatch are not protocol dispatches.
        from repro.parallel import messages as messages_mod

        if hasattr(messages_mod, name):
            findings.append(
                Finding(
                    "PROTO011",
                    f"{handler.function} dispatches on {name}, which is not "
                    "in the protocol spec — update ASYNC_PROTOCOL",
                    path=rel,
                    line=dispatched[name].lineno,
                    pass_name=PASS_NAME,
                )
            )
    if handler.fallthrough and handler.fallthrough_attr:
        consumed = any(
            isinstance(node, ast.Attribute)
            and node.attr == handler.fallthrough_attr
            for node in ast.walk(func)
        )
        if not consumed:
            findings.append(
                Finding(
                    "PROTO012",
                    f"{handler.function} lost the fall-through consumption of "
                    f"{handler.fallthrough} (no .{handler.fallthrough_attr} "
                    "access)",
                    path=rel,
                    line=getattr(func, "lineno", 0),
                    pass_name=PASS_NAME,
                )
            )
    for name in sorted(handler.epoch_guarded):
        branches = _guarded_branches(func, name)
        if not branches:
            continue  # PROTO010 already reported the missing dispatch
        if not any(_has_epoch_drop(b.body) for b in branches):
            findings.append(
                Finding(
                    "PROTO020",
                    f"{handler.function}: the {name} receive path has no "
                    "stale-epoch drop (<msg>.epoch < current) — a dead "
                    "incarnation's leftovers would corrupt the ledger",
                    path=rel,
                    line=branches[0].lineno,
                    pass_name=PASS_NAME,
                )
            )
    return findings


def _check_ledger(
    spec: ProtocolSpec, module: str, tree: ast.Module, rel: str
) -> list[Finding]:
    findings: list[Finding] = []
    rules = [r for r in spec.ledger if r.module == module]
    if not rules:
        return findings
    methods = frozenset(r.method for r in rules)
    by_method = {r.method: r for r in rules}
    seen_callers: dict[str, set[str]] = {m: set() for m in methods}
    for method, caller, line in _call_sites(tree, methods):
        seen_callers[method].add(caller)
        if caller not in by_method[method].allowed_callers:
            findings.append(
                Finding(
                    "PROTO030",
                    f"ledger counter {method}() mutated outside the accounted "
                    f"paths (called from {caller or '<module>'}; allowed: "
                    f"{', '.join(sorted(by_method[method].allowed_callers))})",
                    path=rel,
                    line=line,
                    pass_name=PASS_NAME,
                )
            )
    index = _index_functions(tree)
    for method, rule in sorted(by_method.items()):
        for caller in sorted(rule.allowed_callers - seen_callers[method]):
            if caller not in index:
                findings.append(
                    Finding(
                        "PROTO031",
                        f"accounted path {caller} for {method}() no longer "
                        "exists — the spec drifted from the code",
                        path=rel,
                        pass_name=PASS_NAME,
                    )
                )
    return findings


def verify_protocol(
    spec: ProtocolSpec = ASYNC_PROTOCOL,
    sources: Mapping[str, str] | None = None,
) -> list[Finding]:
    """Run every protocol check; returns findings (empty == conformant).

    ``sources`` overrides module source text by dotted name — the hook the
    drift tests use to verify that removing a handler or an epoch guard is
    actually caught.
    """
    findings: list[Finding] = _check_registry(spec)
    modules = {h.module for h in spec.handlers} | {r.module for r in spec.ledger}
    trees: dict[str, tuple[ast.Module, str]] = {}
    for module in sorted(modules):
        rel = module.replace(".", "/") + ".py"
        try:
            text = module_source(module, sources)
            trees[module] = (ast.parse(text), rel)
        except (OSError, SyntaxError) as exc:
            findings.append(
                Finding(
                    "PROTO031",
                    f"cannot load module {module} for verification: {exc}",
                    path=rel,
                    pass_name=PASS_NAME,
                )
            )
    for handler in spec.handlers:
        if handler.module in trees:
            tree, rel = trees[handler.module]
            findings.extend(_check_handler(spec, handler, tree, rel))
    for module, (tree, rel) in sorted(trees.items()):
        findings.extend(_check_ledger(spec, module, tree, rel))
    return findings
