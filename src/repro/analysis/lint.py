"""Concurrency lint: the PR-3 bug classes as machine-checked rules.

The fault-tolerance work (PR 3) fixed, by hand, a family of bugs that the
parallel runtime is structurally prone to re-growing: blocking waits with
no timeout (a dead peer wedges the process forever), classes crossing a
process boundary that do not survive pickling under ``spawn``,
module-level mutable state silently forked into workers, unseeded
randomness making runs irreproducible, and bare ``except`` clauses that
swallow the typed failures the supervisor depends on.  This linter
codifies each class as an AST rule so the regression is a finding, not a
production hang.

Rules (codes ``CX1xx``):

* ``CX101`` **unbounded blocking call** — ``.get()`` on a queue-like
  receiver, ``.join()`` with no arguments, or ``.recv()`` without a
  timeout, outside the blessed supervised wrappers
  (:attr:`LintConfig.blessed`).  The supervisor's own ``get`` polls with
  ``timeout=`` and folds liveness in; everything else must too.
* ``CX102`` **bare except** — ``except:`` or ``except BaseException:``
  anywhere; they catch ``KeyboardInterrupt``/``SystemExit`` and turn a
  worker kill into a zombie.
* ``CX103`` **swallowed broad except** — ``except Exception:`` (or
  broader) whose whole body is ``pass``/``continue``/``...``: the typed
  ``WorkerFailure`` diagnostics cannot surface through it.
* ``CX104`` **module-level mutable state** in spawn-reachable modules
  (:attr:`LintConfig.spawn_scope`): a dict/list/set at module scope is
  copied, not shared, across ``fork``/``spawn`` — reads look fine, writes
  silently diverge per process.
* ``CX105`` **unseeded randomness** — module-global ``random.*`` calls,
  ``random.Random()``/``numpy.random.default_rng()`` with no seed, or
  legacy ``numpy.random.*`` globals: engine and partitioning runs must be
  replayable from a seed (see ``repro.util.seeding``).
* ``CX106`` **spawn-unsafe wire class** — a class that travels on a
  multiprocessing queue fails a pickle round-trip (checked behaviorally
  against :data:`WIRE_EXAMPLES`; e.g. deleting ``Atom.__reduce__``
  breaks the immutability-guarded slot restore).

``CX101``–``CX105`` are purely syntactic.  ``CX106`` instantiates known
wire types and round-trips them through ``pickle`` — the exact property
``spawn`` needs.
"""

from __future__ import annotations

import ast
import pickle
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.analysis.report import Finding

PASS_NAME = "lint"

#: Receiver names (last dotted component) that make an untimed ``.get()``
#: or ``.recv()`` look like a blocking transport wait rather than a
#: ``dict.get``.  ``.join()`` needs no heuristic: a zero-argument join is
#: suspect on any receiver (``str.join`` always takes the iterable).
_QUEUEISH = re.compile(
    r"(queue|inbox|outbox|mailbox|mbox|channel|chan|pipe|conn|connection|sock|socket)s?$",
    re.IGNORECASE,
)

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "Counter", "OrderedDict"}
)

_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "betavariate",
        "expovariate",
        "seed",
    }
)

_NUMPY_RANDOM_FUNCS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "choice",
        "shuffle",
        "permutation",
        "seed",
        "random_sample",
    }
)


@dataclass(frozen=True)
class LintConfig:
    """What the linter scans and what it exempts.

    ``blessed`` are function qualnames allowed to make untimed blocking
    calls — the supervised wrappers whose *job* is the bounded wait.
    ``spawn_scope`` are path substrings marking modules importable inside
    worker processes, where module-level mutable state is a CX104.
    """

    blessed: frozenset[str] = frozenset(
        {"ProcessSupervisor.get", "shutdown_processes"}
    )
    #: The id-native worker path imports the columnar store, engine and
    #: join step inside worker processes, so they carry the same CX104
    #: obligations as the parallel runtime proper.
    spawn_scope: tuple[str, ...] = (
        "repro/parallel/",
        "repro/rdf/idstore",
        "repro/rdf/runstore",
        # The one join step answers worker patterns and evaluates every
        # rule body inside worker processes; the vectorized query surface
        # rides on it.
        "repro/datalog/join",
        "repro/rdf/idquery",
        "repro/datalog/columnar",
        "repro/datalog/incremental",
        # The sanitizer wraps worker stores, so it loads in worker
        # processes too; the dataflow verifier rides along for symmetry.
        "repro/analysis/dataflow",
        "repro/analysis/sanitize",
        # The serving tier holds workers resident and shares their
        # stores across server threads — same shared-state obligations.
        "repro/serving/",
    )
    #: Scope for CX105: unseeded randomness matters where determinism is a
    #: correctness property (engines, partitioning, the parallel runtime).
    seeded_scope: tuple[str, ...] = (
        "repro/datalog/",
        "repro/partitioning/",
        "repro/parallel/",
        "repro/graphpart/",
        "repro/rdf/idstore",
        "repro/rdf/runstore",
        "repro/rdf/idquery",
        "repro/analysis/dataflow",
        "repro/analysis/sanitize",
        # Serving benchmarks must be reproducible: the load mix and
        # batching order may not depend on unseeded randomness.
        "repro/serving/",
    )

    def in_scope(self, path: str, scope: tuple[str, ...]) -> bool:
        posix = path.replace("\\", "/")
        return any(marker in posix for marker in scope)


DEFAULT_CONFIG = LintConfig()


def _receiver_tail(func: ast.Attribute) -> str | None:
    """Last name component of the call receiver (``a.b.q.get`` -> ``q``)."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return None  # "sep".join(...) — a string literal receiver
    return None


def _has_kwarg(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _kwarg_is_false(call: ast.Call, name: str) -> bool:
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


class _FileLinter:
    """Runs every syntactic rule over one parsed file."""

    def __init__(self, path: str, tree: ast.Module, config: LintConfig) -> None:
        self.path = path
        self.tree = tree
        self.config = config
        self.findings: list[Finding] = []
        self._numpy_aliases = {"numpy"}
        self._random_aliases = {"random"}

    def run(self) -> list[Finding]:
        self._collect_aliases()
        self._visit(self.tree, "<module>")
        self._check_module_state()
        return self.findings

    def _emit(self, code: str, message: str, line: int) -> None:
        self.findings.append(
            Finding(code, message, path=self.path, line=line, pass_name=PASS_NAME)
        )

    # -- alias tracking ------------------------------------------------------

    def _collect_aliases(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self._numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "random":
                        self._random_aliases.add(alias.asname or "random")

    # -- one-pass walk tracking the enclosing qualname (for blessing) --------

    def _visit(self, node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = (
                    child.name
                    if qualname == "<module>"
                    else f"{qualname}.{child.name}"
                )
                self._visit(child, inner)
                continue
            if isinstance(child, ast.Call):
                if not self._is_blessed(qualname):
                    self._check_blocking(child)
                self._check_randomness(child)
            elif isinstance(child, ast.ExceptHandler):
                self._check_except(child)
            self._visit(child, qualname)

    def _is_blessed(self, qualname: str) -> bool:
        return any(
            qualname == b or qualname.endswith("." + b)
            for b in self.config.blessed
        )

    # -- CX101 ----------------------------------------------------------------

    def _check_blocking(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        name = func.attr
        receiver = _receiver_tail(func)
        if name == "get":
            if receiver is None or not _QUEUEISH.search(receiver):
                return
            if _has_kwarg(call, "timeout"):
                return
            if _kwarg_is_false(call, "block"):
                return
            if call.args and not (
                isinstance(call.args[0], ast.Constant)
                and call.args[0].value is True
            ):
                # Queue.get's only positionals are (block, timeout); a
                # non-True first positional is dict.get(key, ...) — or a
                # non-blocking get(False) — not an unbounded wait.
                return
            self._emit(
                "CX101",
                f"unbounded blocking {receiver}.get() — pass timeout= and "
                "fold liveness checks into the wait (see ProcessSupervisor.get)",
                call.lineno,
            )
        elif name == "join":
            if isinstance(func.value, ast.Constant):
                return  # "sep".join(...)
            if call.args or _has_kwarg(call, "timeout"):
                return
            self._emit(
                "CX101",
                f"unbounded {receiver or '<expr>'}.join() — join with a "
                "timeout and escalate (see shutdown_processes)",
                call.lineno,
            )
        elif name == "recv":
            if receiver is None or not _QUEUEISH.search(receiver):
                return
            if _has_kwarg(call, "timeout"):
                return
            self._emit(
                "CX101",
                f"unbounded blocking {receiver}.recv() — poll with a bounded "
                "wait so a dead peer cannot wedge this process",
                call.lineno,
            )

    # -- CX102 / CX103 ---------------------------------------------------------

    def _check_except(self, handler: ast.ExceptHandler) -> None:
        broad = False
        if handler.type is None:
            self._emit(
                "CX102",
                "bare except: catches KeyboardInterrupt/SystemExit and hides "
                "typed failures — catch the specific exception",
                handler.lineno,
            )
            broad = True
        elif isinstance(handler.type, ast.Name):
            if handler.type.id == "BaseException":
                self._emit(
                    "CX102",
                    "except BaseException: catches interpreter-exit signals — "
                    "catch the specific exception",
                    handler.lineno,
                )
                broad = True
            elif handler.type.id == "Exception":
                broad = True
        if broad and all(
            isinstance(stmt, (ast.Pass, ast.Continue))
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in handler.body
        ):
            self._emit(
                "CX103",
                "broad except swallows the error (body is pass/continue) — "
                "the supervisor's typed diagnostics cannot surface through it",
                handler.lineno,
            )

    # -- CX104 ----------------------------------------------------------------

    def _check_module_state(self) -> None:
        if not self.config.in_scope(self.path, self.config.spawn_scope):
            return
        for stmt in self.tree.body:
            targets: list[ast.expr]
            if isinstance(stmt, ast.Assign):
                value = stmt.value
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value = stmt.value
                targets = [stmt.target]
            else:
                continue
            if not self._is_mutable_literal(value):
                continue
            names = [
                t.id
                for t in targets
                if isinstance(t, ast.Name)
                and not (t.id.startswith("__") and t.id.endswith("__"))
            ]
            if not names:
                continue
            self._emit(
                "CX104",
                f"module-level mutable state {', '.join(names)} in a "
                "spawn-reachable module — each worker process gets a diverging "
                "copy; move it into the worker/config object",
                stmt.lineno,
            )

    @staticmethod
    def _is_mutable_literal(value: ast.expr) -> bool:
        if isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            return name in _MUTABLE_CALLS
        return False

    # -- CX105 ----------------------------------------------------------------

    def _check_randomness(self, call: ast.Call) -> None:
        if not self.config.in_scope(self.path, self.config.seeded_scope):
            return
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        # random.<func>() on the module-global generator.
        if isinstance(value, ast.Name) and value.id in self._random_aliases:
            if func.attr in _GLOBAL_RANDOM_FUNCS:
                self._emit(
                    "CX105",
                    f"module-global random.{func.attr}() — derive a seeded "
                    "Random via repro.util.seeding.rng_for instead",
                    call.lineno,
                )
            elif func.attr == "Random" and not call.args and not call.keywords:
                self._emit(
                    "CX105",
                    "random.Random() without a seed — runs must be replayable",
                    call.lineno,
                )
        # numpy.random.<func>() legacy globals / unseeded default_rng().
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in self._numpy_aliases
        ):
            if func.attr in _NUMPY_RANDOM_FUNCS:
                self._emit(
                    "CX105",
                    f"legacy numpy.random.{func.attr}() global — use a seeded "
                    "numpy.random.default_rng(seed)",
                    call.lineno,
                )
            elif func.attr == "default_rng" and not call.args and not call.keywords:
                self._emit(
                    "CX105",
                    "numpy.random.default_rng() without a seed — runs must be "
                    "replayable",
                    call.lineno,
                )


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
    return out


def _rel_path(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_paths(
    paths: Iterable[str | Path],
    config: LintConfig = DEFAULT_CONFIG,
    root: str | Path | None = None,
) -> list[Finding]:
    """Lint files/directories; returns findings ordered by (path, line)."""
    findings: list[Finding] = []
    root_path = Path(root) if root is not None else None
    for file_path in iter_python_files(paths):
        rel = _rel_path(file_path, root_path)
        try:
            tree = ast.parse(file_path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    "CX100",
                    f"cannot parse: {exc.msg}",
                    path=rel,
                    line=exc.lineno or 0,
                    pass_name=PASS_NAME,
                )
            )
            continue
        findings.extend(_FileLinter(rel, tree, config).run())
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


# -- CX106: behavioral spawn-safety probe --------------------------------------


def _wire_examples() -> dict[str, object]:
    """Representative instances of every type that crosses an mp queue.

    Built lazily (import cycles: analysis must stay importable without the
    whole runtime).  One example per class is enough: the probe checks the
    *mechanism* (``__reduce__``/dataclass pickling), not the data.
    """
    import numpy as np

    from repro.datalog.ast import Atom, Rule
    from repro.datalog.engine import EngineStats
    from repro.parallel.cluster import ClusterSpec
    from repro.parallel.messages import (
        Adopt,
        Deliver,
        EncodedBatch,
        Finish,
        Heartbeat,
        OutputMsg,
        Produced,
        Stop,
    )
    from repro.parallel.routing import DataPartitionRouter
    from repro.partitioning.base import HashOwner
    from repro.rdf.graph import Graph
    from repro.rdf.terms import BNode, Literal, URI, Variable
    from repro.rdf.triple import Triple

    s, p, o = URI("ex:s"), URI("ex:p"), URI("ex:o")
    triple = Triple(s, p, o)
    atom = Atom(Variable("x"), p, Variable("y"))
    rule = Rule("r", (Atom(Variable("x"), p, Variable("y")),), atom)
    ids = np.asarray([0, 1, 2], dtype=np.int64)
    return {
        # What every worker process receives: the whole spec, router
        # object (here an owner function with a salt) included.
        "repro.parallel.cluster.ClusterSpec": ClusterSpec.build(
            [Graph([triple])], [[rule]],
            DataPartitionRouter(HashOwner(1, salt=7))),
        "repro.rdf.terms.URI": s,
        "repro.rdf.terms.BNode": BNode("b0"),
        "repro.rdf.terms.Literal": Literal("v"),
        "repro.rdf.terms.Variable": Variable("x"),
        "repro.rdf.triple.Triple": triple,
        "repro.datalog.ast.Atom": atom,
        "repro.datalog.ast.Rule": rule,
        "repro.parallel.messages.EncodedBatch": EncodedBatch.make(
            0, 1, 0, [(0, 1, 2)], [(2, o)]
        ),
        "repro.parallel.messages.Heartbeat": Heartbeat(0, 0, 1),
        "repro.parallel.messages.Produced": Produced(0, 0, (), 1),
        "repro.parallel.messages.OutputMsg": OutputMsg(
            0, 0, ids, ids, ids, ((2, o),), EngineStats()),
        # Payloads are probed under their own class (EncodedBatch compares
        # by identity, which would mask Deliver's own round trip).
        "repro.parallel.messages.Deliver": Deliver(None),
        "repro.parallel.messages.Adopt": Adopt(0, 1),
        "repro.parallel.messages.Finish": Finish(),
        "repro.parallel.messages.Stop": Stop(),
    }


def check_spawn_safety(
    examples: dict[str, object] | None = None,
    equals: Callable[[object, object], bool] | None = None,
) -> list[Finding]:
    """CX106: every wire class must survive a pickle round-trip.

    This is exactly what ``spawn``-based multiprocessing does to every
    config, rule set, and batch; a class that fails here (e.g. after
    losing its ``__reduce__``) would crash — or worse, silently
    mis-rebuild — at the process boundary.
    """
    findings: list[Finding] = []
    items = examples if examples is not None else _wire_examples()
    for dotted, obj in sorted(items.items()):
        module_path = "/".join(dotted.split(".")[:-1]) + ".py"
        try:
            restored = pickle.loads(pickle.dumps(obj))
        except Exception as exc:  # noqa — any pickling failure is the finding
            findings.append(
                Finding(
                    "CX106",
                    f"{dotted} is not spawn-safe: pickle round-trip raised "
                    f"{type(exc).__name__}: {exc}",
                    path=module_path,
                    pass_name=PASS_NAME,
                )
            )
            continue
        same = equals(obj, restored) if equals is not None else _default_equal(
            obj, restored
        )
        if not same:
            findings.append(
                Finding(
                    "CX106",
                    f"{dotted} does not survive a pickle round-trip intact "
                    "(restored object differs) — spawn would corrupt it",
                    path=module_path,
                    pass_name=PASS_NAME,
                )
            )
    return findings


def _default_equal(obj: object, restored: object) -> bool:
    if type(obj) is not type(restored):
        return False
    try:
        if obj != restored:
            # Identity-compared classes (no __eq__) are fine as long as the
            # round trip reproduced the type; value classes must match.
            return type(obj).__eq__ is object.__eq__
    except Exception:
        return False
    try:
        if hash(obj) != hash(restored):
            return False
    except TypeError:
        pass  # unhashable wire payloads (EncodedBatch) are fine
    return True
