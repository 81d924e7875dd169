"""Tier-1 tests for the static-analysis subsystem (repro.analysis).

Three layers:

* fixture tests — each linter rule against a fixture file with a known,
  exact set of findings (tests/fixtures/lint/);
* self-application — the repo's own tree must come back clean, and
  deliberately re-introducing each PR-3 bug class (untimed ``Queue.get``
  in ``parallel/``, a stripped ``Atom.__reduce__``) must make the
  corresponding pass fail; the async protocol's bug classes (a deleted
  message handler, a dropped stale-epoch guard, a ledger call off its
  path) are applied to the coordinator and must make a schedule of the
  explorer fail;
* the rule gate on the run path — every data-partitioned ``materialize*``
  call rejects a non-partitionable rule set with atom-level diagnostics
  (the static passes themselves run here and in ``python -m
  repro.analysis``, never on the run path).
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    AllowlistError,
    AnalysisReport,
    Finding,
    LintConfig,
    check_data_partitionable,
    check_spawn_safety,
    lint_paths,
    parse_allowlist,
    run_all,
)
from repro.datalog.parser import parse_rules
from repro.owl.vocabulary import RDF, RDFS
from repro.parallel import Coordinator, WorkerHost, messages
from repro.parallel.driver import ParallelReasoner
from repro.rdf import Graph, Triple, URI

from tests.helpers import explore, explorer_case, mutant

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

#: Scope the path-gated rules (CX104/CX105) onto the fixture directory.
FIXTURE_CONFIG = LintConfig(
    spawn_scope=("fixtures/lint/",), seeded_scope=("fixtures/lint/",)
)

MULTI_JOIN_RULES = """@prefix ex: <ex:>
[bad: (?a ex:p ?b) (?c ex:q ?d) (?e ex:r ?f) -> (?a ex:p ?f)]"""


def lint_fixture(name: str) -> list[Finding]:
    return lint_paths([FIXTURES / name], FIXTURE_CONFIG, root=REPO_ROOT)


def codes(findings) -> list[str]:
    return sorted(f.code for f in findings)


# -- linter fixtures (exact counts and codes) ---------------------------------


def test_fixture_bad_blocking():
    assert codes(lint_fixture("bad_blocking.py")) == ["CX101"] * 3


def test_fixture_bad_except():
    assert codes(lint_fixture("bad_except.py")) == ["CX102", "CX102", "CX103", "CX103"]


def test_fixture_bad_module_state():
    findings = lint_fixture("bad_module_state.py")
    assert codes(findings) == ["CX104"] * 3
    # Dunders (__all__) and immutable constants must not be flagged.
    assert not any("FROZEN" in f.message or "__all__" in f.message for f in findings)


def test_fixture_bad_random():
    assert codes(lint_fixture("bad_random.py")) == ["CX105"] * 4


def test_fixture_good_parallel_is_clean():
    assert lint_fixture("good_parallel.py") == []


def test_scope_gated_rules_silent_outside_scope():
    # Under the default config the fixture paths are outside
    # spawn_scope/seeded_scope, so CX104/CX105 must not fire.
    findings = lint_paths(
        [FIXTURES / "bad_module_state.py", FIXTURES / "bad_random.py"],
        root=REPO_ROOT,
    )
    assert findings == []


def test_syntax_error_is_a_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    assert codes(lint_paths([bad])) == ["CX100"]


# -- self-application and deliberate regressions ------------------------------


def test_repo_tree_is_clean():
    report = run_all()
    assert report.ok, report.format_text()
    assert report.findings == []


def test_reintroduced_untimed_queue_get_is_caught(tmp_path):
    mod = tmp_path / "repro" / "parallel" / "spool.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("def drain(inbox):\n    return inbox.get()\n")
    assert codes(lint_paths([mod], root=tmp_path)) == ["CX101"]


# The async protocol's bug classes are caught by running it: each
# deliberate regression below is applied to the coordinator module's
# source, and the schedule explorer (tests/helpers.py) must find a
# schedule that goes wrong.


def _caught(*edits):
    """Does the explorer find a failing schedule of the mutant?"""
    spec, oracle = explorer_case("lubm", "data", 3)
    return explore(spec, oracle, bound=1, seeds=2, protocol=mutant(*edits),
                   first=True) != []


def test_removed_finish_handler_is_caught():
    assert _caught(("isinstance(msg, Finish)", "isinstance(msg, Adopt)"))


def test_removed_stale_epoch_guard_is_caught():
    # The Produced path's guard (the first one in the module).
    assert _caught((
        "        if self._stale(msg):\n            return []\n"
        "        commands = self.relay",
        "        commands = self.relay",
    ))
    # ... and the shared predicate, both guards at once.
    assert _caught(("return msg.epoch < self.epoch[msg.node_id]",
                    "return False"))


_LEDGER_MUTATIONS = {
    "record_forward doubled on the relay path": (
        "            self.det.record_forward(batch.dest)\n",
        "            self.det.record_forward(batch.dest)\n"
        "            self.det.record_forward(batch.dest)\n"),
    "record_forward off the replay path": (
        "                self.det.record_forward(node)\n", ""),
    "record_ack off the produced path": (
        "        self.det.record_ack(msg.node_id, msg.consumed)\n", ""),
    "reset_node off the recovery path": (
        "            self.det.reset_node(node)\n", ""),
    "mark_bootstrapped off the produced path": (
        "        self.det.mark_bootstrapped(msg.node_id)\n", ""),
}


def test_rogue_ledger_mutation_is_caught():
    missed = [name for name, edit in _LEDGER_MUTATIONS.items()
              if not _caught(edit)]
    assert missed == []


def test_missing_handler_function_is_caught():
    # Every message class the worker host handles is load-bearing.
    for cls in ("Deliver", "Adopt", "Finish", "Stop"):
        assert _caught((f"isinstance(msg, {cls})", "False")), cls
    # ... and so is each one the coordinator dispatches.
    for cls in ("Produced", "OutputMsg"):
        assert _caught((f"if isinstance(msg, {cls})", "if False")), cls


def test_deleted_atom_reduce_fails_spawn_safety(monkeypatch):
    from repro.datalog.ast import Atom

    monkeypatch.delattr(Atom, "__reduce__")
    findings = check_spawn_safety()
    assert any(f.code == "CX106" and "Atom" in f.message for f in findings)


def test_spawn_safety_clean_on_real_wire_classes():
    assert check_spawn_safety() == []


def test_registry_covers_every_control_message():
    """Every control message of :mod:`repro.parallel.messages` has exactly
    one receiver: the worker host, the coordinator, or (Heartbeat) the
    supervisor's wait, which absorbs it."""
    spec, _ = explorer_case("lubm", "data", 2)
    to_host = (messages.Adopt(0, 0), messages.Finish(), messages.Stop())
    host = WorkerHost(spec)
    replies = [r for msg in to_host for r in host.handle(msg)]
    assert {type(r) for r in replies} == {messages.Produced, messages.OutputMsg}
    coord = Coordinator(spec)
    for reply in replies:
        coord.handle(reply)
        with pytest.raises(TypeError):
            WorkerHost(spec).handle(reply)
    for msg in to_host + (messages.Heartbeat(0, 0, 0),):
        with pytest.raises(TypeError):
            coord.handle(msg)
    with pytest.raises(TypeError):
        host.handle(messages.Heartbeat(0, 0, 0))


# -- allowlist ----------------------------------------------------------------


def test_allowlist_requires_justification():
    with pytest.raises(AllowlistError, match="justification"):
        parse_allowlist("CX101 src/x.py\n")


def test_allowlist_rejects_malformed_head():
    with pytest.raises(AllowlistError, match="expected"):
        parse_allowlist("CX101 -- why\n")


def test_allowlist_suppresses_and_audits():
    entries = parse_allowlist("# header\nCX102  */bad_except.py  -- fixture\n")
    report = AnalysisReport()
    report.extend(lint_fixture("bad_except.py"), entries)
    assert codes(report.findings) == ["CX103", "CX103"]
    assert [f.code for f, _e in report.suppressed] == ["CX102", "CX102"]
    # Suppressions stay visible in the artifact.
    assert report.to_dict()["suppressed"][0]["justification"] == "fixture"


# -- the rule gate on the run path ------------------------------------------


def test_rule_gate_rejects_multi_join_rules():
    with pytest.raises(ValueError) as exc_info:
        check_data_partitionable(parse_rules(MULTI_JOIN_RULES))
    # The diagnostic names the offending atoms, not just the rule.
    assert "ex:q" in str(exc_info.value)
    assert "multi-join" in str(exc_info.value)


def _tiny_kb():
    tbox = Graph([Triple(URI("ex:Student"), RDFS.subClassOf, URI("ex:Person"))])
    data = Graph([Triple(URI("ex:alice"), RDF.type, URI("ex:Student"))])
    return tbox, data


def _swap_in_multi_join_rules(pr):
    """Add a multi-join rule behind the constructor's gate."""
    pr.compiled = dataclasses.replace(
        pr.compiled,
        rules=[*pr.compiled.rules, *parse_rules(MULTI_JOIN_RULES)])


def test_materialize_passes_on_clean_setup():
    tbox, data = _tiny_kb()
    result = ParallelReasoner(tbox, k=2).materialize(data)
    assert Triple(URI("ex:alice"), RDF.type, URI("ex:Person")) in result.graph


def test_materialize_strict_rejects_swapped_rule_set():
    # The constructor's gate saw a clean rule set; every run re-checks the
    # *current* one, so post-construction drift is caught at run time.
    tbox, data = _tiny_kb()
    pr = ParallelReasoner(tbox, k=2)
    _swap_in_multi_join_rules(pr)
    with pytest.raises(ValueError, match="multi-join"):
        pr.materialize(data)


def test_materialize_async_rejects_swapped_rule_set():
    tbox, data = _tiny_kb()
    pr = ParallelReasoner(tbox, k=2)
    _swap_in_multi_join_rules(pr)
    with pytest.raises(ValueError, match="multi-join"):
        pr.materialize_async(data)


def test_rule_approach_tolerates_multi_join():
    # Rule partitioning replicates the data, so the gate does not apply.
    tbox, data = _tiny_kb()
    pr = ParallelReasoner(tbox, k=2, approach="rule")
    _swap_in_multi_join_rules(pr)
    assert len(pr.materialize(data).graph) >= len(data)


# -- the CLI ------------------------------------------------------------------


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )


def test_cli_clean_tree_exits_zero():
    proc = _run_cli("--format=json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["passes"] == ["lint", "dataflow"]


def test_cli_findings_exit_nonzero_and_report_file(tmp_path):
    out = tmp_path / "report.json"
    proc = _run_cli(
        "tests/fixtures/lint/bad_except.py",
        "--format=json",
        f"--output={out}",
        "--root",
        str(REPO_ROOT),
    )
    assert proc.returncode == 1
    payload = json.loads(out.read_text())
    assert payload["ok"] is False
    assert payload["counts"]["CX102"] == 2
