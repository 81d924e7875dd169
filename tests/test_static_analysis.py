"""Tier-1 tests for the static-analysis subsystem (repro.analysis).

Three layers:

* fixture tests — each linter rule against a fixture file with a known,
  exact set of findings (tests/fixtures/lint/);
* self-application — the repo's own tree must come back clean, and
  deliberately re-introducing each PR-3 bug class (untimed ``Queue.get``
  in ``parallel/``, a deleted message handler, a stripped
  ``Atom.__reduce__``) must make the corresponding pass fail;
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
    ASYNC_PROTOCOL,
    AllowlistError,
    AnalysisReport,
    Finding,
    HandlerSpec,
    LintConfig,
    MessageSpec,
    ProtocolSpec,
    check_data_partitionable,
    check_spawn_safety,
    lint_paths,
    parse_allowlist,
    run_all,
    spec_table,
    verify_protocol,
)
from repro.analysis.protocol import module_source
from repro.datalog.parser import parse_rules
from repro.owl.vocabulary import RDF, RDFS
from repro.parallel import messages
from repro.parallel.driver import ParallelReasoner
from repro.rdf import Graph, Triple, URI

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

#: Scope the path-gated rules (CX104/CX105) onto the fixture directory.
FIXTURE_CONFIG = LintConfig(
    spawn_scope=("fixtures/lint/",), seeded_scope=("fixtures/lint/",)
)

_ASYNC = "repro.parallel.async_backend"

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


def test_protocol_clean_against_installed_sources():
    assert verify_protocol() == []


def test_removed_finish_handler_is_caught():
    source = module_source(_ASYNC).replace(
        "isinstance(msg, Finish)", "isinstance(msg, Adopt)"
    )
    findings = verify_protocol(sources={_ASYNC: source})
    assert any(f.code == "PROTO010" and "Finish" in f.message for f in findings)


def test_removed_stale_epoch_guard_is_caught():
    source = module_source(_ASYNC).replace(
        "msg.epoch < epoch[msg.node_id]", "msg.node_id < 0", 1
    )
    findings = verify_protocol(sources={_ASYNC: source})
    assert any(f.code == "PROTO020" and "Produced" in f.message for f in findings)


def test_rogue_ledger_mutation_is_caught():
    source = module_source(_ASYNC) + "\n\ndef rogue(det):\n    det.record_ack(0, 0)\n"
    findings = verify_protocol(sources={_ASYNC: source})
    assert any(f.code == "PROTO030" and "record_ack" in f.message for f in findings)


def test_renamed_accounted_path_is_spec_drift():
    source = module_source(_ASYNC).replace("def relay(", "def relay2(").replace(
        "relay(batch)", "relay2(batch)"
    )
    findings = verify_protocol(sources={_ASYNC: source})
    assert any(f.code == "PROTO031" and "relay" in f.message for f in findings)


def test_registry_spec_drift_both_directions():
    # A spec message the registry does not know -> PROTO001.
    spec = ProtocolSpec(
        messages=ASYNC_PROTOCOL.messages + (MessageSpec("Ping", "master->worker"),),
        handlers=(),
        ledger=(),
    )
    assert "PROTO001" in codes(verify_protocol(spec))
    # A registered control message the spec does not know -> PROTO002.
    spec = ProtocolSpec(
        messages=tuple(m for m in ASYNC_PROTOCOL.messages if m.name != "Heartbeat"),
        handlers=(),
        ledger=(),
    )
    assert "PROTO002" in codes(verify_protocol(spec))


def test_unstamped_message_marked_epoch_stamped_is_caught():
    spec = ProtocolSpec(
        messages=(MessageSpec("Deliver", "master->worker", epoch_stamped=True),),
        handlers=(),
        ledger=(),
    )
    findings = [f for f in verify_protocol(spec) if f.code == "PROTO003"]
    assert len(findings) == 1
    assert "node_id" in findings[0].message and "epoch" in findings[0].message


def test_missing_handler_function_is_caught():
    spec = ProtocolSpec(
        messages=ASYNC_PROTOCOL.messages,
        handlers=(
            HandlerSpec(module=_ASYNC, function="no_such_loop", role="worker"),
        ),
        ledger=(),
    )
    assert "PROTO031" in codes(verify_protocol(spec))


def test_deleted_atom_reduce_fails_spawn_safety(monkeypatch):
    from repro.datalog.ast import Atom

    monkeypatch.delattr(Atom, "__reduce__")
    findings = check_spawn_safety()
    assert any(f.code == "CX106" and "Atom" in f.message for f in findings)


def test_spawn_safety_clean_on_real_wire_classes():
    assert check_spawn_safety() == []


def test_registry_covers_every_control_message():
    names = {cls.__name__ for cls in messages.CONTROL_MESSAGES}
    assert names == ASYNC_PROTOCOL.message_names()


def test_spec_table_lists_every_message():
    table = spec_table()
    for name in ASYNC_PROTOCOL.message_names():
        assert name in table


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
    assert payload["passes"] == ["protocol", "lint", "dataflow"]


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


def test_cli_spec_prints_protocol_table():
    proc = _run_cli("--spec")
    assert proc.returncode == 0
    assert "| Deliver | master->worker |" in proc.stdout
