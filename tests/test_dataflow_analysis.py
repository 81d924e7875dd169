"""The ST300-series store-invariant verifier (repro.analysis.dataflow).

Two layers of coverage:

* **clean tree** — the live sources carry no findings, and the preflight /
  CLI surfaces include the pass;
* **drift injection** — every rule is proven to fire by feeding
  :func:`verify_stores` a mutated copy of the real module source (the
  ``sources`` override), re-introducing exactly the defect class the rule
  exists to catch.  These are the regression tests the issue asks for:
  deleting an invalidation, bumping nothing, writing tombstones off the
  blessed path, or renaming a spec'd method must turn the build red.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.dataflow import (
    STORE_SPECS,
    STRIPE_RULES,
    CacheRule,
    StateRule,
    StoreSpec,
    VersionRule,
    store_spec_table,
    verify_stores,
)
from repro.analysis.protocol import module_source

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "dataflow"


def codes(findings):
    return sorted({f.code for f in findings})


# -- the clean tree -----------------------------------------------------------


def test_live_tree_is_clean():
    assert verify_stores() == []


def test_every_spec_names_a_real_class():
    """ST305's own precondition: the spec'd modules and classes exist."""
    for spec in STORE_SPECS:
        assert spec.cls in module_source(spec.module)


# -- drift injection: ST300 (mutation without invalidation/bump) --------------


def test_st300_removed_cache_invalidation_is_caught():
    ids = module_source("repro.rdf.idstore")
    drifted = ids.replace(
        "        self._views.clear()\n        self._tail_views.clear()\n", ""
    )
    assert drifted != ids
    findings = verify_stores(sources={"repro.rdf.idstore": drifted})
    assert "ST300" in codes(findings)
    assert any("delete_rows" in f.message for f in findings)


def test_st300_removed_version_bump_is_caught():
    g = module_source("repro.rdf.graph")
    drifted = g.replace(
        "        self._size += 1\n        self._version += 1\n",
        "        self._size += 1\n",
        1,
    )
    assert drifted != g
    findings = verify_stores(sources={"repro.rdf.graph": drifted})
    assert "ST300" in codes(findings)
    assert any("_version" in f.message for f in findings)


# -- drift injection: ST301 (cache read without staleness guard) --------------


def test_st301_weakened_guard_is_caught():
    ids = module_source("repro.rdf.idstore")
    drifted = ids.replace(
        "if cached is None or cached[2] != self._n:", "if cached is None:"
    )
    assert drifted != ids
    findings = verify_stores(sources={"repro.rdf.idstore": drifted})
    assert "ST301" in codes(findings)


def test_st301_undeclared_cache_reader_is_caught():
    ids = module_source("repro.rdf.idstore")
    drifted = ids.replace(
        "    def memory_bytes",
        "    def peek(self):\n        return self._views\n\n"
        "    def memory_bytes",
        1,
    )
    assert drifted != ids
    findings = verify_stores(sources={"repro.rdf.idstore": drifted})
    assert "ST301" in codes(findings)
    assert any("peek" in f.message for f in findings)


# -- drift injection: ST302 (tombstone write off the blessed path) ------------


def test_st302_rogue_tombstone_write_is_caught():
    runs = module_source("repro.rdf.runstore")
    drifted = runs.replace(
        "    def _next_serial",
        "    def purge_hack(self, s, p, o):\n"
        "        self._tombs.add_rows(s, p, o)\n\n"
        "    def _next_serial",
        1,
    )
    assert drifted != runs
    findings = verify_stores(sources={"repro.rdf.runstore": drifted})
    assert "ST302" in codes(findings)
    assert any("purge_hack" in f.message for f in findings)


# -- drift injection: ST303 (stripe arithmetic outside the dictionary) --------


def test_st303_stripe_arithmetic_in_worker_is_caught():
    w = module_source("repro.parallel.worker")
    drifted = w + (
        "\n\ndef _mint(base_size, j, k, node_id):\n"
        "    return base_size + j * k + node_id\n"
    )
    findings = verify_stores(sources={"repro.parallel.worker": drifted})
    assert "ST303" in codes(findings)


def test_st303_blessed_minting_site_stays_clean():
    # The canonical site (PartitionDictionary.encode) is allowed.
    assert not [f for f in verify_stores() if f.code == "ST303"]
    assert any(r.allowed for r in STRIPE_RULES)


def test_st303_one_stripe_formula_in_the_parallel_runtime():
    # The cluster spec's node factory is the only place a worker's stripe
    # index (node + epoch*k) may be computed ...
    allowed = {q for r in STRIPE_RULES if r.module.startswith("repro.parallel.")
               for q in r.allowed}
    assert allowed == {"ClusterSpec.worker"}
    # ... so a second copy of the formula in an executor fails loudly.
    src = module_source("repro.parallel.async_backend")
    drifted = src + (
        "\n\ndef _replacement_stripe(node, epoch, k):\n"
        "    return node + epoch * k\n"
    )
    findings = verify_stores(sources={"repro.parallel.async_backend": drifted})
    assert "ST303" in codes(findings)
    assert any("_replacement_stripe" in f.message for f in findings)


# -- drift injection: ST304 (writes bypassing the mutation API) ---------------


def test_st304_direct_column_write_is_caught():
    ids = module_source("repro.rdf.idstore")
    drifted = ids.replace(
        "    def memory_bytes",
        "    def hack(self, v):\n        self._n = v\n\n"
        "    def memory_bytes",
        1,
    )
    assert drifted != ids
    findings = verify_stores(sources={"repro.rdf.idstore": drifted})
    assert "ST304" in codes(findings)
    assert any("hack" in f.message for f in findings)


def test_st304_foreign_write_from_consumer_is_caught():
    eng = module_source("repro.datalog.engine")
    drifted = eng + "\n\ndef _hack(store):\n    store._n = 0\n"
    findings = verify_stores(sources={"repro.datalog.engine": drifted})
    assert "ST304" in codes(findings)


# -- drift injection: ST305 (spec/source drift fails loudly) ------------------


def test_st305_renamed_method_fails_loudly():
    ids = module_source("repro.rdf.idstore")
    drifted = ids.replace("def add_rows", "def add_rows_v2")
    assert drifted != ids
    findings = verify_stores(sources={"repro.rdf.idstore": drifted})
    assert "ST305" in codes(findings)


def test_st305_unparseable_module_fails_loudly():
    findings = verify_stores(sources={"repro.rdf.idstore": "def broken(:\n"})
    assert codes(findings) == ["ST305"]


# -- fixture stores (files on disk, custom specs) -----------------------------


def _fixture_spec_nobump():
    return StoreSpec(
        module="tests.fixtures.dataflow.bad_store_nobump",
        cls="TinyStore",
        state=(StateRule("_rows", frozenset({"add", "remove"})),),
        versions=(VersionRule("_version", frozenset({"add", "remove"})),),
    )


def _fixture_spec_staleread():
    return StoreSpec(
        module="tests.fixtures.dataflow.bad_store_staleread",
        cls="TinyCachedStore",
        state=(StateRule("_rows", frozenset({"add"})),
               StateRule("_n", frozenset({"add"}))),
        caches=(CacheRule(
            attr="_view_cache",
            invalidators=frozenset({"add"}),
            readers=frozenset({"view"}),
            guard="_n",
            writers=frozenset({"add", "rebuild"}),
        ),),
    )


def _verify_fixture(spec, filename):
    src = (FIXTURES / filename).read_text(encoding="utf-8")
    return verify_stores(
        specs=(spec,), stripe_rules=(), sources={spec.module: src}
    )


def test_fixture_store_missing_bump_flags_st300():
    findings = _verify_fixture(_fixture_spec_nobump(), "bad_store_nobump.py")
    assert "ST300" in codes(findings)
    assert any("remove" in f.message and "_version" in f.message
               for f in findings)


def test_fixture_store_stale_read_flags_st301():
    findings = _verify_fixture(
        _fixture_spec_staleread(), "bad_store_staleread.py"
    )
    assert "ST301" in codes(findings)
    assert any("view" in f.message for f in findings)


# -- surfaces: spec table and the CLI -----------------------------------------


def test_store_spec_table_lists_every_store():
    table = store_spec_table()
    for spec in STORE_SPECS:
        assert spec.cls in table


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )


def test_cli_store_spec_flag():
    proc = _run_cli("--store-spec")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "IdGraph" in proc.stdout and "RunStore" in proc.stdout


def test_cli_runs_dataflow_pass():
    proc = _run_cli("--format=json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert "dataflow" in payload["passes"]
