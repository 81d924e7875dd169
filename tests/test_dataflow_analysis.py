"""The ST300-series store-invariant verifier (repro.analysis.dataflow).

Two layers of coverage:

* **clean tree** — the live sources carry no findings, and the CLI
  surface includes the pass;
* **drift injection** — every rule is proven to fire by feeding
  :func:`verify_stores` a mutated copy of the real module source (the
  ``sources`` override), re-introducing exactly the defect class the rule
  exists to catch: bumping nothing, bumping off the row set, keeping a
  hand-rolled staleness test, writing tombstones off the blessed path, or
  renaming a spec'd method must turn the build red.  Mutations no static
  rule can see — a deletion that is not marked as a rewrite, a weakened
  rebuild policy — are loaded as code and must fail a behavioural check
  against a Python set.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.dataflow import (
    STORE_SPECS,
    STRIPE_RULES,
    StateRule,
    StoreSpec,
    module_source,
    store_spec_table,
    verify_stores,
)
from repro.rdf.idstore import IdGraph

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


# -- drift injection: ST300 (a versioned store's bump discipline) -----------


def test_st300_removed_version_bump_is_caught():
    g = module_source("repro.rdf.graph")
    drifted = g.replace(
        "        self._size += 1\n        self._bump()\n",
        "        self._size += 1\n",
        1,
    )
    assert drifted != g
    findings = verify_stores(sources={"repro.rdf.graph": drifted})
    assert "ST300" in codes(findings)
    assert any("Graph.add" in f.message and "_bump" in f.message
               for f in findings)


def test_st300_bump_off_the_row_set_is_caught():
    # Seals keep the version: a bump there would miss every cache keyed on
    # it for nothing (and the serving tier's hit rate with it).
    runs = module_source("repro.rdf.runstore")
    drifted = runs.replace(
        "        self.seals += 1\n",
        "        self.seals += 1\n        self._bump()\n",
        1,
    )
    assert drifted != runs
    findings = verify_stores(sources={"repro.rdf.runstore": drifted})
    assert "ST300" in codes(findings)
    assert any("_seal" in f.message for f in findings)


def test_st300_direct_cache_read_is_caught():
    ids = module_source("repro.rdf.idstore")
    drifted = ids.replace(
        "    def memory_bytes",
        "    def peek(self):\n        return self._derived\n\n"
        "    def memory_bytes",
        1,
    )
    assert drifted != ids
    findings = verify_stores(sources={"repro.rdf.idstore": drifted})
    assert "ST300" in codes(findings)
    assert any("peek" in f.message for f in findings)


# -- drift injection: ST301 (the one cache outside a store) -------------------


def test_st301_undeclared_cache_reader_is_caught():
    server = module_source("repro.serving.server")
    drifted = server.replace(
        "    @property\n    def hit_rate",
        "    def peek(self):\n        return self._entries\n\n"
        "    @property\n    def hit_rate",
        1,
    )
    assert drifted != server
    findings = verify_stores(sources={"repro.serving.server": drifted})
    assert codes(findings) == ["ST301"]
    assert any("peek" in f.message for f in findings)


# -- mutations only behaviour can catch ----------------------------------------


def _mutant(module: str, old: str, new: str) -> types.ModuleType:
    """``module`` with one source edit, loaded as a fresh module."""
    source = module_source(module)
    drifted = source.replace(old, new, 1)
    assert drifted != source
    mod = types.ModuleType(module)
    exec(compile(drifted, f"<mutant {module}>", "exec"), mod.__dict__)
    return mod


def _store_disagrees(cls) -> bool:
    """Append, probe, delete, re-probe one store; True when any read
    disagrees with a Python set of the same rows."""
    rng = np.random.default_rng(7)
    store = cls(tail_threshold=64)
    model: set[tuple[int, int, int]] = set()

    def cols(rows):
        arr = np.asarray(sorted(rows), dtype=np.int64).reshape(-1, 3)
        return arr[:, 0], arr[:, 1], arr[:, 2]

    for step in range(1, 25):
        size = 60 if step == 1 else int(rng.integers(1, 20))
        batch = {tuple(int(x) for x in row)
                 for row in rng.integers(0, 40, size=(size, 3))}
        if step % 5 == 0:
            gone = set(sorted(model)[::3])
            store.delete_rows(*cols(gone))
            model -= gone
        else:
            store.add_rows(*cols(batch))
            model |= batch
        probe = sorted(model | batch)
        want = np.array([row in model for row in probe])
        if not np.array_equal(store.contains_rows(*cols(probe)), want):
            return True
        if step % 4 == 0:
            keys, _perm = store.sorted_view((0, 1, 2))
            if len(keys) != len(model):
                return True
    return False


def test_live_idgraph_agrees_with_the_set_model():
    assert not _store_disagrees(IdGraph)


def test_st300_removed_cache_invalidation_is_caught():
    # A deletion bumped as a plain append leaves the views alive across it.
    mod = _mutant("repro.rdf.idstore",
                  "self._bump(rewrite=True)", "self._bump()")
    assert _store_disagrees(mod.IdGraph)


WEAKENED_STALENESS = {
    # sorted_view serves a view that no longer covers every row.
    "coverage": ("repro.rdf.idstore",
                 "stale=lambda v: n - v[2] > max_tail", "stale=None"),
    # _cached stops comparing the version an entry was built at.
    "version": ("repro.rdf.versioned",
                "or not (across_appends or entry[0] == self._version)", ""),
}


@pytest.mark.parametrize("mutation", sorted(WEAKENED_STALENESS))
def test_weakened_staleness_check_is_caught(mutation):
    module, old, new = WEAKENED_STALENESS[mutation]
    mod = _mutant(module, old, new)
    if module == "repro.rdf.versioned":
        cls = type("MutantIdGraph", (IdGraph,),
                   {"__slots__": (), "_cached": mod.Versioned._cached})
    else:
        cls = mod.IdGraph
    assert _store_disagrees(cls)


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


def test_st305_store_that_is_not_versioned_fails_loudly():
    ids = module_source("repro.rdf.idstore")
    drifted = ids.replace("class IdGraph(Versioned):", "class IdGraph:")
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
        mutators=frozenset({"add", "remove"}),
    )


def _fixture_spec_staleread():
    return StoreSpec(
        module="tests.fixtures.dataflow.bad_store_staleread",
        cls="TinyCachedStore",
        state=(StateRule("_rows", frozenset({"add"})),
               StateRule("_view_cache", frozenset({"view"})),
               StateRule("_view_at", frozenset({"view"}))),
        mutators=frozenset({"add"}),
    )


def _verify_fixture(spec, filename):
    src = (FIXTURES / filename).read_text(encoding="utf-8")
    return verify_stores(
        specs=(spec,), stripe_rules=(), sources={spec.module: src}
    )


def test_fixture_store_missing_bump_flags_st300():
    findings = _verify_fixture(_fixture_spec_nobump(), "bad_store_nobump.py")
    assert codes(findings) == ["ST300"]
    assert any("remove" in f.message and "_bump" in f.message
               for f in findings)


def test_fixture_store_stale_read_flags_st300():
    findings = _verify_fixture(
        _fixture_spec_staleread(), "bad_store_staleread.py"
    )
    assert codes(findings) == ["ST300"]
    assert any("view" in f.message and "_version" in f.message
               for f in findings)


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
