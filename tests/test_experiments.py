"""Tests of the experiment harness at tiny scale: every table/figure module
runs, produces well-formed rows, and satisfies its paper-shape assertions
where those are stable at tiny sizes."""

import pytest

from repro.experiments import EXPERIMENTS, SCALES, build_dataset
from repro.experiments.common import ExperimentResult


@pytest.fixture(scope="module")
def tiny_results():
    """Run each experiment once at tiny scale (cached for all tests)."""
    return {name: run(scale="tiny") for name, run in EXPERIMENTS.items()}


class TestHarness:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1",
            "ablations", "queries",
        }

    @pytest.mark.parametrize("name", sorted(
        ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1",
         "ablations", "queries"]
    ))
    def test_result_well_formed(self, tiny_results, name):
        result = tiny_results[name]
        assert isinstance(result, ExperimentResult)
        assert result.rows, f"{name} produced no rows"
        for row in result.rows:
            assert len(row) == len(result.headers)
        rendered = result.render()
        assert result.headers[0] in rendered
        csv = result.to_csv()
        assert csv.count("\n") == len(result.rows)

    def test_build_dataset_names(self):
        scale = SCALES["tiny"]
        for name in ("lubm", "uobm", "mdc"):
            ds = build_dataset(name, scale)
            assert len(ds.data) > 0
        with pytest.raises(ValueError):
            build_dataset("nope", scale)


class TestShapes:
    def test_fig1_mdc_beats_uobm(self, tiny_results):
        result = tiny_results["fig1"]
        by = {(r[0].split("-")[0], r[1]): r for r in result.rows}
        k = max(r[1] for r in result.rows)
        mdc_work = by[("MDC", k)][5]
        uobm_work = by[("UOBM", k)][5]
        assert mdc_work > uobm_work

    def test_fig2_reasoning_decreases(self, tiny_results):
        # On the deterministic per-node max work, not wall-clock seconds:
        # the tiny run's reasoning column is milliseconds and flaked.
        result = tiny_results["fig2"]
        work = result.column("work")
        assert work[-1] < work[0]

    def test_fig3_measured_below_theory(self, tiny_results):
        result = tiny_results["fig3"]
        for row in result.rows:
            k, work_measured, work_theory = row[0], row[4], row[5]
            if k == 1:
                continue
            assert work_measured <= work_theory * 1.1

    def test_fig4_good_fit(self, tiny_results):
        result = tiny_results["fig4"]
        # R² is embedded in the notes; reparse.
        note = next(n for n in result.notes if n.startswith("work model"))
        r2 = float(note.split("R² = ")[1].rstrip(")"))
        assert r2 > 0.99

    def test_fig5_hash_worst(self, tiny_results):
        result = tiny_results["fig5"]
        k = max(r[1] for r in result.rows)
        ir = {r[0]: r[3] for r in result.rows if r[1] == k}
        assert ir["hash"] > ir["graph"]
        assert ir["hash"] > ir["domain"]

    def test_fig6_subset_gains(self, tiny_results):
        result = tiny_results["fig6"]
        k_max = max(r[1] for r in result.rows)
        for row in result.rows:
            if row[1] == k_max:
                assert row[5] >= 1.0  # work_speedup

    def test_table1_hash_replicates_most(self, tiny_results):
        result = tiny_results["table1"]
        for k in {r[0] for r in result.rows}:
            ir = {r[1]: r[4] for r in result.rows if r[0] == k}
            assert ir["hash"] > ir["graph"]

    def test_ablations_expected_orderings(self, tiny_results):
        result = tiny_results["ablations"]

        def value(dimension, variant_prefix):
            return next(
                r[3]
                for r in result.rows
                if r[0] == dimension and str(r[1]).startswith(variant_prefix)
            )

        assert value("comm", "file-ipc") > value("comm", "mpi") >= value(
            "comm", "shared-memory"
        )
        assert value("rounds", "async") <= value("rounds", "sync") + 1e-9
        assert value("routing", "owner-table") < value("routing", "broadcast")
        assert value("strategy", "backward") > 10 * value("strategy", "forward")


class TestCLI:
    def test_cli_runs_one_experiment(self, capsys):
        from repro.experiments.cli import main

        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_cli_writes_csv(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = tmp_path / "out.csv"
        assert main(["table1", "--scale", "tiny", "--csv", str(path)]) == 0
        content = path.read_text()
        assert content.startswith("k,policy")
