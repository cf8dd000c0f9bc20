"""Tests for the experiment registry, reporting, and CLI plumbing."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.registry import (
    ExperimentResult,
    available_experiments,
    get_experiment,
    register_experiment,
    run_experiment,
)
from repro.experiments.reporting import render_result, result_to_markdown
from repro.utils.tables import Table


EXPECTED_IDS = {
    "table1-approx",
    "table1-exact",
    "table1-weighted",
    "thm11",
    "thm12",
    "thm13",
    "potential-drop",
    "decay",
    "spectral-bounds",
    "baselines",
    "weighted-variants",
    "equilibrium-quality",
    "robustness",
    "scenarios-churn-shock",
    "topology-failures",
    "workloads-traffic",
}


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(available_experiments()) == EXPECTED_IDS

    def test_get_unknown_raises(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_experiment("no-such-experiment")

    def test_get_returns_callable(self):
        runner = get_experiment("spectral-bounds")
        assert callable(runner)

    def test_double_registration_rejected(self):
        with pytest.raises(ExperimentError):

            @register_experiment("spectral-bounds")
            def duplicate(quick, seed):  # pragma: no cover
                raise AssertionError


class TestWorkersForwarding:
    """``workers`` must never be dropped silently (PR 4 satellite)."""

    def _temporary_experiment(self, runner, uses=()):
        experiment_id = "_test-workers-forwarding"
        register_experiment(experiment_id, uses=uses)(runner)
        return experiment_id

    def _cleanup(self, experiment_id):
        from repro.experiments import registry

        registry._REGISTRY.pop(experiment_id, None)

    def test_serial_fallback_warns(self):
        def runner(quick, seed):
            return ExperimentResult(experiment_id="w", title="w")

        experiment_id = self._temporary_experiment(runner)
        try:
            with pytest.warns(RuntimeWarning, match="does not support parallel"):
                run_experiment(experiment_id, workers=2)
        finally:
            self._cleanup(experiment_id)

    def test_workers_one_stays_silent(self):
        """workers=1 is the serial reference either way — no warning."""
        import warnings

        def runner(quick, seed):
            return ExperimentResult(experiment_id="w", title="w")

        experiment_id = self._temporary_experiment(runner)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                run_experiment(experiment_id, workers=1)
        finally:
            self._cleanup(experiment_id)

    def test_workers_forwarded_when_declared(self):
        seen = {}

        def runner(quick, seed, config):
            seen["workers"] = config.workers
            return ExperimentResult(experiment_id="w", title="w")

        experiment_id = self._temporary_experiment(runner, uses=("workers",))
        try:
            run_experiment(experiment_id, workers=3)
        finally:
            self._cleanup(experiment_id)
        assert seen["workers"] == 3


class TestReporting:
    def make_result(self, passed=True):
        table = Table(headers=["a"], title="t")
        table.add_row([1])
        return ExperimentResult(
            experiment_id="demo",
            title="Demo experiment",
            tables=[table],
            notes=["a note"],
            passed=passed,
            data={"x": 1},
        )

    def test_render_result(self):
        text = render_result(self.make_result())
        assert "demo" in text
        assert "Demo experiment" in text
        assert "a note" in text
        assert "PASS" in text

    def test_render_fail_verdict(self):
        assert "FAIL" in render_result(self.make_result(passed=False))

    def test_markdown_section(self):
        markdown = result_to_markdown(self.make_result())
        assert markdown.startswith("### `demo`")
        assert "**Verdict:** PASS" in markdown
        assert "| a |" in markdown


class TestCli:
    def test_list_command(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPECTED_IDS:
            assert experiment_id in out

    def test_run_command_json_and_markdown(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        markdown_path = tmp_path / "report.md"
        json_path = tmp_path / "data.json"
        code = main(
            [
                "run",
                "spectral-bounds",
                "--markdown",
                str(markdown_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        assert "spectral-bounds" in capsys.readouterr().out
        assert markdown_path.exists()
        assert "spectral-bounds" in markdown_path.read_text()
        assert json_path.exists()

    def test_csv_series_export(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        csv_dir = tmp_path / "series"
        code = main(["run", "robustness", "--csv", str(csv_dir)])
        assert code == 0
        capsys.readouterr()
        files = list(csv_dir.glob("*.csv"))
        assert files, "robustness should export its churn band series"
        header = files[0].read_text().splitlines()[0]
        assert "round" in header


class TestRunExperimentSmoke:
    """Fast experiments run end-to-end through the registry."""

    @pytest.mark.parametrize(
        "experiment_id", ["spectral-bounds", "potential-drop", "weighted-variants"]
    )
    def test_quick_run_passes(self, experiment_id):
        result = run_experiment(experiment_id, quick=True)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert result.passed, result.notes
        assert result.tables
