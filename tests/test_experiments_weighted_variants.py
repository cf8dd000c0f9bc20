"""The weighted-variants notes must agree with the experiment's verdict."""

from __future__ import annotations

from repro.experiments import weighted_variants
from repro.experiments._common import WEIGHTED_VARIANT_LABELS, VariantMeasurement
from repro.experiments.executor import ExecutionReport


def _measurement(variant: str, num_converged: int = 3) -> VariantMeasurement:
    return VariantMeasurement(
        variant=variant,
        label=WEIGHTED_VARIANT_LABELS[variant],
        median_rounds=100.0 if num_converged == 3 else float("nan"),
        num_converged=num_converged,
        num_repetitions=3,
        engine="batch",
        probe_converged=True,
        churn_per_round=0.5 if variant == "per-task" else 0.0,
        still_threshold_nash=True,
    )


def _run_with(monkeypatch, measurements):
    def fake_execute(specs, workers=None):
        return ExecutionReport(results=tuple(measurements), timings=())

    monkeypatch.setattr(weighted_variants, "execute_cells_report", fake_execute)
    return weighted_variants.run_weighted_variants(quick=True, seed=5)


def test_missed_budget_is_named_and_convergence_not_claimed(monkeypatch):
    result = _run_with(
        monkeypatch,
        [
            _measurement("flow"),
            _measurement("pseudocode", num_converged=2),
            _measurement("per-task"),
        ],
    )
    assert not result.passed
    notes = " ".join(result.notes)
    assert "reach the threshold state" not in notes
    assert (
        f"WARNING: {WEIGHTED_VARIANT_LABELS['pseudocode']} missed its "
        "30,000-round budget in 1 of 3 repetitions." in result.notes
    )
    assert WEIGHTED_VARIANT_LABELS["flow"] + " missed" not in notes


def test_convergence_claimed_when_every_rule_converged(monkeypatch):
    result = _run_with(
        monkeypatch,
        [_measurement("flow"), _measurement("pseudocode"), _measurement("per-task")],
    )
    assert result.passed
    assert any("reach the threshold state" in note for note in result.notes)
    assert not any("missed" in note for note in result.notes)
