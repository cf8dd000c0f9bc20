"""Tests for repro.analysis.convergence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.convergence import measure_convergence_rounds
from repro.core.protocols import SelfishUniformProtocol, SelfishWeightedProtocol
from repro.core.stopping import NashStop, PotentialThresholdStop
from repro.errors import ValidationError
from repro.graphs.generators import cycle_graph
from repro.model.state import UniformState, WeightedState
from repro.scenarios import ScenarioRunner


def state_factory(rng):
    counts = np.zeros(8, dtype=np.int64)
    counts[0] = 80
    return UniformState(counts, np.ones(8))


def weighted_state_factory(rng):
    locations = np.zeros(40, dtype=np.int64)
    weights = np.linspace(0.2, 1.0, 40)
    return WeightedState(locations, weights, np.ones(8))


class TestMeasureConvergenceRounds:
    def test_all_converge(self, ring8):
        measurement = measure_convergence_rounds(
            graph=ring8,
            protocol=SelfishUniformProtocol(),
            state_factory=state_factory,
            stopping=NashStop(),
            repetitions=4,
            max_rounds=50_000,
            seed=3,
        )
        assert measurement.all_converged
        assert measurement.num_converged == 4
        assert measurement.rounds.shape == (4,)
        assert measurement.repetition_rounds.shape == (4,)
        assert not np.isnan(measurement.repetition_rounds).any()
        np.testing.assert_array_equal(
            measurement.rounds, measurement.repetition_rounds.astype(np.int64)
        )
        assert measurement.summary is not None
        assert measurement.median_rounds > 0
        assert measurement.mean_rounds > 0

    def test_budget_too_small(self, ring8):
        measurement = measure_convergence_rounds(
            graph=ring8,
            protocol=SelfishUniformProtocol(),
            state_factory=state_factory,
            stopping=NashStop(),
            repetitions=3,
            max_rounds=1,
            seed=3,
        )
        assert measurement.num_converged == 0
        assert not measurement.all_converged
        assert measurement.repetition_rounds.shape == (3,)
        assert np.isnan(measurement.repetition_rounds).all()
        assert np.isnan(measurement.median_rounds)
        assert np.isnan(measurement.mean_rounds)

    def test_repetition_rounds_align_across_engines(self, ring8):
        """Per-repetition attribution matches between scalar and batch.

        The weighted kernels are pathwise identical across engines, so
        with the same seed both must report the same first-hitting round
        — and the same NaN slots — repetition by repetition, even when a
        tight budget leaves some repetitions unconverged.
        """

        def run(engine, max_rounds):
            return measure_convergence_rounds(
                graph=ring8,
                protocol=SelfishWeightedProtocol(),
                state_factory=weighted_state_factory,
                stopping=NashStop(),
                repetitions=6,
                max_rounds=max_rounds,
                seed=11,
                engine=engine,
            )

        generous = run("batch", 50_000)
        assert generous.all_converged
        # A budget strictly inside the observed range leaves a genuine
        # converged/unconverged mix to attribute.
        budget = int(np.median(generous.repetition_rounds))
        scalar = run("scalar", budget)
        batch = run("batch", budget)
        assert 0 < scalar.num_converged < scalar.num_repetitions
        np.testing.assert_array_equal(
            scalar.repetition_rounds, batch.repetition_rounds
        )
        converged = ~np.isnan(batch.repetition_rounds)
        np.testing.assert_array_equal(
            np.isnan(generous.repetition_rounds), np.zeros(6, dtype=bool)
        )
        np.testing.assert_array_equal(
            batch.repetition_rounds[converged],
            generous.repetition_rounds[converged],
        )

    def test_reproducible(self, ring8):
        def run():
            return measure_convergence_rounds(
                graph=ring8,
                protocol=SelfishUniformProtocol(),
                state_factory=state_factory,
                stopping=PotentialThresholdStop(500.0, "psi0"),
                repetitions=3,
                max_rounds=20_000,
                seed=8,
            ).rounds

        np.testing.assert_array_equal(run(), run())

    def test_state_factory_uses_rng(self, ring8):
        """Random starts differ across repetitions (factory receives rng)."""
        seen = []

        def factory(rng):
            counts = np.bincount(rng.integers(0, 8, size=80), minlength=8)
            seen.append(counts.copy())
            return UniformState(counts, np.ones(8))

        measure_convergence_rounds(
            graph=ring8,
            protocol=SelfishUniformProtocol(),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=3,
            max_rounds=10_000,
            seed=1,
        )
        assert len(seen) == 3
        assert not all(np.array_equal(seen[0], other) for other in seen[1:])

    def test_repetitions_validated(self, ring8):
        with pytest.raises(ValidationError):
            measure_convergence_rounds(
                graph=ring8,
                protocol=SelfishUniformProtocol(),
                state_factory=state_factory,
                stopping=NashStop(),
                repetitions=0,
                max_rounds=10,
            )


def ragged_state_factory(rng):
    """Per-repetition speed vectors: the states cannot stack."""
    counts = np.zeros(8, dtype=np.int64)
    counts[0] = 80
    return UniformState(counts, rng.uniform(1.0, 2.0, 8))


def _measure(factory, **kwargs):
    return measure_convergence_rounds(
        graph=cycle_graph(8),
        protocol=SelfishUniformProtocol(),
        state_factory=factory,
        stopping=NashStop(),
        max_rounds=10,
        seed=1,
        **kwargs,
    )


def _scenario_ensemble(factory, **kwargs):
    runner = ScenarioRunner(cycle_graph(8), SelfishUniformProtocol())
    return runner.run_ensemble(factory, rounds=5, seed=1, **kwargs)


class TestSharedEnsemblePlanner:
    """Both ensemble entry points refuse the same inputs with the same
    message: they share one planner."""

    @pytest.mark.parametrize(
        "factory, kwargs, message",
        [
            (state_factory, {"repetitions": 0}, "repetitions must be >= 1"),
            (
                state_factory,
                {"repetitions": 2, "engine": "scalar", "rng_policy": "counter"},
                "batch-engine stream layout",
            ),
            (
                state_factory,
                {"repetitions": 4, "replica_offset": -1},
                "replica_offset must be non-negative",
            ),
            (
                state_factory,
                {"repetitions": 4, "replica_count": 0},
                "replica_count must be >= 1",
            ),
            (
                state_factory,
                {"repetitions": 4, "replica_offset": 2, "replica_count": 3},
                r"exceeds repetitions=4",
            ),
            (
                ragged_state_factory,
                {"repetitions": 3, "engine": "batch"},
                "requires a batch-capable protocol",
            ),
        ],
    )
    def test_invalid_ensembles_share_one_refusal(self, factory, kwargs, message):
        errors = []
        for entry_point in (_measure, _scenario_ensemble):
            with pytest.raises(ValidationError, match=message) as excinfo:
                entry_point(factory, **kwargs)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
