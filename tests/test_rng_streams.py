"""Counter stream layout: pipeline-level contracts (PR 5 tentpole).

The ``rng_policy="counter"`` layout must match the scalar reference *in
law* (KS over first-hitting rounds), be same-seed deterministic, and —
for the static weighted cells, whose draw sites consume a fixed number
of uniforms per replica per round — stay resize prefix-stable. The
spawned layout's bit-identity contracts are covered by the existing
engine suites; this module pins the counter layout's own guarantees plus
the routing/validation rules that keep the two policies from being
silently mixed up.

``TestPolicyMatrix`` runs the measurement pipeline under whichever
policy the pytest invocation selects (``--rng-policy``, default
spawned); CI runs the fast tier once per policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.convergence import measure_convergence_rounds
from repro.core.protocols import (
    PerTaskThresholdProtocol,
    SelfishUniformProtocol,
    SelfishWeightedProtocol,
)
from repro.core.stopping import NashStop, PotentialThresholdStop
from repro.errors import ValidationError
from repro.experiments import RunConfig
from repro.experiments._common import measure_weighted_threshold_time
from repro.experiments.scenario_cells import measure_scenario_recovery
from repro.graphs.generators import cycle_graph, star_graph, torus_graph
from repro.model.batch import BatchUniformState, BatchWeightedState
from repro.model.placement import adversarial_placement, place_weighted_random
from repro.model.speeds import two_class_speeds, uniform_speeds
from repro.model.state import UniformState, WeightedState
from repro.model.tasks import two_class_weights
from repro.spectral.eigen import algebraic_connectivity
from repro.theory.constants import psi_critical
from repro.utils.rng import CounterStreams, spawn_rngs

from tests.equivalence import (
    assert_batch_conserves,
    assert_counter_matches_scalar_law,
    assert_prefix_stability,
    assert_same_seed_determinism,
)


def _weighted_cell(n: int = 8, m_per_n: int = 8):
    graph = cycle_graph(n)
    m = m_per_n * n
    speeds = two_class_speeds(n, fast_fraction=0.25, fast_speed=2.0)
    weights = two_class_weights(m, heavy_fraction=0.1, heavy=1.0, light=0.1)

    def factory(rng: np.random.Generator) -> WeightedState:
        return WeightedState(place_weighted_random(m, n, rng), weights, speeds)

    return graph, factory


def _uniform_cell():
    graph = torus_graph(3)
    n = graph.num_vertices
    m = 8 * n * n
    speeds = uniform_speeds(n)
    lambda2 = algebraic_connectivity(graph)
    threshold = 4.0 * psi_critical(n, graph.max_degree, lambda2, 1.0)

    def factory(rng: np.random.Generator) -> UniformState:
        return UniformState(adversarial_placement(speeds, m), speeds)

    return graph, factory, PotentialThresholdStop(threshold, "psi0")


class TestCounterLawAgreement:
    @pytest.mark.slow
    def test_weighted_first_hits_match_scalar(self):
        graph, factory = _weighted_cell()
        assert_counter_matches_scalar_law(
            graph=graph,
            protocol=SelfishWeightedProtocol(),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=200,
            max_rounds=50_000,
            seed=42,
        )

    @pytest.mark.slow
    def test_per_task_first_hits_match_scalar(self):
        graph, factory = _weighted_cell()
        assert_counter_matches_scalar_law(
            graph=graph,
            protocol=PerTaskThresholdProtocol(),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=200,
            max_rounds=50_000,
            seed=42,
        )

    @pytest.mark.slow
    def test_uniform_first_hits_match_scalar(self):
        graph, factory, stopping = _uniform_cell()
        assert_counter_matches_scalar_law(
            graph=graph,
            protocol=SelfishUniformProtocol(),
            state_factory=factory,
            stopping=stopping,
            repetitions=200,
            max_rounds=20_000,
            seed=42,
        )

    def test_weighted_quick_agreement(self):
        """A fast (60-rep) KS sanity check kept in the fast tier."""
        graph, factory = _weighted_cell()
        assert_counter_matches_scalar_law(
            graph=graph,
            protocol=SelfishWeightedProtocol(),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=60,
            max_rounds=50_000,
            seed=42,
        )


class TestCounterDeterminism:
    def test_weighted_same_seed_bit_identical(self):
        graph, factory = _weighted_cell()

        def run():
            measurement = measure_convergence_rounds(
                graph=graph,
                protocol=SelfishWeightedProtocol(),
                state_factory=factory,
                stopping=NashStop(),
                repetitions=12,
                max_rounds=50_000,
                seed=7,
                engine="batch",
                rng_policy="counter",
            )
            return (measurement.repetition_rounds,)

        assert_same_seed_determinism(run)

    def test_uniform_same_seed_bit_identical(self):
        graph, factory, stopping = _uniform_cell()

        def run():
            measurement = measure_convergence_rounds(
                graph=graph,
                protocol=SelfishUniformProtocol(),
                state_factory=factory,
                stopping=stopping,
                repetitions=12,
                max_rounds=20_000,
                seed=7,
                engine="batch",
                rng_policy="counter",
            )
            return (measurement.repetition_rounds,)

        assert_same_seed_determinism(run)

    def test_weighted_resize_prefix_stable(self):
        """Counter streams are replica-indexed (Philox counter rows), so
        growing a static weighted ensemble must not perturb the prefix."""
        graph, factory = _weighted_cell()

        def run(repetitions: int):
            measurement = measure_convergence_rounds(
                graph=graph,
                protocol=SelfishWeightedProtocol(),
                state_factory=factory,
                stopping=NashStop(),
                repetitions=repetitions,
                max_rounds=50_000,
                seed=7,
                engine="batch",
                rng_policy="counter",
            )
            return (measurement.repetition_rounds,)

        assert_prefix_stability(run, small=6, large=14)


class TestCounterKernelInvariants:
    def test_weighted_conservation_with_retirement(self):
        graph, factory = _weighted_cell()
        children = spawn_rngs(3, 8)
        batch = BatchWeightedState.from_states(
            [factory(child) for child in children]
        )
        streams = CounterStreams(3, 8)
        assert_batch_conserves(
            batch,
            SelfishWeightedProtocol(),
            graph,
            streams,
            rounds=40,
            retired=(1, 5),
        )

    def test_uniform_conservation_with_retirement(self):
        graph, factory, _ = _uniform_cell()
        children = spawn_rngs(3, 8)
        batch = BatchUniformState.from_states(
            [factory(child) for child in children]
        )
        streams = CounterStreams(3, 8)
        assert_batch_conserves(
            batch,
            SelfishUniformProtocol(),
            graph,
            streams,
            rounds=40,
            retired=(0, 6),
        )

    def test_weighted_ragged_stack_padding_never_moves(self):
        """Padded (unequal-m) stacks under the counter kernel keep
        padding inert and totals exact."""
        n = 6
        graph = cycle_graph(n)
        speeds = uniform_speeds(n)
        rng = np.random.default_rng(0)
        states = [
            WeightedState(
                place_weighted_random(m, n, rng),
                rng.uniform(0.2, 1.0, size=m),
                speeds,
            )
            for m in (5, 11, 2)
        ]
        batch = BatchWeightedState.from_states(states)
        streams = CounterStreams(5, 3)
        protocol = SelfishWeightedProtocol()
        totals = batch.total_task_weight.copy()
        masks = batch.task_mask.copy()
        for round_index in range(30):
            streams.begin_round(round_index)
            protocol.execute_round_batch(batch, graph, streams, None)
        np.testing.assert_array_equal(batch.task_mask, masks)
        np.testing.assert_allclose(batch.total_task_weight, totals, rtol=0, atol=0)
        assert np.all(batch.task_nodes[~batch.task_mask] == -1)

    def test_isolated_node_cannot_corrupt_saturation(self):
        """Regression: a task on a degree-0 node used to produce edge
        index ``indptr[i] - 1`` (possibly ``-1``), wrapping the
        saturation gather into another replica's edge entries — a
        saturated replica then leaked its flag onto the isolated one."""
        from repro.graphs.graph import Graph

        graph = Graph(3, [(1, 2)])  # node 0 isolated
        speeds = uniform_speeds(3)
        # Replica 0: only an isolated task — its raw flat index is -1,
        # which wraps to the *last* edge entry of the last replica.
        # Replica 1: a heavy imbalance whose saturated direction is
        # exactly that last CSR edge (2 -> 1) under an ablation alpha.
        states = [
            WeightedState(np.array([0]), np.array([1.0]), speeds),
            WeightedState(np.array([2, 2]), np.array([1.0, 1.0]), speeds),
        ]
        batch = BatchWeightedState.from_states(states)
        protocol = SelfishWeightedProtocol(alpha=0.01)
        streams = CounterStreams(1, 2)
        streams.begin_round(0)
        counter = protocol.execute_round_batch(batch.copy(), graph, streams, None)
        spawned = protocol.execute_round_batch(
            batch.copy(), graph, spawn_rngs(1, 2), None
        )
        np.testing.assert_array_equal(counter.saturated, spawned.saturated)
        assert not counter.saturated[0]  # the isolated replica is clean

    def test_isolated_centre_star_matches_law(self):
        """star_graph leaves no isolated nodes, but a degree-0 guard
        path still exists: tasks on a zero-degree node never migrate."""
        # Build a graph with an isolated node by using a star and a
        # detached extra vertex via counts placed on it.
        graph = star_graph(4)
        n = graph.num_vertices
        weights = np.full(10, 0.5)
        rng = np.random.default_rng(1)
        states = [
            WeightedState(rng.integers(0, n, size=10), weights, uniform_speeds(n))
            for _ in range(4)
        ]
        batch = BatchWeightedState.from_states(states)
        streams = CounterStreams(2, 4)
        protocol = SelfishWeightedProtocol()
        for round_index in range(20):
            streams.begin_round(round_index)
            protocol.execute_round_batch(batch, graph, streams, None)
        np.testing.assert_allclose(
            batch.total_task_weight, np.full(4, 5.0), atol=0
        )


class TestCounterRouting:
    def test_scalar_engine_rejects_counter(self):
        graph, factory = _weighted_cell()
        with pytest.raises(ValidationError):
            measure_convergence_rounds(
                graph=graph,
                protocol=SelfishWeightedProtocol(),
                state_factory=factory,
                stopping=NashStop(),
                repetitions=2,
                max_rounds=10,
                seed=1,
                engine="scalar",
                rng_policy="counter",
            )

    def test_unknown_policy_rejected(self):
        graph, factory = _weighted_cell()
        with pytest.raises(ValidationError):
            measure_convergence_rounds(
                graph=graph,
                protocol=SelfishWeightedProtocol(),
                state_factory=factory,
                stopping=NashStop(),
                repetitions=2,
                max_rounds=10,
                seed=1,
                rng_policy="philox",
            )

    def test_counter_forces_batch_engine(self):
        graph, factory = _weighted_cell()
        measurement = measure_convergence_rounds(
            graph=graph,
            protocol=SelfishWeightedProtocol(),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=3,
            max_rounds=50_000,
            seed=1,
            engine="auto",
            rng_policy="counter",
        )
        assert measurement.engine == "batch"

    def test_counter_requires_stackable_states(self):
        """Mixed speed vectors cannot stack, so counter must raise
        rather than silently fall back to the scalar loop."""
        n = 6
        graph = cycle_graph(n)
        m = 12
        weights = np.full(m, 0.5)

        def factory(rng: np.random.Generator) -> WeightedState:
            speeds = rng.uniform(1.0, 2.0, size=n)  # differs per replica
            return WeightedState(
                place_weighted_random(m, n, rng), weights, speeds
            )

        with pytest.raises(ValidationError):
            measure_convergence_rounds(
                graph=graph,
                protocol=SelfishWeightedProtocol(),
                state_factory=factory,
                stopping=NashStop(),
                repetitions=3,
                max_rounds=10,
                seed=1,
                rng_policy="counter",
            )

    def test_ablation_alpha_weighted_counter_runs(self):
        """The weighted clip is shared per task/edge, so the counter
        kernel accepts ablation alphas exactly like the spawned batch."""
        graph, factory = _weighted_cell()
        measurement = measure_convergence_rounds(
            graph=graph,
            protocol=SelfishWeightedProtocol(alpha=1.0),
            state_factory=factory,
            stopping=NashStop(),
            repetitions=4,
            max_rounds=50_000,
            seed=3,
            rng_policy="counter",
        )
        assert measurement.engine == "batch"


class TestPolicyMatrix:
    """Pipeline smoke under the CLI-selected policy (CI runs both)."""

    def test_weighted_measurement_cell(self, cli_rng_policy):
        measurement = measure_weighted_threshold_time(
            "ring", 8, m_factor=8.0, repetitions=3, seed=20120716,
            config=RunConfig(rng_policy=cli_rng_policy),
        )
        assert measurement.num_converged == measurement.num_repetitions

    def test_scenario_recovery_cell(self, cli_rng_policy):
        cell = measure_scenario_recovery(
            "torus", 9, m_factor=8.0, repetitions=10, seed=20120716,
            tasks="uniform", horizon=120,
            config=RunConfig(rng_policy=cli_rng_policy),
        )
        assert cell.engine == "batch"
        assert cell.num_recovered == cell.num_replicas
