"""The benchmark's workloads: inputs from a seed, one measured iteration,
and the checks that decide whether its outputs are correct.

Each workload has a ``setup`` (everything ``setup_s`` covers after the
import: graph build, trace generation and compile, placement and
stacking) and a ``run`` (one iteration, everything ``wall_s`` covers: a
fresh copy of the initial stack, the run itself and the output checks).
``run`` returns an :class:`Outcome`. With a :class:`~tracing.Tracer` the
library receives the traced wrappers and every call is a span; without
one it receives the plain objects.

``paper-cli`` is measured untraced as the literal CLI command by
``run.py``; :class:`PaperCli` here is its traced, in-process equivalent
(the same ``run_experiment`` / ``render_result`` calls the CLI makes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from layers import PAPER_IDS
from outcome import OUT_DIR, Outcome, check_paper_artifact
from tracing import (
    Tracer,
    TracedCounterStreams,
    TracedNashStop,
    TracedUniformProtocol,
    TracedWeightedProtocol,
    span,
    traced_schedule,
)

import repro
from repro.graphs.families import get_family
from repro.scenarios import ScenarioRunner, StreamingRecording
from repro.utils.rng import CounterStreams, derive_seed, spawn_rngs
from repro.workloads import build_workload, compile_trace, task_timeline

PAPER_WORKERS = 2


def placement_matches_node_weights(state) -> np.ndarray:
    """Per replica: every live task sits on a node, and the node weights
    the kernel maintains equal the weights of the tasks placed there."""
    n = state.num_nodes
    ok = np.zeros(state.num_replicas, dtype=bool)
    for row in range(state.num_replicas):
        live = state.task_mask[row]
        nodes = state.task_nodes[row, live]
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
            continue
        placed = np.bincount(nodes, weights=state.task_weights[row, live], minlength=n)
        ok[row] = np.allclose(state.node_weights[row], placed, rtol=1e-9, atol=1e-9)
    return ok


def _failed_rows(checks: dict[str, np.ndarray]) -> tuple[int, dict[str, int]]:
    """Operations failing any check, and the per-check failure counts."""
    bad = np.zeros_like(next(iter(checks.values())), dtype=bool)
    for ok in checks.values():
        bad |= ~ok
    return int(bad.sum()), {name: int((~ok).sum()) for name, ok in checks.items()}


class WeightedConverge:
    """Theorem 1.3's setting run to the threshold state.

    Heavy/light tasks (10% weight 1.0, the rest 0.1), ``m = 32 n`` on the
    36-node torus, a quarter of the machines at speed 2, random start;
    ``R`` replicas on counter streams, ``NashStop``, ``BatchSimulator.run``.
    """

    name = "weighted-converge"

    max_rounds = 20_000

    def __init__(self, side: int = 36, m_factor: int = 32, replicas: int = 64):
        self.side = side
        self.m_factor = m_factor
        self.replicas = replicas

    def setup(self, seed: int, tracer: Tracer | None = None) -> None:
        with span(tracer, "graphs.build"):
            self.graph = get_family("torus").make(self.side)
        with span(tracer, "model.setup"):
            n = self.graph.num_vertices
            m = self.m_factor * n
            speeds = repro.two_class_speeds(n, 0.25, 2.0)
            weights = repro.two_class_weights(m, 0.1, 1.0, 0.1)
            states = [
                repro.WeightedState(repro.place_weighted_random(m, n, rng), weights, speeds)
                for rng in spawn_rngs(derive_seed(seed, "placement"), self.replicas)
            ]
            self.initial = repro.BatchWeightedState.from_states(states)
        self.total_weight = self.initial.total_weight.copy()
        self.stream_seed = derive_seed(seed, "streams")

    def run(self, tracer: Tracer | None = None) -> Outcome:
        with span(tracer, "model.copy"):
            batch = self.initial.copy()
        if tracer is None:
            protocol, stopping = repro.SelfishWeightedProtocol(), repro.NashStop()
            streams = CounterStreams(self.stream_seed, self.replicas)
        else:
            protocol = TracedWeightedProtocol(tracer)
            stopping = TracedNashStop(tracer)
            streams = TracedCounterStreams(tracer, self.stream_seed, self.replicas)
        simulator = repro.BatchSimulator(self.graph, protocol)
        with span(tracer, "core.batch"):
            result = simulator.run(
                batch, stopping=stopping, max_rounds=self.max_rounds, rngs=streams
            )
        with span(tracer, "bench.check"):
            return self.check(result)

    def check(self, result) -> Outcome:
        final = result.final_state
        nash = np.zeros(self.replicas, dtype=bool)
        rows = np.flatnonzero(result.converged)
        nash[rows] = repro.NashStop().satisfied_batch(final, self.graph, rows)
        failed, checks = _failed_rows(
            {
                "node_weights_match_placement": placement_matches_node_weights(final),
                "total_weight_conserved": np.isclose(
                    final.total_weight, self.total_weight, rtol=1e-9, atol=0.0
                ),
                "converged": result.converged,
                "final_state_nash": nash,
            }
        )
        active_rounds = np.where(
            result.converged, result.stop_rounds, result.rounds_executed
        )
        return Outcome(
            attempted=self.replicas,
            failed=failed,
            checks=checks,
            replica_rounds=int(active_rounds.sum()),
            fingerprint={"stop_rounds": result.stop_rounds.tolist()},
        )


class WeightedChurn:
    """The weighted kernel on a stack compiled traces resize every round.

    ``traces`` independent ``mmpp-flash`` traces (MMPP arrivals and
    matched departures plus flash-crowd relocations; about 100k task
    events in all) on the 20-node fat-tree, each replayed through
    ``ScenarioRunner.run_batch`` with counter streams and the streaming
    recorder. Every replay starts from the same initial stack, which
    set-up balances to ``NashStop`` and then runs through a burn-in
    ``mmpp`` trace of ``burn_in_rounds``: from a balanced start the tasks
    moved per round climb for about 10-20 rounds before they level off
    under churn, so the burn-in makes each replay measure steady churn
    rather than the convergence from a random start or the climb.

    Why several short traces instead of one long one: arrivals and
    departures are independent Poisson streams, so a trace's task count
    random-walks away from its start, and the replay's cost follows the
    count. Averaging ``K`` replays of length ``H / K`` shrinks that
    seed-to-seed swing by a factor ``K`` against one replay of length
    ``H``, so a change in the code shows through the seed noise.

    ``mmpp-flash`` puts at least one flash crowd in every trace, so the
    crowd's ``fraction`` is scaled to keep the share of tasks relocated
    per round at that of one long trace with the generator's default
    crowds (two crowds of fraction 0.5 in 1000 rounds).
    """

    name = "weighted-churn"

    family_n = 20
    traces = 20
    switch_probability = 0.5
    crowd_fraction_per_round = 2 * 0.5 / 1000
    max_balance_rounds = 20_000
    burn_in_rounds = 20

    def __init__(self, horizon: int = 25, initial_tasks: int = 2000,
                 replicas: int = 4, rate_low: float = 80.0,
                 rate_high: float = 120.0):
        self.horizon = horizon
        self.initial_tasks = initial_tasks
        self.replicas = replicas
        self.mmpp_args = {
            "rate_low": rate_low,
            "rate_high": rate_high,
            "switch_probability": self.switch_probability,
        }
        self.crowd_args = {
            "crowds": 1,
            "fraction": self.crowd_fraction_per_round * horizon,
        }

    def setup(self, seed: int, tracer: Tracer | None = None) -> None:
        with span(tracer, "graphs.build"):
            self.graph = get_family("fat-tree").make(self.family_n)
        n = self.graph.num_vertices
        with span(tracer, "workloads.generate"):
            burn_in = build_workload(
                "mmpp",
                num_nodes=n,
                horizon=self.burn_in_rounds,
                seed=derive_seed(seed, "burn-in"),
                initial_tasks=self.initial_tasks,
                **self.mmpp_args,
            )
            start_tasks = int(task_timeline(burn_in)[-1])
            traces = [
                build_workload(
                    "mmpp-flash",
                    num_nodes=n,
                    horizon=self.horizon,
                    seed=derive_seed(seed, "trace", index),
                    initial_tasks=start_tasks,
                    **self.mmpp_args,
                    **self.crowd_args,
                )
                for index in range(self.traces)
            ]
        with span(tracer, "workloads.compile"):
            burn_in_schedule = compile_trace(burn_in)
            schedules = [compile_trace(trace) for trace in traces]
        with span(tracer, "model.setup"):
            weights = repro.two_class_weights(self.initial_tasks, 0.1, 1.0, 0.1)
            states = [
                repro.WeightedState(
                    repro.place_weighted_random(self.initial_tasks, n, rng),
                    weights,
                    np.ones(n),
                )
                for rng in spawn_rngs(derive_seed(seed, "placement"), self.replicas)
            ]
            balanced = repro.BatchSimulator(
                self.graph, repro.SelfishWeightedProtocol()
            ).run(
                repro.BatchWeightedState.from_states(states),
                stopping=repro.NashStop(),
                max_rounds=self.max_balance_rounds,
                rngs=CounterStreams(derive_seed(seed, "balance"), self.replicas),
            )
            if not balanced.all_converged:
                raise RuntimeError("the initial stack did not reach NashStop")
            self.initial = ScenarioRunner(
                self.graph, repro.SelfishWeightedProtocol(), burn_in_schedule
            ).run_batch(
                balanced.final_state,
                self.burn_in_rounds,
                rngs=CounterStreams(derive_seed(seed, "burn-in"), self.replicas),
                recording=StreamingRecording(),
            ).final_state
        self.replays = [
            _Replay(
                trace=trace,
                schedule=schedule,
                expected_tasks=int(task_timeline(trace)[-1]),
                arrival_weight=sum(
                    len(event.targets) * event.weight
                    for event in trace.events
                    if event.kind == "arrival"
                ),
                stream_seed=derive_seed(seed, "streams", index),
            )
            for index, (trace, schedule) in enumerate(zip(traces, schedules))
        ]

    def run(self, tracer: Tracer | None = None) -> Outcome:
        total = Outcome(attempted=0, fingerprint={"replays": []})
        for replay in self.replays:
            with span(tracer, "model.copy"):
                batch = self.initial.copy()
            if tracer is None:
                protocol, schedule = repro.SelfishWeightedProtocol(), replay.schedule
                streams = CounterStreams(replay.stream_seed, self.replicas)
            else:
                protocol = TracedWeightedProtocol(tracer)
                schedule = traced_schedule(replay.schedule, tracer)
                streams = TracedCounterStreams(tracer, replay.stream_seed, self.replicas)
            runner = ScenarioRunner(self.graph, protocol, schedule)
            with span(tracer, "scenarios.runner"):
                result = runner.run_batch(
                    batch, self.horizon, rngs=streams, recording=StreamingRecording()
                )
            with span(tracer, "bench.check"):
                outcome = self.check(replay, result)
            total.merge(outcome)
            total.fingerprint["replays"].append(outcome.fingerprint)
        return total

    def check(self, replay: "_Replay", result) -> Outcome:
        final = result.final_state
        totals = result.event_totals.values()
        added = sum(t.weight_added for t in totals)
        removed = sum(t.weight_removed for t in totals)
        initial = self.initial.total_weight
        failed, checks = _failed_rows(
            {
                "num_tasks_matches_timeline": final.num_tasks == replay.expected_tasks,
                "arrival_weight_matches_trace": np.isclose(
                    added, replay.arrival_weight, rtol=1e-9, atol=1e-9
                ),
                "total_weight_conserved": np.isclose(
                    final.total_weight,
                    initial + added - removed,
                    rtol=1e-9,
                    atol=1e-9,
                ),
                "node_weights_match_placement": placement_matches_node_weights(final),
            }
        )
        observables = {
            name: {"mean": summary.mean.tolist(), "last": summary.last.tolist()}
            for name, summary in sorted(result.observables.items())
        }
        return Outcome(
            attempted=self.replicas,
            failed=failed,
            checks=checks,
            replica_rounds=self.replicas * result.rounds_executed,
            task_events=replay.trace.num_task_events,
            fingerprint={"observables": observables},
        )


@dataclass(frozen=True)
class _Replay:
    """One compiled trace of :class:`WeightedChurn` and what it must yield."""

    trace: object
    schedule: object
    expected_tasks: int
    arrival_weight: float
    stream_seed: int


class LargeGraph:
    """Theorem 1.1's inputs on a 200 x 200 torus (n = 40,000).

    Each iteration computes ``algebraic_connectivity`` and runs fixed
    rounds of the uniform counter kernel on ``R`` replicas of ``m = 16 n``
    randomly placed tasks, a quarter of the machines at speed 2.
    """

    name = "large-graph"

    #: eigsh with shift-invert resolves lambda_2 to ~1e-12 relative.
    lambda2_rtol = 1e-6

    def __init__(self, side: int = 200, m_factor: int = 16, replicas: int = 4,
                 rounds: int = 5):
        self.side = side
        self.m_factor = m_factor
        self.replicas = replicas
        self.rounds = rounds

    def setup(self, seed: int, tracer: Tracer | None = None) -> None:
        with span(tracer, "graphs.build"):
            self.graph = repro.torus_graph(self.side)
        with span(tracer, "model.setup"):
            n = self.graph.num_vertices
            self.num_tasks = self.m_factor * n
            counts = np.stack(
                [
                    repro.random_placement(n, self.num_tasks, rng)
                    for rng in spawn_rngs(derive_seed(seed, "placement"), self.replicas)
                ]
            )
            self.initial = repro.BatchUniformState(
                counts, repro.two_class_speeds(n, 0.25, 2.0)
            )
        self.stream_seed = derive_seed(seed, "streams")

    @property
    def lambda2_closed_form(self) -> float:
        """``lambda_2`` of the ``k x k`` torus: ``2 - 2 cos(2 pi / k)``."""
        return 2.0 - 2.0 * np.cos(2.0 * np.pi / self.side)

    def run(self, tracer: Tracer | None = None) -> Outcome:
        with span(tracer, "spectral.lambda2"):
            lambda2 = repro.algebraic_connectivity(self.graph)
        if tracer is not None:
            tracer.count("spectral.calls")
        with span(tracer, "model.copy"):
            batch = self.initial.copy()
        if tracer is None:
            protocol = repro.SelfishUniformProtocol()
            streams = CounterStreams(self.stream_seed, self.replicas)
        else:
            protocol = TracedUniformProtocol(tracer)
            streams = TracedCounterStreams(tracer, self.stream_seed, self.replicas)
        simulator = repro.BatchSimulator(self.graph, protocol)
        with span(tracer, "core.batch"):
            result = simulator.run(batch, max_rounds=self.rounds, rngs=streams)
        with span(tracer, "bench.check"):
            return self.check(result, lambda2)

    def check(self, result, lambda2: float) -> Outcome:
        expected = self.lambda2_closed_form
        lambda2_ok = abs(lambda2 - expected) <= self.lambda2_rtol * expected
        failed, checks = _failed_rows(
            {"task_count_conserved": result.final_state.num_tasks == self.num_tasks}
        )
        checks["lambda2_matches_closed_form"] = int(not lambda2_ok)
        return Outcome(
            attempted=self.replicas + 1,
            failed=failed + int(not lambda2_ok),
            checks=checks,
            replica_rounds=self.replicas * result.rounds_executed,
            fingerprint={
                # ARPACK starts from a random vector, so only the leading
                # digits of lambda_2 repeat from run to run.
                "lambda2": float(f"{lambda2:.9g}"),
                "counts_sum": result.final_state.counts.sum(axis=0).tolist(),
            },
        )


class PaperCli:
    """Traced in-process equivalent of the paper CLI command."""

    name = "paper-cli"

    def setup(self, seed: int, tracer: Tracer | None = None) -> None:
        self.seed = seed

    def run(self, tracer: Tracer | None = None) -> Outcome:
        from repro.experiments.registry import run_experiment
        from repro.experiments.reporting import render_result
        from repro.utils.serialization import write_json

        json_data, rendered = {}, []
        for experiment_id in PAPER_IDS:
            with span(tracer, f"experiments.{experiment_id}"):
                result = run_experiment(
                    experiment_id, quick=True, seed=self.seed, workers=PAPER_WORKERS
                )
            with span(tracer, "experiments.reporting"):
                rendered.append(render_result(result))
                json_data[experiment_id] = {"passed": result.passed, **result.data}
        path = OUT_DIR / f"paper-cli-traced-{self.seed}.json"
        with span(tracer, "experiments.reporting"):
            path.parent.mkdir(parents=True, exist_ok=True)
            write_json(path, json_data)
        with span(tracer, "bench.check"):
            outcome = check_paper_artifact(path, 0)
        outcome.extra["workers"] = PAPER_WORKERS
        return outcome


CASES = {
    case.name: case for case in (WeightedConverge, WeightedChurn, LargeGraph, PaperCli)
}
