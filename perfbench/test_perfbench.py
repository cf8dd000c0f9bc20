"""Tests of the benchmark's own code (not collected by the tier-1 suite).

Run from the repository root::

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cases
import host_speed
import layers
import worker
from outcome import check_paper_artifact
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small_cases():
    """The three library workloads at test size."""
    return [
        cases.WeightedConverge(side=9, m_factor=8, replicas=16),
        cases.WeightedChurn(
            horizon=60, initial_tasks=60, replicas=6, rate_low=2, rate_high=20
        ),
        cases.LargeGraph(side=40, m_factor=4, replicas=2, rounds=5),
    ]


@pytest.mark.parametrize("case", small_cases(), ids=lambda c: c.name)
def test_wrappers_are_transparent(case):
    """A traced and an untraced iteration at one seed give the same
    stop rounds, streaming observables and lambda_2."""
    case.setup(7)
    plain = case.run(None)
    tracer = Tracer()
    root = tracer.begin(layers.ROOT_SPAN)
    traced = case.run(tracer)
    tracer.end(root)
    assert plain.failed == traced.failed == 0
    assert plain.fingerprint and plain.fingerprint == traced.fingerprint
    assert len(tracer.spans) > 3


def test_injected_conservation_break_is_a_failed_operation():
    """Corrupting what the kernel writes (the node-weight matrix, the task
    locations) fails the replica it hits. The state's own methods keep
    both consistent, so the faults are written into its arrays directly."""
    case = cases.WeightedConverge(side=9, m_factor=8, replicas=16)
    case.setup(3)
    assert case.check(_converge_result(case)).failed == 0

    lost_weight = _converge_result(case)
    lost_weight.final_state._node_weights[0, 0] -= 0.1
    outcome = case.check(lost_weight)
    assert outcome.failed == 1
    assert outcome.checks["total_weight_conserved"] == 1
    assert outcome.checks["node_weights_match_placement"] == 1

    misplaced = _converge_result(case)
    state = misplaced.final_state
    state._task_nodes[2, 0] = (state.task_nodes[2, 0] + 1) % state.num_nodes
    outcome = case.check(misplaced)
    assert outcome.failed == 1
    assert outcome.checks["node_weights_match_placement"] == 1
    assert outcome.checks["total_weight_conserved"] == 0


def test_injected_churn_break_is_a_failed_operation():
    case = cases.WeightedChurn(
        horizon=20, initial_tasks=40, replicas=4, rate_low=2, rate_high=20
    )
    case.setup(5)
    replay = case.replays[0]
    import repro
    from repro.scenarios import ScenarioRunner, StreamingRecording
    from repro.utils.rng import CounterStreams

    runner = ScenarioRunner(case.graph, repro.SelfishWeightedProtocol(), replay.schedule)
    result = runner.run_batch(
        case.initial.copy(),
        case.horizon,
        rngs=CounterStreams(replay.stream_seed, case.replicas),
        recording=StreamingRecording(),
    )
    assert case.check(replay, result).failed == 0
    result.final_state._node_weights[1, 3] += 0.5
    outcome = case.check(replay, result)
    assert outcome.failed == 1
    assert outcome.checks["total_weight_conserved"] == 1
    assert outcome.checks["node_weights_match_placement"] == 1


def _converge_result(case):
    import repro
    from repro.utils.rng import CounterStreams

    simulator = repro.BatchSimulator(case.graph, repro.SelfishWeightedProtocol())
    return simulator.run(
        case.initial.copy(),
        stopping=repro.NashStop(),
        max_rounds=case.max_rounds,
        rngs=CounterStreams(case.stream_seed, case.replicas),
    )


def test_lambda2_off_the_closed_form_is_a_failed_operation():
    case = cases.LargeGraph(side=40, m_factor=4, replicas=2, rounds=1)
    case.setup(1)
    import repro

    simulator = repro.BatchSimulator(case.graph, repro.SelfishUniformProtocol(), seed=1)
    result = simulator.run(case.initial.copy(), max_rounds=1)
    assert case.check(result, case.lambda2_closed_form).failed == 0
    outcome = case.check(result, case.lambda2_closed_form * 1.01)
    assert outcome.failed == 1
    assert outcome.checks["lambda2_matches_closed_form"] == 1


def test_paper_artifact_checks(tmp_path):
    path = tmp_path / "out.json"
    data = {i: {"passed": True} for i in layers.PAPER_IDS}
    data["table1-weighted"]["passed"] = False
    path.write_text(json.dumps(data))
    outcome = check_paper_artifact(path, 1)
    assert (outcome.attempted, outcome.failed) == (6, 0)
    assert outcome.findings == ["table1-weighted: verdict FAIL"]

    # The fingerprint leaves out the invocation record only.
    timed = {i: {**entry, "run_meta": {"seconds": 1.5}} for i, entry in data.items()}
    path.write_text(json.dumps(timed))
    assert check_paper_artifact(path, 1).fingerprint == outcome.fingerprint
    timed["thm11"]["rounds"] = 7
    path.write_text(json.dumps(timed))
    assert check_paper_artifact(path, 1).fingerprint != outcome.fingerprint

    del data["thm12"]
    path.write_text(json.dumps(data))
    assert check_paper_artifact(path, 1).failed == 1
    assert check_paper_artifact(path, 2).failed == 6
    assert check_paper_artifact(tmp_path / "missing.json", 0).failed == 6


def test_traced_accounting_adds_up_to_traced_wall():
    """Layer self times + trace.unattributed_s == trace.wall_s."""
    case = cases.WeightedChurn(
        horizon=40, initial_tasks=40, replicas=4, rate_low=2, rate_high=20
    )
    result = worker.measure(case, 2, 0.0, True, time.perf_counter())
    metrics = result["layers"]
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    wall_layers = sum(metrics[m] for m in layers.WALL_LAYERS.values())
    assert wall_layers == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    shares = sum(metrics[s] for s in layers.SHARE_NAMES.values())
    assert shares == pytest.approx(1.0, rel=1e-9)
    assert metrics["scenarios.events.self_s"] > 0
    assert metrics["scenarios.events.task_events"] > 0
    assert result["identical"] and result["failed"] == 0


def test_timings_scale_to_nominal_host_speed():
    """A run whose reference loop took twice the nominal time reports half
    the measured seconds; the median of the samples sets the speed."""
    nominal = host_speed.NOMINAL_LOOP_S
    assert host_speed.at_nominal_speed(3.0, [nominal]) == pytest.approx(3.0)
    samples = [2 * nominal, 2 * nominal, 9 * nominal]
    assert host_speed.at_nominal_speed(3.0, samples) == pytest.approx(1.5)
    assert host_speed.sample() > 0


def test_metric_names_and_benchmark_json_agree():
    end_to_end = [name for name, *_ in layers.END_TO_END]
    per_layer = [name for name, _ in layers.PER_LAYER]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = end_to_end + per_layer
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(cases.CASES)
    assert all(
        NAME.fullmatch(m["unit"]) and len(m["unit"]) <= 16
        for m in bench["end_to_end"] + bench["per_layer"]
    )


def test_run_refuses_without_program_sources(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero
    without printing a result."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weighted-converge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
