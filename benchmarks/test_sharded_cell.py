"""Bench: replica-sharded execution of a single large cell.

Not a paper artifact — the intra-cell scale axis on top of the PR 3
executor. ``--workers`` alone cannot speed up a sweep dominated by one
huge cell: the pool schedules whole cells, so the big cell serializes
the run. ``shard_size`` splits that cell's replica ensemble into
window sub-tasks the pool overlaps, and the offset-aware stream layouts
(:mod:`repro.utils.rng`) keep the merged result byte-identical to the
monolithic run at any (workers, shard_size) under both rng policies
(asserted here via pickle bytes, which make NaN comparisons exact).

The speedup acceptance shards one fat weighted cell (ring(16),
m = 64 n, R = 400 — heavy-m so each replica-round does real kernel
work) into 100-replica windows over 4 workers and requires >= 1.8x
against the monolithic cell. It needs real cores and is skipped on
machines exposing fewer than 4 CPUs; the CI slow tier's multi-core
runners enforce it.

The adaptive acceptance runs the same-family cell under a CI target and
requires the wave controller to stop at measurably fewer replicas than
the fixed-R cap while actually meeting the target. Both acceptances
upsert their rows into ``benchmarks/BENCH.json`` (cumulative perf
trajectory; refresh with ``BENCH_RECORD=1 pytest -q -m slow
benchmarks/``).
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from benchmarks.conftest import record_bench
from repro.experiments import RunConfig
from repro.experiments.executor import (
    CellSpec,
    execute_cells,
    execute_cells_report,
    run_cell,
)

#: The fat single cell of the speedup acceptance: heavy-m weighted run
#: whose 400 replicas take ~8s monolithically on one core.
FAT_CELL = dict(
    kind="weighted", family="ring", n=16, m_factor=64.0, repetitions=400,
    seed=20120716,
)
SHARD_SIZE = 100
WORKERS = 4

#: The adaptive acceptance cell: same family/size at the sweep's usual
#: m = 8 n load, R = 400 as the hard cap, 50-replica waves.
ADAPTIVE_CELL = dict(
    kind="weighted", family="ring", n=16, m_factor=8.0, repetitions=400,
    seed=20120716,
)
ADAPTIVE_WAVE = 50
ADAPTIVE_TARGET_CI = 3.0


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.mark.parametrize("rng_policy", ["spawned", "counter"])
def test_sharded_cell_byte_identical(rng_policy):
    """Sharded pooled run == monolithic run, to the byte, both policies."""
    monolithic = run_cell(
        CellSpec(
            "weighted", "ring", 16, 8.0, 10, 20120716,
            config=RunConfig(rng_policy=rng_policy),
        )
    )
    sharded = execute_cells(
        [
            CellSpec(
                "weighted",
                "ring",
                16,
                8.0,
                10,
                20120716,
                config=RunConfig(rng_policy=rng_policy, shard_size=3),
            )
        ],
        workers=2,
    )[0]
    assert pickle.dumps(sharded, protocol=4) == pickle.dumps(
        monolithic, protocol=4
    )


@pytest.mark.slow
def test_sharded_single_cell_speedup():
    """Acceptance: >= 1.8x at 4 workers on one sharded R=400 cell.

    The monolithic baseline runs the identical spec without sharding at
    the same worker count (a single cell leaves the pool nothing to
    overlap, so it executes serially — exactly the behaviour sharding
    exists to fix). Best-of-two per configuration; results must match
    byte for byte.
    """
    cpus = _available_cpus()
    if cpus < 4:
        pytest.skip(
            f"only {cpus} CPU(s) available; a 4-worker pool cannot "
            "demonstrate wall-clock speedup without real cores"
        )

    def timed(shard_size):
        spec = CellSpec(**FAT_CELL, config=RunConfig(shard_size=shard_size))
        best_seconds, cells = float("inf"), None
        for _ in range(2):
            start = time.perf_counter()
            cells = execute_cells([spec], workers=WORKERS)
            best_seconds = min(best_seconds, time.perf_counter() - start)
        return cells[0], best_seconds

    monolithic, monolithic_seconds = timed(None)
    sharded, sharded_seconds = timed(SHARD_SIZE)

    assert pickle.dumps(sharded, protocol=4) == pickle.dumps(
        monolithic, protocol=4
    )
    speedup = monolithic_seconds / sharded_seconds
    record_bench(
        cell=(
            f"sharded-weighted-cell ring(16) m=64n R=400 "
            f"shard={SHARD_SIZE} workers={WORKERS}"
        ),
        policy="spawned",
        wall_clock_seconds=sharded_seconds,
        speedup=speedup,
        baseline="monolithic cell (serial under a 1-task pool)",
        monolithic_seconds=round(monolithic_seconds, 6),
    )
    assert speedup >= 1.8, (
        f"sharded cell only {speedup:.2f}x faster "
        f"({sharded_seconds:.2f}s vs {monolithic_seconds:.2f}s monolithic)"
    )


@pytest.mark.slow
def test_adaptive_sizing_saves_replicas():
    """Acceptance: the CI target is met with measurably fewer replicas.

    The fixed-R reference runs all 400 replicas; the adaptive run must
    stop at most half-way there (wave boundaries are deterministic, so
    this is a stable property of the seed, not a flaky timing check)
    while reporting a half-width at or under the target.
    """
    spec = CellSpec(
        **ADAPTIVE_CELL,
        config=RunConfig(
            shard_size=ADAPTIVE_WAVE, target_ci=ADAPTIVE_TARGET_CI
        ),
    )
    start = time.perf_counter()
    report = execute_cells_report([spec], workers=None)
    adaptive_seconds = time.perf_counter() - start
    timing = report.timings[0]

    assert timing.adaptive_stop == "target"
    assert timing.ci_half_width <= ADAPTIVE_TARGET_CI
    assert timing.repetitions_effective <= timing.repetitions_requested // 2, (
        f"adaptive run used {timing.repetitions_effective} of "
        f"{timing.repetitions_requested} replicas — no meaningful saving"
    )
    record_bench(
        cell=(
            f"adaptive-weighted-cell ring(16) m=8n cap=400 "
            f"wave={ADAPTIVE_WAVE} target-ci={ADAPTIVE_TARGET_CI}"
        ),
        policy="spawned",
        wall_clock_seconds=adaptive_seconds,
        speedup=timing.repetitions_requested / timing.repetitions_effective,
        baseline="fixed-R ensemble (speedup = replica-count ratio)",
        repetitions_effective=timing.repetitions_effective,
        ci_half_width=round(timing.ci_half_width, 3),
    )
