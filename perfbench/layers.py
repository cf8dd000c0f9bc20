"""Metric names, units and the per-layer breakdown of a traced run.

Standard library only: ``run.py`` imports the name lists without
importing the program.

Per-layer metrics are per traced iteration (means over the traced
iterations of one run), except the set-up layers, which happen once.
A layer absent from a workload reads 0. The wall-clock accounting is
exact by construction: every span of an iteration nests under its root
span, so the layer self times plus ``trace.unattributed_s`` (the root's
own self time) add up to ``trace.wall_s``, the mean traced wall time.
"""

from __future__ import annotations

import statistics

#: End-to-end metrics, measured untraced: (name, unit, better, bound).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Root span of one measured iteration; its self time is unattributed.
ROOT_SPAN = "wall"

PAPER_IDS = (
    "table1-approx",
    "table1-exact",
    "table1-weighted",
    "thm11",
    "thm12",
    "thm13",
)
EVENT_NAMES = ("trace-arrival", "trace-departure", "trace-relocation")

#: Set-up spans -> metric (happen once per process).
SETUP_LAYERS = {
    "import": "import.self_s",
    "graphs.build": "graphs.build_s",
    "workloads.generate": "workloads.generate_s",
    "workloads.compile": "workloads.compile_s",
    "model.setup": "model.setup_s",
}

#: Wall-clock layers: span-name prefix -> self-time metric. Each also
#: reports ``<layer>.share`` of ``trace.wall_s``.
WALL_LAYERS = {
    "model.copy": "model.copy_s",
    "core.protocols": "core.protocols.self_s",
    "utils.rng": "utils.rng.fill_s",
    "core.stopping": "core.stopping.self_s",
    "core.batch": "core.batch.self_s",
    "scenarios.events": "scenarios.events.self_s",
    "scenarios.runner": "scenarios.runner.self_s",
    "spectral": "spectral.lambda2_s",
    **{f"experiments.{i}": f"experiments.{i}.wall_s" for i in PAPER_IDS},
    "experiments.reporting": "experiments.reporting.render_s",
    "bench.check": "bench.check_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
    ROOT_SPAN: "trace.unattributed_s",
}
SHARE_NAMES = {
    prefix: ("trace.unattributed" if prefix == ROOT_SPAN else prefix) + ".share"
    for prefix in WALL_LAYERS
}

_COUNTS = (
    ("core.protocols.calls", "count"),
    ("core.protocols.call_ms_p50", "ms"),
    ("core.protocols.call_ms_p99", "ms"),
    ("core.protocols.active_rows", "count"),
    ("core.protocols.tasks_moved", "count"),
    ("core.protocols.move_ratio", "ratio"),
    ("utils.rng.calls", "count"),
    ("utils.rng.uniforms", "count"),
    ("utils.rng.variates", "count"),
    ("utils.rng.bytes_computed", "B"),
    ("core.stopping.calls", "count"),
    ("core.stopping.rows_checked", "count"),
    ("core.stopping.hit_ratio", "ratio"),
    ("core.batch.replica_rounds", "count"),
    ("scenarios.events.calls", "count"),
    ("scenarios.events.task_events", "count"),
    *((f"scenarios.events.{name}.self_s", "s") for name in EVENT_NAMES),
    ("spectral.calls", "count"),
    ("experiments.executor.cell_busy_s", "s"),
    ("experiments.executor.cells", "count"),
    ("experiments.executor.parallel_efficiency", "ratio"),
    ("experiments.verdict_fails", "count"),
    ("trace.wall_s", "s"),
    ("trace.base_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.setup_s", "s"),
    ("trace.setup_unattributed_s", "s"),
)

#: Every per-layer metric: (name, unit).
PER_LAYER = (
    *((metric, "s") for metric in SETUP_LAYERS.values()),
    *((metric, "s") for metric in WALL_LAYERS.values()),
    *((share, "ratio") for share in SHARE_NAMES.values()),
    *_COUNTS,
)


def _layer_of(span_name: str) -> str | None:
    """The wall layer a span name belongs to (longest matching prefix)."""
    best = None
    for prefix in WALL_LAYERS:
        if span_name == prefix or span_name.startswith(prefix + "."):
            if best is None or len(prefix) > len(best):
                best = prefix
    return best


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``0 <= q <= 1``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, setup_spans: int, result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (see the module docstring)."""
    traced = len(result["traced_walls"])
    iterations = len(result["extra"])  # the warm-up iteration included
    metrics = {name: 0.0 for name, _ in PER_LAYER}

    setup = result["setup_layers"]
    for span_name, metric in SETUP_LAYERS.items():
        metrics[metric] = setup.get(span_name, 0.0)
    metrics["trace.setup_s"] = result["setup_s"]
    metrics["trace.setup_unattributed_s"] = result["setup_s"] - sum(
        setup.values()
    )

    wall_s = sum(result["traced_walls"]) / traced
    for span_name, seconds in tracer.self_times(setup_spans).items():
        layer = _layer_of(span_name)
        if layer is None:
            raise ValueError(f"span {span_name!r} belongs to no layer")
        metrics[WALL_LAYERS[layer]] += seconds / traced
        if layer == "scenarios.events" and span_name != layer:
            metrics[f"{span_name}.self_s"] += seconds / traced
    for prefix, metric in WALL_LAYERS.items():
        metrics[SHARE_NAMES[prefix]] = metrics[metric] / wall_s

    counters = {k: v / traced for k, v in tracer.counters.items()}
    for name in (
        "core.protocols.calls",
        "core.protocols.active_rows",
        "core.protocols.tasks_moved",
        "utils.rng.calls",
        "utils.rng.uniforms",
        "utils.rng.variates",
        "core.stopping.calls",
        "core.stopping.rows_checked",
        "scenarios.events.calls",
        "scenarios.events.task_events",
        "spectral.calls",
    ):
        metrics[name] = counters.get(name, 0.0)
    calls_ms = tracer.call_ms.get("core.protocols", [])
    metrics["core.protocols.call_ms_p50"] = _quantile(calls_ms, 0.5)
    metrics["core.protocols.call_ms_p99"] = _quantile(calls_ms, 0.99)
    metrics["core.protocols.move_ratio"] = _ratio(
        counters.get("core.protocols.tasks_moved", 0.0),
        counters.get("core.protocols.tasks_offered", 0.0),
    )
    metrics["utils.rng.bytes_computed"] = 8 * (
        metrics["utils.rng.uniforms"] + metrics["utils.rng.variates"]
    )
    metrics["core.stopping.hit_ratio"] = _ratio(
        counters.get("core.stopping.hits", 0.0),
        counters.get("core.stopping.rows_checked", 0.0),
    )
    metrics["core.batch.replica_rounds"] = result["replica_rounds"] / iterations

    extras = result["extra"]
    busy = sum(e.get("cell_busy_s", 0.0) for e in extras) / iterations
    metrics["experiments.executor.cell_busy_s"] = busy
    metrics["experiments.executor.cells"] = (
        sum(e.get("cells", 0) for e in extras) / iterations
    )
    sweep_ids = {i for e in extras for i in e.get("sweep_ids", ())}
    sweep_wall = sum(metrics[f"experiments.{i}.wall_s"] for i in sweep_ids)
    workers = max((e.get("workers", 0) for e in extras), default=0)
    metrics["experiments.executor.parallel_efficiency"] = _ratio(
        busy, workers * sweep_wall
    )
    metrics["experiments.verdict_fails"] = float(len(result["findings"]))

    metrics["trace.wall_s"] = wall_s
    base = statistics.median(result["walls"])
    metrics["trace.base_wall_s"] = base
    metrics["trace.overhead_s"] = statistics.median(result["traced_walls"]) - base
    return metrics
