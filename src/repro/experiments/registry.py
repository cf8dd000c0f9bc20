"""Experiment registry and result container."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from repro.backends import resolve_backend
from repro.errors import ExperimentError
from repro.experiments.config import DEFAULT_CONFIG, RunConfig
from repro.utils.tables import Table

__all__ = [
    "ExperimentResult",
    "register_experiment",
    "available_experiments",
    "get_experiment",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    experiment_id:
        Registry id.
    title:
        Human-readable title (references the paper artifact).
    tables:
        Rendered result tables.
    notes:
        Free-form observations (measured-vs-paper commentary).
    passed:
        Overall verdict: did the measurements respect the paper's claims?
    data:
        Raw numbers for JSON export.
    series:
        Named data series (figure-style output): series name -> mapping
        of column name to list of values, all columns equal length. The
        CLI's ``--csv`` option writes one CSV per series.
    """

    experiment_id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    passed: bool = True
    data: dict = field(default_factory=dict)
    series: dict[str, dict[str, list]] = field(default_factory=dict)


#: Registered experiments: id -> (runner, the RunConfig fields it honours).
#: Runners honouring fields are called ``runner(quick, seed, config)``,
#: the others ``runner(quick, seed)``.
_REGISTRY: dict[str, tuple[Callable[..., ExperimentResult], frozenset[str]]] = {}

#: RunConfig field names, in declaration order.
_FIELDS = tuple(knob.name for knob in fields(RunConfig))


def register_experiment(
    experiment_id: str, uses: tuple[str, ...] = ()
) -> Callable[[Callable[..., ExperimentResult]], Callable[..., ExperimentResult]]:
    """Function decorator registering an experiment runner.

    ``uses`` names the :class:`RunConfig` fields the runner honours.
    With none, the runner is called ``runner(quick, seed)``; otherwise
    ``runner(quick, seed, config)``, where every field outside ``uses``
    has been reset to its default. Either way it returns an
    :class:`ExperimentResult`.
    """
    unknown = set(uses) - set(_FIELDS)
    if unknown:
        raise ExperimentError(
            f"unknown RunConfig field(s) {sorted(unknown)}; known: {_FIELDS}"
        )

    def decorator(
        func: Callable[..., ExperimentResult]
    ) -> Callable[..., ExperimentResult]:
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"experiment {experiment_id!r} already registered")
        _REGISTRY[experiment_id] = (func, frozenset(uses))
        return func

    return decorator


def _ensure_loaded() -> None:
    """Import all experiment modules so their registrations run."""
    # Imported lazily to avoid import cycles at package import time.
    from repro.experiments import (  # noqa: F401
        baselines,
        decay,
        potential_drop,
        quality,
        robustness,
        scenarios_exp,
        spectral_exp,
        table1,
        theorem11,
        theorem12,
        theorem13,
        topology_exp,
        weighted_variants,
        workloads_exp,
    )


def available_experiments() -> list[str]:
    """Sorted ids of all registered experiments."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def _entry(
    experiment_id: str,
) -> tuple[Callable[..., ExperimentResult], frozenset[str]]:
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(_REGISTRY)}"
        ) from None


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up an experiment runner by id."""
    return _entry(experiment_id)[0]


def run_experiment(
    experiment_id: str,
    quick: bool = True,
    seed: int = 20120716,
    *,
    config: RunConfig | None = None,
    **knobs: object,
) -> ExperimentResult:
    """Run an experiment by id.

    Parameters
    ----------
    quick:
        ``True`` (default) uses reduced sweeps suitable for CI;
        ``False`` runs the full sweep sizes.
    seed:
        Base seed; every repetition derives an independent child.
    config:
        How to execute the run (workers, rng policy, sharding, adaptive
        sizing, backend, trace replay, workload); see
        :class:`RunConfig`. Defaults to serial spawned-stream numpy.
    **knobs:
        :class:`RunConfig` fields as keywords (``workers=2``,
        ``rng_policy="counter"``, ...), applied on top of ``config``.

    Notes
    -----
    A runner receives only the fields it declared in
    :func:`register_experiment`. Each other field that was requested
    with a non-default value triggers a :class:`RuntimeWarning` and
    falls back to its default (``workers=1`` is serial either way and
    stays silent). A requested backend whose optional dependency is
    missing also warns and falls back to numpy.

    Every result's ``data`` gains a ``run_meta`` record: the requested
    and *effective* worker count, rng policy, shard size, target CI and
    backend, plus the trace, workload, seed and quick flag. A fallback
    is therefore visible in the artifact, not just on stderr. Runners
    that time their cells add ``run_meta["cell_timings"]``.
    """
    requested = replace(config or DEFAULT_CONFIG, **knobs)
    runner, uses = _entry(experiment_id)
    resets: dict[str, object] = {}
    for knob in fields(RunConfig):
        value = getattr(requested, knob.name)
        if knob.name in uses or value == knob.default:
            continue
        resets[knob.name] = knob.default
        if not (knob.name == "workers" and value == 1):
            warnings.warn(
                f"experiment {experiment_id!r} "
                + knob.metadata["fallback"].format(
                    flag=knob.metadata["flag"], value=value
                ),
                RuntimeWarning,
                stacklevel=2,
            )
    if "backend" in uses:
        # Resolved once up front so a missing optional dependency warns
        # here, not once per cell.
        resets["backend"] = resolve_backend(requested.backend).name
    effective = replace(requested, **resets)
    result = runner(quick, seed, effective) if uses else runner(quick, seed)
    cell_timings = result.data.pop("cell_timings", None)
    meta: dict[str, object] = {}
    for knob in fields(RunConfig):
        if knob.metadata["paired"]:
            meta[f"{knob.name}_requested"] = getattr(requested, knob.name)
            meta[f"{knob.name}_effective"] = getattr(effective, knob.name)
        else:
            meta[knob.name] = getattr(effective, knob.name)
    meta["workers_effective"] = effective.workers or 1
    meta.update(seed=seed, quick=quick)
    if cell_timings is not None:
        meta["cell_timings"] = cell_timings
    result.data["run_meta"] = meta
    return result
