"""The replica-ensemble planner shared by both ensemble entry points.

:func:`repro.analysis.convergence.measure_convergence_rounds` and
:meth:`repro.scenarios.runner.ScenarioRunner.run_ensemble` run the same
kind of ensemble: ``repetitions`` replicas (or a window of them) built
from spawned child streams, on the batch engine when the inputs qualify
and on the scalar reference otherwise. :func:`plan_ensemble` validates
those inputs, builds the window's initial states and picks the engine
once, so both entry points refuse the same inputs with the same
messages and route the same inputs to the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.flows import default_alpha
from repro.core.protocols import Protocol
from repro.errors import ValidationError
from repro.model.batch import BatchStateBase
from repro.model.state import LoadStateBase
from repro.types import SeedLike
from repro.utils.rng import CounterStreams, check_rng_policy, spawn_rngs

ENGINES = ("auto", "batch", "scalar")


@dataclass(frozen=True)
class EnsemblePlan:
    """A validated replica window and the engine that runs it.

    Attributes
    ----------
    generators:
        The window's spawned child streams: window replica ``k`` owns
        child ``replica_offset + k`` of the monolithic ensemble. They
        built ``states`` and drive the scalar engine's rounds.
    states:
        The window's initial states, one per generator.
    windowed:
        Whether the plan covers a strict window of the ensemble.
    batch:
        ``states`` stacked into the protocol's replica layout when the
        batch engine runs them; ``None`` when the scalar reference does.
    streams:
        The batch engine's round randomness: ``generators`` under the
        spawned policy, the window of the monolithic
        :class:`~repro.utils.rng.CounterStreams` layout under the counter
        policy.
    """

    generators: list[np.random.Generator]
    states: list[LoadStateBase]
    windowed: bool
    batch: BatchStateBase | None
    streams: list[np.random.Generator] | CounterStreams


def _batch_state_class(protocol: Protocol) -> type | None:
    """The replica-stack type the protocol's batched kernel advances."""
    getter = getattr(protocol, "batch_state_class", None)
    return getter() if getter is not None else None


def _batch_stackable(protocol: Protocol, states: list[LoadStateBase]) -> bool:
    """Whether the repetitions can be stacked through the batch engine."""
    if not getattr(protocol, "supports_batch", False):
        return False
    batch_cls = _batch_state_class(protocol)
    return batch_cls is not None and bool(batch_cls.can_stack(states))


def _same_law_as_scalar(protocol: Protocol, states: list[LoadStateBase]) -> bool:
    """Whether batched and scalar kernels sample the identical law.

    With ``alpha >= 4 s_max`` no probability clipping can occur and the
    kernels are distribution-identical. Below that (ablation alphas) the
    scalar kernel truncates the binomial chain slot by slot while the
    batched kernel rescales the whole per-node distribution, so
    ``engine="auto"`` stays on the scalar reference there.
    """
    s_max = float(states[0].speeds.max())
    return protocol.resolve_alpha(states[0]) >= default_alpha(s_max) - 1e-12


def plan_ensemble(
    protocol: Protocol,
    state_factory: Callable[[np.random.Generator], LoadStateBase],
    repetitions: int,
    seed: SeedLike,
    engine: str,
    rng_policy: str,
    replica_offset: int,
    replica_count: int | None,
) -> EnsemblePlan:
    """Validate an ensemble request, build its states and pick the engine.

    The window ``[replica_offset, replica_offset + replica_count)`` of
    the ``repetitions``-sized ensemble (``replica_count=None`` runs to
    the end) is built from offset-aware spawned children, so every
    windowed replica starts exactly as it would in the monolithic run.
    ``engine="auto"`` batches when the protocol has a batched kernel,
    the states stack, and batching keeps the scalar law (weighted
    kernels always do; uniform kernels unless ablation-``alpha``
    clipping would change it). ``engine="batch"`` and
    ``rng_policy="counter"`` require the batch engine; counter windows
    further require a protocol whose draw sites are replica-addressed
    (``counter_shardable``).
    """
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    if engine not in ENGINES:
        raise ValidationError(f"engine must be one of {ENGINES}, got {engine!r}")
    counter = check_rng_policy(rng_policy) == "counter"
    if counter and engine == "scalar":
        raise ValidationError(
            "rng_policy='counter' is a batch-engine stream layout; the "
            "scalar engine always consumes spawned streams"
        )
    if replica_offset < 0:
        raise ValidationError(
            f"replica_offset must be non-negative, got {replica_offset}"
        )
    count = repetitions - replica_offset if replica_count is None else replica_count
    if count < 1:
        raise ValidationError(f"replica_count must be >= 1, got {count}")
    if replica_offset + count > repetitions:
        raise ValidationError(
            f"replica window [{replica_offset}, {replica_offset + count}) "
            f"exceeds repetitions={repetitions}"
        )
    windowed = replica_offset != 0 or count != repetitions
    if windowed and counter and not getattr(protocol, "counter_shardable", False):
        raise ValidationError(
            f"protocol {protocol.name!r} cannot shard under "
            "rng_policy='counter': its batched kernel draws whole-stack "
            "counter blocks (per-replica word consumption depends on the "
            "full ensemble); use a counter-shardable kernel or "
            "rng_policy='spawned'"
        )
    generators = spawn_rngs(seed, count, offset=replica_offset)
    states = [state_factory(generator) for generator in generators]

    stackable = _batch_stackable(protocol, states)
    if (engine == "batch" or counter) and not stackable:
        raise ValidationError(
            "engine='batch' (and rng_policy='counter') requires a "
            "batch-capable protocol and states that stack into its "
            "replica layout (one node count, one shared speed vector); "
            "use engine='auto' with rng_policy='spawned' to fall back "
            "automatically"
        )
    use_batch = (
        engine == "batch"
        or counter
        or (
            engine == "auto"
            and stackable
            and (
                getattr(protocol, "batch_matches_clipped_law", False)
                or _same_law_as_scalar(protocol, states)
            )
        )
    )
    return EnsemblePlan(
        generators=generators,
        states=states,
        windowed=windowed,
        batch=(
            _batch_state_class(protocol).from_states(states)  # type: ignore[union-attr]
            if use_batch
            else None
        ),
        streams=(
            CounterStreams(
                seed,
                count,
                replica_offset=replica_offset,
                total_replicas=repetitions,
            )
            if counter
            else generators
        ),
    )
