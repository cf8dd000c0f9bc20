"""One validated execution configuration for the experiment layer."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends import check_backend
from repro.errors import ValidationError
from repro.utils.rng import check_rng_policy
from repro.workloads.generators import available_workloads

__all__ = ["RunConfig", "DEFAULT_CONFIG"]


def _knob(default: object, flag: str, fallback: str, paired: bool = True):
    """A RunConfig field with its CLI flag, fallback text and run_meta shape.

    ``fallback`` completes the RuntimeWarning ``run_experiment`` emits
    when a runner ignores the requested value; ``{flag}`` and
    ``{value}`` are filled in. ``paired`` fields appear in ``run_meta``
    as ``<name>_requested`` / ``<name>_effective``; the others only as
    their effective value.
    """
    return field(
        default=default,
        metadata={"flag": flag, "fallback": fallback, "paired": paired},
    )


@dataclass(frozen=True)
class RunConfig:
    """How to execute an experiment, independent of what it measures.

    Frozen and picklable: it rides on every
    :class:`~repro.experiments.executor.CellSpec` into worker processes.
    Every value is validated once, at construction, so the CLI, the
    registry and the executor share a single set of checks; each
    :class:`~repro.errors.ValidationError` message starts with the
    offending field's name. Only ``rng_policy`` (another, law-equivalent
    stream layout), ``target_ci`` (adaptive ensemble size), ``trace`` /
    ``workload`` (which cells run) and a non-numpy ``backend`` can
    change a measurement's numbers.

    Attributes
    ----------
    workers:
        Process count for the sweep executor (CLI ``--workers``).
        ``None`` or ``1`` runs serially in-process; results are
        byte-identical at any worker count.
    rng_policy:
        Per-replica stream layout (``--rng``): ``"spawned"``
        (bit-identical to earlier releases) or ``"counter"``
        (vectorized Philox blocks, law-equivalent).
    shard_size:
        Replicas per executor shard (``--shard-size``); ``None`` keeps
        cells monolithic. Under ``target_ci`` it sets the wave size.
    target_ci:
        Adaptive ensemble sizing (``--target-ci``): family sweep cells
        run replica waves until the bootstrap CI half-width on the mean
        convergence round is at most this value.
    backend:
        Array backend for the batched kernels (``--backend``):
        ``"numpy"`` (bit-identical default) or ``"numba"`` (JIT-fused,
        ``jit`` extra; a missing extra warns and falls back to numpy).
    trace:
        Path of a saved workload trace to replay (``--trace``).
    workload:
        Workload generator name narrowing the traffic grid to one cell
        (``--workload``); one of
        :func:`~repro.workloads.available_workloads`, and not together
        with ``trace`` (a trace file already fixes the generator).
    """

    workers: int | None = _knob(
        None,
        "--workers",
        "does not support parallel execution; ignoring {flag} {value} and "
        "running serially",
    )
    rng_policy: str = _knob(
        "spawned",
        "--rng",
        "has no rng_policy parameter; ignoring {flag} {value} and using "
        "spawned streams",
    )
    shard_size: int | None = _knob(
        None,
        "--shard-size",
        "has no shard_size parameter; ignoring {flag} {value} and running "
        "monolithic cells",
    )
    target_ci: float | None = _knob(
        None,
        "--target-ci",
        "has no target_ci parameter; ignoring {flag} {value} and running "
        "fixed-size ensembles",
    )
    backend: str = _knob(
        "numpy",
        "--backend",
        "has no backend parameter; ignoring {flag} {value} and running on "
        "numpy",
    )
    trace: str | None = _knob(
        None,
        "--trace",
        "has no trace parameter; ignoring {flag} {value} and running its "
        "normal grid",
        paired=False,
    )
    workload: str | None = _knob(
        None,
        "--workload",
        "has no workload parameter; ignoring {flag} {value} and running its "
        "normal grid",
        paired=False,
    )

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        check_rng_policy(self.rng_policy)
        if self.shard_size is not None and self.shard_size < 1:
            raise ValidationError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )
        if self.target_ci is not None and not self.target_ci > 0:
            raise ValidationError(
                f"target_ci must be positive, got {self.target_ci}"
            )
        check_backend(self.backend)
        if self.trace is not None and self.workload is not None:
            raise ValidationError(
                "trace cannot be combined with a workload: a trace file "
                "already fixes the generator"
            )
        if self.workload is not None and self.workload not in available_workloads():
            raise ValidationError(
                f"workload {self.workload!r} is an unknown workload "
                f"generator; available: {available_workloads()}"
            )


#: The all-defaults configuration (serial, spawned streams, numpy).
DEFAULT_CONFIG = RunConfig()
