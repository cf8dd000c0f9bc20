"""Experiment harness: one module per reproduced table / figure / theorem.

Every experiment is registered under a stable id and can be run from
Python (``run_experiment("table1-approx")``) or the CLI
(``python -m repro.experiments run table1-approx``). Results carry
paper-vs-measured tables ready for ``EXPERIMENTS.md``.

Experiment ids
--------------
``table1-approx``      Table 1, eps-approximate NE columns (empirical).
``table1-exact``       Table 1, exact NE columns (empirical).
``table1-weighted``    Weighted Table-1-style sweep vs the Theorem 1.3 bound.
``thm11``              Theorem 1.1 measured-vs-bound.
``thm12``              Theorem 1.2 measured-vs-bound.
``thm13``              Theorem 1.3 measured-vs-bound (weighted tasks).
``potential-drop``     Lemmas 3.10 / 3.22 drop bounds + alpha ablation.
``decay``              Lemmas 3.13-3.15 geometric decay envelope.
``spectral-bounds``    Appendix A bounds (Lemmas 1.5/1.7/1.10/1.15, Cor 1.16).
``baselines``          Selfish protocol vs diffusion baselines.
``weighted-variants``  Algorithm 2 rules vs the [6] per-task condition.
``robustness``         Self-stabilization: shock recovery + churn band.
``scenarios-churn-shock``  Dynamic workloads: churn + flash-crowd recovery
                       on uniform and weighted task systems.

How a run executes (workers, rng policy, sharding, adaptive sizing,
backend, trace, workload) is one validated :class:`RunConfig`, passed as
``run_experiment(id, config=...)`` or as its fields in keyword form.
Sweep experiments fan their independent (family, size) cells over a
process pool via :mod:`repro.experiments.executor`; results are
identical at any worker count because every cell derives its own seed.
Requesting a field an experiment does not honour emits a
:class:`RuntimeWarning` on stderr and falls back to the default.
"""

from repro.experiments.config import RunConfig
from repro.experiments.registry import (
    ExperimentResult,
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments.reporting import render_result, result_to_markdown

__all__ = [
    "ExperimentResult",
    "RunConfig",
    "available_experiments",
    "get_experiment",
    "run_experiment",
    "render_result",
    "result_to_markdown",
]
