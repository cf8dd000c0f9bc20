"""Command-line interface for the experiment harness.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run table1-approx thm11 [--full] [--seed N]
    python -m repro.experiments run table1-weighted --workers 4 --shard-size 64
    python -m repro.experiments run table1-weighted --target-ci 2.5
    python -m repro.experiments all [--full] [--markdown experiments.md]

The execution flags ``--workers``, ``--rng``, ``--shard-size``,
``--target-ci``, ``--backend``, ``--trace`` and ``--workload`` build one
:class:`~repro.experiments.config.RunConfig`; its field docs say what
each one does. The config validates itself, and an invalid value exits
with status 2 like any other usage error. Each experiment honours the
fields it declared when it was registered; a requested field that an
experiment does not honour prints a RuntimeWarning to stderr and falls
back to its default instead of being dropped silently.

Apart from ``--rng``, ``--target-ci``, ``--trace``, ``--workload`` and a
non-numpy ``--backend``, no flag changes a measurement: results are
byte-identical at any ``(workers, shard-size)``. The ``run_meta``
record in each experiment's JSON describes the invocation (requested
and effective values, per-cell wall-clock), so compare artifacts with it
removed. Unknown experiment ids exit with status 2; a failed
reproduction exits with 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from repro.backends import BACKEND_NAMES
from repro.errors import ReproError, ValidationError
from repro.experiments.config import RunConfig
from repro.experiments.registry import available_experiments, run_experiment
from repro.experiments.reporting import render_result, result_to_markdown
from repro.utils.serialization import write_csv, write_json

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables/figures/theorems of Adolphs & "
        "Berenbrink (PODC 2012).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiment ids")

    run_parser = subparsers.add_parser("run", help="run selected experiments")
    run_parser.add_argument("ids", nargs="+", help="experiment ids")
    _add_common(run_parser)

    all_parser = subparsers.add_parser("all", help="run every experiment")
    _add_common(all_parser)
    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--full",
        action="store_true",
        help="full sweep sizes (default: quick sweeps)",
    )
    parser.add_argument("--seed", type=int, default=20120716, help="base seed")
    parser.add_argument(
        "--markdown", type=Path, default=None, help="append markdown report here"
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write raw result data here"
    )
    parser.add_argument(
        "--csv",
        type=Path,
        default=None,
        help="directory for figure-style data series (one CSV per series, "
        "named <experiment_id>__<series>.csv)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan sweep cells over N processes (default: serial in-process; "
        "measurement results are identical at any worker count)",
    )
    parser.add_argument(
        "--rng",
        dest="rng_policy",
        choices=("spawned", "counter"),
        default="spawned",
        help="per-replica RNG stream layout: 'spawned' (default; "
        "bit-identical to earlier releases) or 'counter' (vectorized "
        "Philox block draws; statistically equivalent and same-seed "
        "deterministic, but on different sample paths)",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="R",
        help="replicas per executor shard: split each sweep cell's "
        "ensemble into R-replica windows scheduled as independent pool "
        "tasks (results stay byte-identical at any workers/shard-size "
        "combination); default: monolithic cells",
    )
    parser.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="H",
        help="adaptive ensemble sizing for family sweeps: run each "
        "cell's replicas in shard-sized waves until the bootstrap 95%% "
        "CI half-width on its mean convergence round is at most H "
        "(repetitions become a cap; effective sizes are recorded in "
        "run_meta.cell_timings)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="replay this saved workload trace file as the single cell "
        "of the workloads-traffic experiment (other experiments warn "
        "and ignore it)",
    )
    parser.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="narrow the workloads-traffic experiment to one cell of "
        "this generator (mmpp, diurnal, flash-crowd, adversarial, "
        "mmpp-flash; other experiments warn and ignore it)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="numpy",
        help="array backend for the batched kernels: 'numpy' (default; "
        "bit-identical to earlier releases) or 'numba' (JIT-fused kernels, "
        "requires the 'jit' extra). A missing optional dependency prints a "
        "RuntimeWarning and falls back to numpy; run_meta records the "
        "requested and effective backend",
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0
    if args.seed < 0:
        parser.error(
            f"--seed must be a non-negative integer, got {args.seed}"
        )
    if args.trace is not None and not Path(args.trace).is_file():
        parser.error(f"--trace file not found: {args.trace}")
    # Every RunConfig field has a flag whose argparse dest is the field
    # name; a rejected value is reported under its flag.
    knobs = fields(RunConfig)
    try:
        config = RunConfig(
            **{knob.name: getattr(args, knob.name) for knob in knobs}
        )
    except ValidationError as error:
        name, _, detail = str(error).partition(" ")
        flags = {knob.name: knob.metadata["flag"] for knob in knobs}
        parser.error(f"{flags.get(name, name)} {detail}")

    known = available_experiments()
    ids = known if args.command == "all" else args.ids
    # Fail fast on any unknown id so a typo cannot abort a multi-id run
    # after earlier (possibly expensive) experiments already executed.
    unknown = [experiment_id for experiment_id in ids if experiment_id not in known]
    if unknown:
        print(
            f"error: unknown experiment(s) {unknown}; available: {known}",
            file=sys.stderr,
        )
        return 2
    quick = not args.full
    all_passed = True
    markdown_sections: list[str] = []
    json_data: dict = {}
    for experiment_id in ids:
        try:
            result = run_experiment(
                experiment_id, quick=quick, seed=args.seed, config=config
            )
        except ReproError as error:
            # Any deliberate library error (unknown id, bad parameters,
            # executor misconfiguration) gets the clean-message contract;
            # genuine programming errors still traceback.
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(render_result(result))
        print()
        all_passed = all_passed and result.passed
        markdown_sections.append(result_to_markdown(result))
        json_data[experiment_id] = {"passed": result.passed, **result.data}
        if args.csv is not None and result.series:
            args.csv.mkdir(parents=True, exist_ok=True)
            for series_name, columns in result.series.items():
                headers = list(columns)
                rows = list(zip(*(columns[name] for name in headers)))
                # Namespace by experiment so two experiments exporting a
                # same-named series cannot overwrite each other under
                # ``all --csv``.
                write_csv(
                    args.csv / f"{experiment_id}__{series_name}.csv",
                    rows,
                    headers,
                )

    if args.markdown is not None:
        existing = (
            args.markdown.read_text(encoding="utf-8")
            if args.markdown.exists()
            else ""
        )
        args.markdown.write_text(
            existing + "\n".join(markdown_sections) + "\n", encoding="utf-8"
        )
    if args.json is not None:
        write_json(args.json, json_data)
    return 0 if all_passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
