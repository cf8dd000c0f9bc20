"""One workload in its own process: set up, iterate for a time budget, check.

Usage (``run.py`` calls this; ``PYTHONPATH`` must hold the repo's ``src``)::

    python perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 STAMP [--setup-only]

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (the monotonic clock is system-wide on Linux), so
``setup_s`` covers interpreter start, ``import repro`` and the workload's
input construction. Prints one JSON object on its last stdout line.

A first untimed (but checked) warm-up iteration fills the program's
caches and finishes its lazy imports: it runs 10-25% slower than the
rest. Untraced, every later iteration runs on the plain library
objects. Traced, later iterations alternate untraced and traced, so the
traced run reports its own tracing overhead against equally warm
untraced iterations. After every timed iteration it takes a
``host_speed`` reference sample, so ``run.py`` can report the timings at
the nominal host speed. Every iteration at one seed must produce the
same outputs (the wrappers are transparent).
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import cases  # noqa: E402  (imports repro)
import host_speed  # noqa: E402
import layers  # noqa: E402
from outcome import OUT_DIR, Outcome  # noqa: E402
from tracing import Tracer  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(case, seed: int, seconds: float, traced: bool, t0: float) -> dict:
    """Set ``case`` up, warm it up, then iterate it until ``seconds`` are
    spent."""
    if case.name == "paper-cli":
        import repro.experiments  # noqa: F401  (the paper-cli set-up boundary)
    imported = time.perf_counter()
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.add_span("import", t0, imported)
    case.setup(seed, tracer)
    setup_end = time.perf_counter()
    result = {"setup_s": setup_end - t0, "walls": [], "traced_walls": [], "refs": []}
    if traced:
        result["setup_layers"] = tracer.self_times()
        setup_spans = len(tracer.spans)
    total = Outcome(attempted=0)
    extras = []
    reference = None
    identical = True
    iteration = 0
    while True:
        warm_up = iteration == 0
        with_trace = traced and iteration > 0 and iteration % 2 == 0
        if with_trace:
            root = tracer.begin(layers.ROOT_SPAN)
            outcome = case.run(tracer)
            last = tracer.end(root)
        else:
            start = time.perf_counter()
            outcome = case.run(None)
            last = time.perf_counter() - start
        if warm_up:
            measuring = time.perf_counter()
        else:
            result["traced_walls" if with_trace else "walls"].append(last)
            result["refs"].append(host_speed.sample())
        total.merge(outcome)
        extras.append(outcome.extra)
        if reference is None:
            reference = outcome.fingerprint
        identical = identical and outcome.fingerprint == reference
        iteration += 1
        spent = time.perf_counter() - measuring
        need_more = not result["walls"] or (traced and not result["traced_walls"])
        if not need_more and spent + last > seconds:
            break
    result.update(
        attempted=total.attempted,
        failed=total.failed,
        checks=total.checks,
        findings=total.findings,
        replica_rounds=total.replica_rounds,
        task_events=total.task_events,
        extra=extras,
        identical=identical,
        digest=hashlib.sha256(
            json.dumps(reference, sort_keys=True).encode()
        ).hexdigest(),
        versions=versions(),
    )
    if traced:
        result["layers"] = layers.per_layer(tracer, setup_spans, result)
        tracer.dump(
            OUT_DIR / f"spans-{case.name}-{seed}.jsonl",
            {"workload": case.name, "seed": seed, **result["versions"]},
        )
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = _START if args.t0 is None else args.t0
    case = cases.CASES[args.workload]()
    if args.setup_only:
        case.setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    result = measure(case, args.seed, args.seconds, bool(args.trace), t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
