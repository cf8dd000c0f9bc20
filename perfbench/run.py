"""Repository benchmark: one workload per invocation, each in its own process.

Run from the repository root::

    python3 perfbench/run.py --workload weighted-converge --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload paper-cli --seed 1 --seconds 25 --trace 1

Workloads: weighted-converge, weighted-churn, large-graph, paper-cli (see
``perfbench/README.md``). With ``--trace 0`` the last stdout line is a
JSON object whose ``metrics`` are the end-to-end metrics (``setup_s``,
``wall_s``, ``peak_rss_mb``; both timings at the nominal host speed of
``host_speed.py``); with ``--trace 1`` they are the per-layer metrics of
a traced run. The lines before it name every metric with its
unit, every output check, the findings and the machine. Exits 2 without
a result when the program's sources are missing or a run breaks.

Only the standard library is used here; the program runs in child
processes with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import host_speed
from layers import END_TO_END, PAPER_IDS, PER_LAYER
from outcome import OUT_DIR, Outcome, check_paper_artifact

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("weighted-converge", "weighted-churn", "large-graph", "paper-cli")
#: Untraced library workloads pool the iterations of several measuring
#: processes, each given ``1 / PROCESS_SHARE`` of ``--seconds`` after its
#: warm-up iteration, started while ``--seconds`` lasts and at least
#: ``MIN_PROCESSES`` of them, so no one process (its CPU, its memory
#: layout) sets the figure.
PROCESS_SHARE = 3
MIN_PROCESSES = 2
#: Processes that only set up (about 1 s each), started before each
#: measuring process (library workloads) or around the CLI launches
#: (paper-cli), so the samples spread over the whole run; ``setup_s`` is
#: the median over these and every measuring process or launch.
PROBES_PER_PROCESS = 2
CLI_PROBES = 4
#: Hard cap on one child process (the whole run must end within 180 s).
CHILD_TIMEOUT_S = 150.0
OUTCOME_KEYS = (
    "attempted",
    "failed",
    "checks",
    "replica_rounds",
    "task_events",
    "findings",
)
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RunBroken(RuntimeError):
    """A child process failed; the run has no result."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine() -> dict:
    """The machine every number was measured on."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"l{level}_cache"] = size
    return info


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], log_name: str) -> tuple[int, str, float]:
    """Run ``cmd`` to completion.

    Returns ``(exit code, stdout, peak RSS in MB)``.
    The peak RSS is the child's, or that of the largest process it
    started and waited for (``wait4`` folds reaped descendants in).
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with (OUT_DIR / log_name).open("wb") as log:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read().decode("utf-8", "replace")
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    return os.waitstatus_to_exitcode(status), stdout, usage.ru_maxrss / 1024.0


def last_json(stdout: str, what: str) -> dict:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunBroken(f"{what} printed no result") from None


def run_worker(args, seconds: float, *extra: str, log_name: str) -> tuple[dict, float]:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    cmd += ["--t0", repr(time.perf_counter())]
    code, stdout, rss_mb = spawn(cmd, log_name)
    if code != 0:
        raise RunBroken(f"worker exited {code}; see {OUT_DIR / log_name}")
    return last_json(stdout, "worker"), rss_mb


def launch_cli(args, setup_only: bool) -> dict:
    """One launch of the paper CLI through ``cli_launch.py``."""
    stamp = OUT_DIR / f"cli-stamp-{args.seed}.json"
    artifact = OUT_DIR / f"paper-cli-{args.seed}.json"
    stamp.unlink(missing_ok=True)
    artifact.unlink(missing_ok=True)
    cli = [] if setup_only else [
        "run", *PAPER_IDS, "--workers", "2",
        "--seed", str(args.seed), "--json", str(artifact),
    ]
    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH_DIR / "cli_launch.py"), str(stamp), *cli]
    code, _, rss_mb = spawn(cmd, "paper-cli.log")
    try:
        stamped = json.loads(stamp.read_text())
    except (OSError, ValueError):
        raise RunBroken(f"paper CLI exited {code} before its import finished") from None
    imported = stamped["imported"]
    run = {"setup_s": imported - t0, "rss_mb": rss_mb, "versions": stamped["versions"]}
    if setup_only:
        if code != 0:
            raise RunBroken(f"import probe exited {code}")
        return run
    if code not in (0, 1, 2):
        raise RunBroken(f"paper CLI exited {code}; see {OUT_DIR / 'paper-cli.log'}")
    outcome = check_paper_artifact(artifact, code)
    run["wall_s"] = time.perf_counter() - imported
    run["outcome"] = outcome
    return run


def probe_cli(args, refs: list[float]) -> float:
    setup_s = launch_cli(args, True)["setup_s"]
    refs.append(host_speed.sample())
    return setup_s


def measure_paper_cli(args) -> dict:
    refs = []
    setups = [probe_cli(args, refs) for _ in range(CLI_PROBES // 2)]
    walls, rss, fingerprints = [], [], []
    total = Outcome(attempted=0)
    start = time.perf_counter()
    while True:
        run = launch_cli(args, False)
        refs.append(host_speed.sample())
        setups.append(run["setup_s"])
        walls.append(run["wall_s"])
        rss.append(run["rss_mb"])
        total.merge(run["outcome"])
        fingerprints.append(run["outcome"].fingerprint)
        if time.perf_counter() - start + walls[-1] > args.seconds:
            break
    setups += [probe_cli(args, refs) for _ in range(CLI_PROBES // 2)]
    return {
        "setup_samples": setups,
        "walls": walls,
        "refs": refs,
        "peak_rss_mb": max(rss),
        "attempted": total.attempted,
        "failed": total.failed,
        "checks": total.checks,
        "findings": total.findings,
        # One launch has nothing to compare against.
        "identical": all(f == fingerprints[0] for f in fingerprints)
        if len(fingerprints) > 1
        else None,
        "versions": run["versions"],
    }


def measure_library(args) -> dict:
    log_name = f"{args.workload}.log"
    setups, runs, refs = [], [], []
    start = time.perf_counter()
    while True:
        for _ in range(PROBES_PER_PROCESS):
            setups.append(
                run_worker(args, 0, "--setup-only", log_name=log_name)[0]["setup_s"]
            )
            refs.append(host_speed.sample())
        launched = time.perf_counter()
        runs.append(run_worker(args, args.seconds / PROCESS_SHARE, log_name=log_name))
        refs.append(host_speed.sample())
        spent = time.perf_counter() - start
        last = time.perf_counter() - launched
        if len(runs) >= MIN_PROCESSES and spent + last > args.seconds:
            break
    results = [result for result, _ in runs]
    total = Outcome(attempted=0)
    for result in results:
        total.merge(Outcome(**{k: result[k] for k in OUTCOME_KEYS}))
    walls = [wall for result in results for wall in result["walls"]]
    # Counts cover every iteration, the warm-ups too; walls the timed ones.
    per_s = len(walls) / sum(walls) / sum(len(result["extra"]) for result in results)
    rates = {"replica_rounds_per_s": (total.replica_rounds * per_s, "1/s")}
    if total.task_events:
        rates["task_events_per_s"] = (total.task_events * per_s, "1/s")
    return {
        "setup_samples": setups + [result["setup_s"] for result in results],
        "walls": walls,
        "refs": refs + [ref for result in results for ref in result["refs"]],
        "peak_rss_mb": max(rss_mb for _, rss_mb in runs),
        "attempted": total.attempted,
        "failed": total.failed,
        "checks": total.checks,
        "findings": total.findings,
        "identical": all(r["identical"] for r in results)
        and len({r["digest"] for r in results}) == 1,
        "rates": rates,
        "versions": results[0]["versions"],
    }


def report(args, result: dict, metrics: dict) -> None:
    """Human-readable lines (everything by name, with units) + result file."""
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "versions": result.get("versions"),
        "load": (
            "one CLI process with a 2-worker process pool"
            if args.workload == "paper-cli"
            else "single-process workers, one after another"
        ),
    }
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(
            f"samples setup_s = {len(result['setup_samples'])}, "
            f"wall_s = {len(result['walls'])} (each metric is their median)"
        )
        for name, seconds in result["measured"].items():
            print(f"measured {name} = {seconds:.6g} s (before scaling to nominal speed)")
        print(
            f"host reference loop = {statistics.median(result['refs']) * 1e3:.4g} ms "
            f"(median of {len(result['refs'])} samples; nominal "
            f"{host_speed.NOMINAL_LOOP_S * 1e3:.4g} ms)"
        )
    for name, (value, unit) in result.get("rates", {}).items():
        print(f"rate {name} = {value:.6g} {unit}")
    attempted = result["attempted"]
    print(f"failed_frac = {result['failed'] / attempted:.6g} ({result['failed']}/{attempted})")
    for name, count in sorted(result["checks"].items()):
        print(f"check {name}: {'ok' if count == 0 else f'{count} failed'}")
    identical = {None: "not checked (one launch)", True: "ok", False: "FAILED"}
    print(f"check same_seed_outputs_identical: {identical[result['identical']]}")
    for finding in result["findings"]:
        print(f"finding {finding}")
    print("meta " + json.dumps(meta, sort_keys=True))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record = {"meta": meta, "metrics": metrics}
    record.update((k, v) for k, v in result.items() if k != "extra")
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result, _ = run_worker(
                args, args.seconds, log_name=f"{args.workload}-trace.log"
            )
            metrics = {
                name: {"value": result["layers"][name], "unit": unit}
                for name, unit in PER_LAYER
            }
        else:
            result = (
                measure_paper_cli(args)
                if args.workload == "paper-cli"
                else measure_library(args)
            )
            result["measured"] = {
                "setup_s": statistics.median(result["setup_samples"]),
                "wall_s": statistics.median(result["walls"]),
            }
            values = {
                name: host_speed.at_nominal_speed(seconds, result["refs"])
                for name, seconds in result["measured"].items()
            }
            values["peak_rss_mb"] = result["peak_rss_mb"]
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit, _, _ in END_TO_END
            }
    except RunBroken as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report(args, result, metrics)
    correct = result["failed"] == 0 and result["identical"] is not False
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
