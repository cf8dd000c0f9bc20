"""The host's speed, measured with a fixed pure-Python loop.

The host this benchmark was built on (2 vCPUs of a shared Intel Xeon)
runs in phases that last from seconds to minutes: in a slow phase every
piece of code runs up to 1.6 times slower than in a fast one, and the
same loop timed a few seconds apart reads 12 ms or 20 ms. The benchmark
therefore times this loop between its iterations and reports its
timings at the nominal host speed (``at_nominal_speed``), so a change in
the program shows through the host's phases.

Standalone, it prints how steady the host is::

    python3 perfbench/host_speed.py [--windows 10] [--seconds 10]

It times the loop over and over for ``--seconds`` per window and prints
each window's median and, across windows, the interquartile range over
the median: the figure the benchmark's ten-seed spreads are judged by.
On a quiet machine it is about 1%.
"""

from __future__ import annotations

import argparse
import statistics
import time

#: Additions in the reference loop.
LOOP_COUNT = 300_000
#: The loop's time on the build host in a fast phase (Intel Xeon, 2 vCPUs,
#: CPython 3.11): the speed every reported timing is scaled to.
NOMINAL_LOOP_S = 0.0125
#: Loops per sample; a sample is their median (about 40 ms).
SAMPLE_LOOPS = 3


def loop_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(LOOP_COUNT):
        total += value
    return time.perf_counter() - start


def sample() -> float:
    """One reference sample: the median of ``SAMPLE_LOOPS`` loops."""
    return statistics.median(loop_seconds() for _ in range(SAMPLE_LOOPS))


def at_nominal_speed(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured while the loop took ``median(samples)``, as they
    would read with the loop at ``NOMINAL_LOOP_S``."""
    return seconds * NOMINAL_LOOP_S / statistics.median(samples)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    medians = []
    for _ in range(args.windows):
        samples = []
        end = time.perf_counter() + args.seconds
        while time.perf_counter() < end:
            samples.append(loop_seconds())
        medians.append(statistics.median(samples))
        print(f"window median {medians[-1] * 1e3:.2f} ms ({len(samples)} loops)")
    print(f"spread (IQR / median over windows) = {spread(medians):.3f}")


if __name__ == "__main__":
    main()
