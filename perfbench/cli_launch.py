"""Run the experiments CLI exactly as ``python -m repro.experiments ARGS``
would, after writing to STAMP_FILE (as JSON) the ``time.perf_counter()``
at which ``import repro.experiments`` returned (the end of the CLI's
set-up) and the Python/numpy/scipy versions::

    python perfbench/cli_launch.py STAMP_FILE [ARGS...]

Without ARGS it stops after the import (a set-up probe). The exit status
is the CLI's.
"""

import json
import runpy
import sys
import time


def main() -> None:
    import repro.experiments  # noqa: F401

    imported = time.perf_counter()
    import numpy
    import scipy

    stamp = {
        "imported": imported,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    stamp_file, cli_args = sys.argv[1], sys.argv[2:]
    with open(stamp_file, "w", encoding="utf-8") as handle:
        json.dump(stamp, handle)
    if cli_args:
        sys.argv = [sys.argv[0], *cli_args]
        runpy.run_module("repro.experiments", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
