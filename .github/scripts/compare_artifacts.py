"""Assert that two experiment JSON artifacts agree once ``run_meta`` is removed.

Usage::

    python .github/scripts/compare_artifacts.py LEFT.json RIGHT.json \
        "DIVERGED MESSAGE" "EQUAL MESSAGE"

``run_meta`` records wall-clock, the worker count and the shard plan:
the only fields that legitimately differ between a serial and a pooled
run of the same experiments. On a match the script prints the equal
message followed by LEFT; otherwise the assertion fails with the
diverged message.
"""

import json
import sys


def load_without_run_meta(path):
    with open(path) as handle:
        doc = json.load(handle)
    for data in doc.values():
        data.pop("run_meta", None)
    return doc


def main(argv):
    left, right, diverged, equal = argv
    docs = [load_without_run_meta(left), load_without_run_meta(right)]
    assert docs[0] == docs[1], diverged
    print(equal, left)


if __name__ == "__main__":
    main(sys.argv[1:])
