"""Check psqlab reports and their CSV sidecars.

    PYTHONPATH=perfbench python .github/check_reports.py PATH...

Each PATH is a report or a directory, whose *.json reports and *.csv
sidecars are all checked.  A report must be strict JSON, with no NaN or
Infinity, and pass the benchmark's invariants (perfbench/check.py); a
sidecar must pass its parse check.  Exit 1 when a check fails or no file
is found.
"""

import glob
import json
import os
import sys

from check import csv_problems, invariants


def strict(name):
    raise ValueError(f"{name} is not strict JSON")


def main(paths: list[str]) -> int:
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(glob.glob(os.path.join(path, "*.json")))
            files += sorted(glob.glob(os.path.join(path, "*.csv")))
        else:
            files.append(path)
    problems = [] if files else ["no report or sidecar found"]
    for path in files:
        if path.endswith(".csv"):
            problems += csv_problems(path)
            continue
        with open(path) as fh:
            problems += [f"{path}: {p}" for p in invariants(json.load(fh, parse_constant=strict))]
    print("\n".join(problems) or f"{len(files)} reports and sidecars pass")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
