#!/usr/bin/env python3
"""Checks that one sweep axis moves no metric.

Reads a lab sweep's CSV report. Rows whose coordinates (the columns
between `run` and `sim_secs`) differ only in AXIS must be equal, as
strings, on every column except `run`, AXIS and the IGNORED columns
(names or shell-style patterns such as `pkt_cache_*`). Every such group
of rows must cover every value the axis takes in the report.

usage: axis_invariance.py REPORT.csv AXIS [IGNORED ...]
"""

import csv
import fnmatch
import sys


def check(header, rows, axis, ignored):
    coords = header[1 : header.index("sim_secs")]
    if axis not in coords:
        return [f"the report has no {axis} axis"], 0
    skip = ["run", axis, *ignored]
    compared = [c for c in header if not any(fnmatch.fnmatchcase(c, p) for p in skip)]
    others = [c for c in coords if c != axis]
    values = sorted({row[axis] for row in rows})
    if len(values) < 2:
        return [f"{axis} takes only the values {values}"], 0
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in others), {})[row[axis]] = row
    errors = []
    for key, by_value in sorted(groups.items()):
        label = " ".join(f"{c}={v}" for c, v in zip(others, key))
        if sorted(by_value) != values:
            errors.append(f"{label}: {axis} values {sorted(by_value)}, expected {values}")
            continue
        base = by_value[values[0]]
        for value in values[1:]:
            row = by_value[value]
            for column in compared:
                if row[column] != base[column]:
                    errors.append(
                        f"{label}: {column} is {base[column]} at {axis}={values[0]}, "
                        f"{row[column]} at {axis}={value}"
                    )
    return errors, len(groups)


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__.strip().splitlines()[-1])
    path, axis, ignored = argv[1], argv[2], argv[3:]
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        errors, groups = check(reader.fieldnames, list(reader), axis, ignored)
    for e in errors:
        print(f"error: {e}")
    if errors:
        sys.exit(1)
    print(f"{axis} moved no compared column across {groups} row groups")


if __name__ == "__main__":
    main(sys.argv)
