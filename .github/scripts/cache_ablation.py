#!/usr/bin/env python3
"""Checks that the packet decision cache moves no flow metric.

Reads the CSV report of `examples/sweeps/pkt_burst_ablation.toml`. Rows
whose coordinates (the columns between `run` and `sim_secs`) differ only
in `pkt_decision_cache` must be equal on every column except `run`,
`pkt_decision_cache` and the cache's own `pkt_cache_*` counters: a
cached verdict replays exactly what the table walk would have done.

usage: cache_ablation.py /tmp/pba/pkt_burst_ablation.csv
"""

import csv
import sys

AXIS = "pkt_decision_cache"


def ignored(column):
    return column in ("run", AXIS) or column.startswith("pkt_cache_")


def check(header, rows):
    coords = header[1 : header.index("sim_secs")]
    if AXIS not in coords:
        return [f"the report has no {AXIS} axis"], 0
    pairs = {}
    for row in rows:
        key = tuple(row[c] for c in coords if c != AXIS)
        pairs.setdefault(key, {})[row[AXIS]] = row
    errors = []
    for key, by_cache in sorted(pairs.items()):
        label = " ".join(f"{c}={v}" for c, v in zip([c for c in coords if c != AXIS], key))
        if set(by_cache) != {"true", "false"}:
            errors.append(f"{label}: {AXIS} values {sorted(by_cache)}, expected true and false")
            continue
        on, off = by_cache["true"], by_cache["false"]
        for column in header:
            if not ignored(column) and on[column] != off[column]:
                errors.append(
                    f"{label}: {column} is {on[column]} with the cache, {off[column]} without"
                )
    return errors, len(pairs)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    with open(argv[1], newline="") as f:
        reader = csv.DictReader(f)
        errors, pairs = check(reader.fieldnames, list(reader))
    for e in errors:
        print(f"error: {e}")
    if errors:
        sys.exit(1)
    print(f"decision cache moved no metric across {pairs} row pairs")


if __name__ == "__main__":
    main(sys.argv)
