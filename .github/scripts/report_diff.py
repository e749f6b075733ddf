#!/usr/bin/env python3
"""Compares two sets of lab sweep reports field by field, with tolerance.

For every `*.csv` and `*.json` file in A_DIR, the file of the same name in
B_DIR must exist and hold the same fields. Integers (a JSON integer, or a
CSV cell that is an integer on both sides) must match exactly; other
numbers must match within relative 1e-9 or absolute 1e-6; anything else
must match as text. Every differing field is printed; the exit status is
1 if there is one.

usage: report_diff.py A_DIR B_DIR
"""

import csv
import json
import math
import pathlib
import sys

REL, ABS = 1e-9, 1e-6


def number(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def same(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= max(REL * max(abs(a), abs(b)), ABS)
    return a == b


def walk(a, b, path, out):
    """Appends `(path, a, b)` for every leaf where `a` and `b` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            walk(a.get(k, "<missing>"), b.get(k, "<missing>"), f"{path}.{k}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append((f"{path}.len", len(a), len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            walk(x, y, f"{path}[{i}]", out)
    elif not same(a, b):
        out.append((path, a, b))


def load(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as f:
        return [{k: number(v) for k, v in row.items()} for row in csv.DictReader(f)]


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip().splitlines()[-1])
    a_dir, b_dir = pathlib.Path(argv[1]), pathlib.Path(argv[2])
    files = sorted(p.name for p in a_dir.iterdir() if p.suffix in (".csv", ".json"))
    if not files:
        sys.exit(f"no *.csv or *.json reports in {a_dir}")
    diffs = []
    for name in files:
        if not (b_dir / name).exists():
            diffs.append((name, "present", "<missing>"))
            continue
        walk(load(a_dir / name), load(b_dir / name), name, diffs)
    for name in sorted(p.name for p in b_dir.iterdir() if p.suffix in (".csv", ".json")):
        if name not in files:
            diffs.append((name, "<missing>", "present"))
    for path, a, b in diffs:
        print(f"{path}: {a} -> {b}")
    if diffs:
        sys.exit(1)
    print(f"{len(files)} reports agree within rel {REL:g} / abs {ABS:g}")


if __name__ == "__main__":
    main(sys.argv)
