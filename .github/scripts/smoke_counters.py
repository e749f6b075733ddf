#!/usr/bin/env python3
"""Checks the event-queue counters of a benchmark smoke pass.

A rate change cancels the completion event it supersedes, so on every
workload no completion pops stale and no pop skips a dead entry: the
stale-completion ratio, `events.skipped` and `events.compactions` are
exactly 0. `ixp_waves`, whose waves re-divide bandwidth, must actually
cancel completions. These are deterministic counters, not timings.

usage: smoke_counters.py bench-artifacts/smoke.json
"""

import json
import sys

WORKLOADS = [
    "ixp_steady",
    "ixp_waves",
    "fat_tree_flaps",
    "fat_tree_k16_cold",
    "ixp_hybrid_pkt",
    "ixp_whatif_fork",
]
ZERO = ["dataplane.stale_completion_ratio", "events.skipped", "events.compactions"]


def check(result):
    errors = []
    for name in WORKLOADS:
        layers = result["workloads"].get(name, {}).get("layers") or {}
        for metric in ZERO:
            if layers.get(metric) != 0:
                errors.append(f"{name}: {metric} is {layers.get(metric)}, expected 0")
        if name == "ixp_waves" and not (layers.get("events.cancelled") or 0) > 0:
            errors.append(f"{name}: events.cancelled is {layers.get('events.cancelled')}, expected > 0")
    return errors


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    with open(argv[1]) as f:
        errors = check(json.load(f))
    for e in errors:
        print(f"error: {e}")
    if errors:
        sys.exit(1)
    print(f"queue counters ok on {len(WORKLOADS)} workloads")


if __name__ == "__main__":
    main(sys.argv)
