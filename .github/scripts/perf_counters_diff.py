#!/usr/bin/env python3
"""Compare the deterministic per-layer work counters of two bench/perf runs.

Usage: perf_counters_diff.py PARENT.json CHANGE.json

Both files are `perf.exe --all --out` results taken at the same seed and
scale. Work counters (Dijkstras, relaxations, cache hits, epoch bumps,
victims, attempts, ...) are exact for a seed, so a change that claims to
do the same work must leave every one of them bit-identical; times and
time shares are not compared. Exits 1 and lists the differences when any
counter moved, or when a workload or counter is missing on one side.
"""
import json
import re
import sys

COUNTERS = re.compile(
    r"^(paths\..*_per_op"
    r"|sp_engine\..*"
    r"|sp_window\.reuse_ratio"
    r"|network\..*_per_op"
    r"|online_cp\.dijkstras_per_admit"
    r"|online_cp\.pruned_servers_per_admit"
    r"|appro_multi\..*_per_solve"
    r"|fault\.victims_per_strike"
    r"|restore\.attempts_per_pass)$"
)


def counters(path):
    with open(path) as f:
        run = json.load(f)
    return {
        (w, name): metric["value"]
        for w, record in run["workloads"].items()
        for name, metric in record["per_layer"].items()
        if COUNTERS.match(name)
    }


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    parent, change = counters(argv[1]), counters(argv[2])
    diffs = []
    for key in sorted(set(parent) | set(change)):
        a, b = parent.get(key), change.get(key)
        if a != b:
            diffs.append("%s %s: parent %r, change %r" % (key[0], key[1], a, b))
    for line in diffs:
        print(line)
    print("%d counters compared, %d differ" % (len(set(parent) | set(change)), len(diffs)))
    return 1 if diffs or not parent else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
