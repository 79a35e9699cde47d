#!/usr/bin/env python3
"""Check that two bench/perf runs did the same work and reached the same outcomes.

Usage: perf_counters_diff.py PARENT.json CHANGE.json

Both files are `perf.exe --all --out` results taken at the same seed and
scale. For every workload three things must be identical:

- the derived per-layer work values (Dijkstras, relaxations, cache hits,
  epoch bumps, victims, attempts, ... per op or per call);
- the full raw `counters` map the run recorded, every counter by name;
- the `fingerprint` string (outcome counts, exact-metric bits and a
  digest of every decision and tree).

The scale a CI run uses has no committed fingerprint, so the fingerprint
comparison is what catches a change to outcomes that happens to leave
the work values equal. All of these are exact for a seed; times and
time shares are not compared. Exits 1 and lists the differences when
anything moved, or when a workload, counter or fingerprint is missing on
one side.

It also prints each workload's end-to-end `alloc_words_per_op`, parent
-> change, as an information line. That value is exact for a seed and
scale too, but a change may move it on purpose, so it does not gate.
"""
import json
import re
import sys

DERIVED = re.compile(
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


def exact_values(path):
    """(workload, kind, name) -> value for everything that must match."""
    with open(path) as f:
        run = json.load(f)
    values = {}
    for w, record in run["workloads"].items():
        for name, metric in record["per_layer"].items():
            if DERIVED.match(name):
                values[(w, "per_layer", name)] = metric["value"]
        for name, value in record["counters"].items():
            values[(w, "counter", name)] = value
        values[(w, "fingerprint", "")] = record["fingerprint"]
    return values


def alloc_words(path):
    """workload -> alloc_words_per_op (end to end)."""
    with open(path) as f:
        run = json.load(f)
    return {
        w: record["end_to_end"]["alloc_words_per_op"]["value"]
        for w, record in run["workloads"].items()
        if "alloc_words_per_op" in record.get("end_to_end", {})
    }


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    parent, change = exact_values(argv[1]), exact_values(argv[2])
    keys = set(parent) | set(change)
    diffs = []
    for key in sorted(keys):
        a, b = parent.get(key), change.get(key)
        if a != b:
            label = " ".join(part for part in key if part)
            diffs.append("%s: parent %r, change %r" % (label, a, b))
    for line in diffs:
        print(line)

    words_parent, words_change = alloc_words(argv[1]), alloc_words(argv[2])
    for w in sorted(set(words_parent) & set(words_change)):
        a, b = words_parent[w], words_change[w]
        delta = "" if a == 0 else " (%+.1f%%)" % (100.0 * (b - a) / a)
        print("info: %s alloc_words_per_op %.1f -> %.1f%s" % (w, a, b, delta))

    def count(kind):
        return sum(1 for key in keys if key[1] == kind)

    print(
        "%d per-layer values, %d raw counters, %d fingerprints compared, %d differ"
        % (count("per_layer"), count("counter"), count("fingerprint"), len(diffs))
    )
    return 1 if diffs or not parent else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
