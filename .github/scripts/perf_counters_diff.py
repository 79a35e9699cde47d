#!/usr/bin/env python3
"""Check that a change reached the same outcomes as its parent with no more work.

Usage: perf_counters_diff.py PARENT.json CHANGE.json

Both files are `perf.exe --all --out` results taken at the same seed and
scale. For every workload:

- the `fingerprint` string (outcome counts, exact-metric bits and a
  digest of every decision and tree) must be identical;
- every work value may fall but never rise: the full raw `counters` map
  the run recorded, counter by counter, and the derived per-layer values
  counted per op, admit, solve, strike or pass (Dijkstras, relaxations,
  cache hits, epoch bumps, victims, attempts, ...). A value that counts
  work *avoided* (its name says `pruned`) may rise but never fall;
- ratios (`*_ratio`) and counters recorded on one side only are printed
  as information lines and do not gate: doing less work moves a cache
  hit ratio either way, and a new counter has no parent value.

The scale a CI run uses has no committed fingerprint, so the fingerprint
comparison is what catches a change to outcomes. Every gated value is
exact for a seed; times and time shares are not compared. Exits 1 and
lists the offending values when one moved the wrong way, or when a
workload or fingerprint is missing on one side.

It also prints each workload's end-to-end `alloc_words_per_op`, parent
-> change, as an information line. It does not gate: a change may move
it on purpose, and at a small scale it is approximate. bench/perf reads
it from `Gc.quick_stat`, whose `minor_words` moves only at a minor
collection, so each rep is off by up to one minor heap; on a short run
that can be several percent of the value either way.
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


def load(path):
    with open(path) as f:
        return json.load(f)["workloads"]


def values(run):
    """(workload, kind, name) -> value for every compared value."""
    out = {}
    for w, record in run.items():
        for name, metric in record["per_layer"].items():
            if DERIVED.match(name):
                out[(w, "per_layer", name)] = metric["value"]
        for name, value in record["counters"].items():
            out[(w, "counter", name)] = value
    return out


def verdict(name, a, b):
    """None when [b] may replace [a], else the reason it may not."""
    if name.endswith("_ratio"):
        return None
    if "pruned" in name:
        return "fell" if b < a else None
    return "rose" if b > a else None


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    parent_run, change_run = load(argv[1]), load(argv[2])
    diffs, info = [], []

    for w in sorted(set(parent_run) | set(change_run)):
        if w not in parent_run or w not in change_run:
            diffs.append("%s: workload on one side only" % w)
            continue
        a = parent_run[w].get("fingerprint")
        b = change_run[w].get("fingerprint")
        if a is None or a != b:
            diffs.append("%s fingerprint: parent %r, change %r" % (w, a, b))

    parent, change = values(parent_run), values(change_run)
    for key in sorted(set(parent) | set(change)):
        label = " ".join(key)
        a, b = parent.get(key), change.get(key)
        if a is None or b is None:
            info.append("info: %s: parent %r, change %r (one side only)" % (label, a, b))
        elif a != b:
            why = verdict(key[2], a, b)
            line = "%s: parent %r, change %r" % (label, a, b)
            if why:
                diffs.append("%s (%s)" % (line, why))
            else:
                info.append("info: " + line)

    for line in diffs + info:
        print(line)

    for w in sorted(set(parent_run) & set(change_run)):
        e2e_a = parent_run[w].get("end_to_end", {})
        e2e_b = change_run[w].get("end_to_end", {})
        if "alloc_words_per_op" in e2e_a and "alloc_words_per_op" in e2e_b:
            a = e2e_a["alloc_words_per_op"]["value"]
            b = e2e_b["alloc_words_per_op"]["value"]
            delta = "" if a == 0 else " (%+.1f%%)" % (100.0 * (b - a) / a)
            print(
                "info: %s alloc_words_per_op %.1f -> %.1f%s "
                "(approximate at this scale: counted per minor collection)"
                % (w, a, b, delta)
            )

    keys = set(parent) | set(change)
    print(
        "%d per-layer values, %d raw counters, %d fingerprints compared, "
        "%d gated differences"
        % (
            sum(1 for key in keys if key[1] == "per_layer"),
            sum(1 for key in keys if key[1] == "counter"),
            len(set(parent_run) | set(change_run)),
            len(diffs),
        )
    )
    return 1 if diffs or not parent_run else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
