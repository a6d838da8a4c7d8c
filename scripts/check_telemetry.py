#!/usr/bin/env python3
"""Reconciliation invariants of one run's telemetry (docs/OBSERVABILITY.md).

    python3 scripts/check_telemetry.py TRACE.json PROFILE.json

TRACE.json is a --trace-out document and PROFILE.json the --profile-out
(ad.profile.v2) document of the same run. Checks:

  - spans on one tid nest properly: two spans either nest or are disjoint,
    never partially overlap;
  - every span's self time (its duration minus its direct children's) is
    >= 0, and per span name self <= inclusive;
  - per tid, the summed self time is <= the run's wall time (the trace
    extent: first span start to last span end);
  - every profile row has work_us + lock_wait_us + idle_us <= wall, and
    equals the summed self time of its tid in the trace (rows and trace are
    two views of the same spans).

Exits 1 listing every violation, 0 otherwise.
"""
import json
import sys
from collections import defaultdict


def check(trace, profile):
    """Returns (violations, one-line summary)."""
    errors = []
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    if not spans:
        return ["trace has no spans"], ""
    wall = max(e["ts"] + e["dur"] for e in spans) - min(e["ts"] for e in spans)

    by_tid = defaultdict(list)
    for e in spans:
        by_tid[e["tid"]].append(e)
    self_by_tid = {}
    by_name = defaultdict(lambda: [0, 0])  # name -> [inclusive, self]
    for tid, events in by_tid.items():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open ancestors: [end, event, child_us]
        selfs = []
        for e in events:
            end = e["ts"] + e["dur"]
            while stack and stack[-1][0] <= e["ts"]:
                selfs.append(stack.pop())
            if stack:
                parent = stack[-1]
                if end > parent[0]:
                    errors.append(f"tid {tid}: {e['name']} [{e['ts']}, {end}) partially "
                                  f"overlaps {parent[1]['name']} ending at {parent[0]}")
                parent[2] += e["dur"]
            stack.append([end, e, 0])
        selfs.extend(stack)
        total = 0
        for _, e, child_us in selfs:
            self_us = e["dur"] - child_us
            if self_us < 0:
                errors.append(f"tid {tid}: {e['name']} at {e['ts']} has self time {self_us} us")
            by_name[e["name"]][0] += e["dur"]
            by_name[e["name"]][1] += self_us
            total += self_us
        self_by_tid[tid] = total
        if total > wall:
            errors.append(f"tid {tid}: self time {total} us exceeds wall {wall} us")
    for name, (inclusive, self_us) in sorted(by_name.items()):
        if self_us > inclusive:
            errors.append(f"{name}: self {self_us} us exceeds inclusive {inclusive} us")

    rows = profile.get("threads", [])
    if profile.get("schema") != "ad.profile.v2":
        errors.append(f"profile schema {profile.get('schema')!r}, want 'ad.profile.v2'")
        rows = []  # other schemas have other row layouts
    for row in rows:
        busy = row["work_us"] + row["lock_wait_us"] + row["idle_us"]
        label = f"profile row {row['name']} (tid {row['tid']})"
        if min(row["work_us"], row["lock_wait_us"], row["idle_us"]) < 0:
            errors.append(f"{label}: negative time {row}")
        if busy > wall:
            errors.append(f"{label}: work + lock wait + idle = {busy} us exceeds wall {wall} us")
        if busy != self_by_tid.get(row["tid"], 0):
            errors.append(f"{label}: {busy} us does not match the trace's "
                          f"{self_by_tid.get(row['tid'], 0)} us of self time")
    summary = (f"{len(spans)} spans nest, self time >= 0, "
               f"{len(rows)} profile rows within wall {wall} us "
               f"and equal to the trace's self time")
    return errors, summary


def main(argv):
    if len(argv) != 3:
        print("usage: check_telemetry.py TRACE.json PROFILE.json", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        trace = json.load(f)
    with open(argv[2]) as f:
        profile = json.load(f)
    errors, summary = check(trace, profile)
    for err in errors:
        print(f"FAIL: {err}", file=sys.stderr)
    if errors:
        return 1
    print(f"telemetry ok: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
