#!/usr/bin/env python3
"""Gate incremental state matching against its edit-loop records.

Reads the "edit-loop/<grammar>/<k>" rows of BENCH_batch_analyze.json
(schema 8+). Each post-baseline row carries the state correspondence of
that edit: "states_reused" (new states kernel-matched to a state of the
previous generation) and "states_rebuilt" (new states with no old
counterpart) — or neither when the delta was invalid and the session
offered no state map. The conflict-report remap layer can only re-serve
reports whose states matched. batch_analyze already exits nonzero when
the session's automaton is not byte-identical to a cold build, so this
script enforces only the matching economics:

1. Matching is exercised: each gated grammar needs at least one
   *structural* edit (states_rebuilt > 0; edits like precedence toggles
   match every state trivially and prove nothing).

2. Matching is narrow: on every structural edit, the matched share
   states_reused / (states_reused + states_rebuilt) must exceed
   --min-state-reuse (default 0.50). A localized production edit that
   leaves half the machine unmatched means the delta's maps leak.

Edits without a state map are reported and exempt: the session is
*supposed* to refuse one when the delta cannot be trusted.

Usage:
  check_automaton_reuse.py <current.json>
        [--grammars sql] [--min-state-reuse 0.50]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    rows = {}
    for rec in data.get("records", []):
        name = rec.get("name", "")
        if not name.startswith("edit-loop/"):
            continue
        try:
            k = int(name.rsplit("/", 1)[1])
        except ValueError:
            continue
        rows.setdefault(rec.get("grammar", "?"), []).append((k, rec))
    for recs in rows.values():
        recs.sort()
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("--grammars", default="",
                    help="comma-separated grammars that must be present "
                         "and pass (default: every grammar in the file)")
    ap.add_argument("--min-state-reuse", type=float, default=0.50,
                    help="minimum matched share of states on every "
                         "structural edit (default 0.50)")
    args = ap.parse_args()

    rows = load(args.current)
    if not rows:
        print(f"error: no edit-loop records in {args.current}",
              file=sys.stderr)
        return 2

    gated = ([g.strip() for g in args.grammars.split(",") if g.strip()]
             or sorted(rows))
    failed = False

    for grammar in gated:
        recs = rows.get(grammar)
        if not recs:
            print(f"error: no edit-loop records for grammar '{grammar}' "
                  f"in {args.current}", file=sys.stderr)
            failed = True
            continue

        structural = 0
        for k, rec in recs:
            if k == 0:
                continue  # baseline build, nothing to match
            edit = rec.get("edit", "?")
            if "states_reused" not in rec:
                print(f"  {grammar} #{k} [{edit}]: no state map "
                      f"(invalid delta) exempt")
                continue
            matched = rec.get("states_reused", 0)
            unmatched = rec.get("states_rebuilt", 0)
            total = matched + unmatched
            if unmatched == 0:
                print(f"  {grammar} #{k} [{edit}]: matched "
                      f"{matched}/{total} states (non-structural)")
                continue
            structural += 1
            sh = matched / total
            verdict = "OK" if sh > args.min_state_reuse else "CONE TOO WIDE"
            if verdict != "OK":
                failed = True
            print(f"  {grammar} #{k} [{edit}]: matched {matched}/{total} "
                  f"states = {sh:.3f} "
                  f"(floor {args.min_state_reuse:.2f}) {verdict}")

        if structural == 0:
            print(f"  {grammar}: no structural edit in the stream "
                  f"NO MATCH COVERAGE", file=sys.stderr)
            failed = True
            continue
        print(f"  {grammar}: {structural} structural edit(s) gated")

    if failed:
        print("automaton reuse gate FAILED", file=sys.stderr)
        return 1
    print("automaton reuse gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
