#!/usr/bin/env python3
"""Gate incremental re-analysis against its edit-loop bench records.

Validates the "edit-loop/<grammar>/<k>" rows of BENCH_batch_analyze.json
(schema 8), produced by `batch_analyze -edit-loop`. Each row measures one
edit of a seeded edit stream twice: incrementally (session advance plus
conflict-level cache reuse and report remapping, "wall_ms_warm") and as
a cold recompute ("wall_ms_cold"); batch_analyze itself already failed
the run if either the rendered reports or the serialized automatons
diverged, so this script gates only the economics:

1. Reuse happens: every gated grammar must have at least one post-baseline
   edit with conflicts_reused > 0 (renames, precedence and %expect edits
   keep the automaton structure, so a stream over the default edit menu
   that never reuses means the fine-grained keys are broken).

2. Full reuse pays: on every fully-served edit (conflicts_reused > 0 and
   conflicts_recomputed == 0) the per-edit warm wall time must be below
   --max-warm-ratio of that edit's cold recompute. Partially-served edits
   (both counters positive, possible since the structural remap layer)
   spend their residual on conflicts the edit genuinely invalidated, so
   they are reported but not ratio-gated; fully-cold edits
   (conflicts_reused == 0) recompute by design and are exempt too.

3. Structural reuse pays: every gated grammar must have at least one
   *structural* edit — one that left new states without an old
   counterpart (states_rebuilt > 0), or that re-served reports through
   the remap layer (conflicts_remapped > 0) — with conflicts_reused > 0
   and a warm/cold ratio at or below --max-warm-ratio. Before the remap
   layer these edits were 100% cold; this clause is the regression gate
   on the layer's reason to exist.

Edit #0 is the pre-edit baseline priming the cache and is never gated.

Usage:
  check_incremental_regression.py <current.json>
        [--grammars sql,Java.2] [--max-warm-ratio 0.30]
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
    return data, rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("--grammars", default="",
                    help="comma-separated grammars that must be present "
                         "and pass (default: every grammar in the file)")
    ap.add_argument("--max-warm-ratio", type=float, default=0.30,
                    help="per-edit warm/cold wall-time ceiling on "
                         "fully-served edits and on the best structural "
                         "edit (default 0.30)")
    args = ap.parse_args()

    _, rows = load(args.current)
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

        reused_total = 0
        structural_ok = False
        structural_seen = False
        for k, rec in recs:
            if k == 0:
                continue  # baseline priming run
            reused = rec.get("conflicts_reused", 0)
            recomputed = rec.get("conflicts_recomputed", 0)
            remapped = rec.get("conflicts_remapped", 0)
            cold = rec.get("wall_ms_cold", 0)
            warm = rec.get("wall_ms_warm", 0)
            edit = rec.get("edit", "?")
            # A structural edit left unmatched states or went through
            # the report-remap layer.
            structural = (rec.get("states_rebuilt", 0) > 0
                          or remapped > 0)
            if structural:
                structural_seen = True
            if reused <= 0:
                print(f"  {grammar} #{k} [{edit}]: no reuse, "
                      f"cold fallback ({warm:.1f} / {cold:.1f} ms) exempt")
                continue
            reused_total += reused
            if cold <= 0:
                print(f"error: {grammar} #{k}: unusable cold time {cold}",
                      file=sys.stderr)
                failed = True
                continue
            ratio = warm / cold
            if structural and ratio <= args.max_warm_ratio:
                structural_ok = True
            if recomputed > 0:
                print(f"  {grammar} #{k} [{edit}]: partial reuse "
                      f"{reused}/{reused + recomputed}, warm {warm:.1f} ms "
                      f"/ cold {cold:.1f} ms = {ratio:.3f} (residual is "
                      f"invalidated work; not ratio-gated)")
                continue
            verdict = "OK" if ratio <= args.max_warm_ratio else "TOO SLOW"
            if verdict != "OK":
                failed = True
            print(f"  {grammar} #{k} [{edit}]: reused {reused}, warm "
                  f"{warm:.1f} ms / cold {cold:.1f} ms = {ratio:.3f} "
                  f"(limit {args.max_warm_ratio:.2f}) {verdict}")

        if reused_total == 0:
            print(f"  {grammar}: no edit with conflicts_reused > 0 "
                  f"NO REUSE", file=sys.stderr)
            failed = True
        else:
            print(f"  {grammar}: {reused_total} conflict report(s) "
                  f"re-served across the stream OK")
        if structural_seen and not structural_ok:
            print(f"  {grammar}: no structural edit reused conflicts at "
                  f"<= {args.max_warm_ratio:.2f} of cold "
                  f"STRUCTURAL REUSE TOO SLOW", file=sys.stderr)
            failed = True

    if failed:
        print("incremental re-analysis gate FAILED", file=sys.stderr)
        return 1
    print("incremental re-analysis gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
