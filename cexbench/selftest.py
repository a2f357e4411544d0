#!/usr/bin/env python3
"""Tiny self-run of the benchmark: every workload once untraced and once
traced, one pass each (--seconds 1), checking that the last line is the
JSON result, that it reports correct with no failed operation, and that
it names every metric BENCHMARK.json lists for that mode, with the listed
unit.

    python3 cexbench/selftest.py

Run from the root of a checkout; exits 0 when every check passes. Takes
about a minute and a half on 4 cores, most of it edit-loop's cold
reference analyses.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload["name"],
                                     "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            where = "%s --trace %d" % (workload["name"], trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s: no JSON result (exit %d)\n%s"
                                % (where, proc.returncode, proc.stderr))
                continue
            if proc.returncode != 0 or not result["correct"] or \
                    result["failed"] != 0:
                problems.append("%s: exit %d, correct %s, %d failed"
                                % (where, proc.returncode, result["correct"],
                                   result["failed"]))
            metrics = result["metrics"]
            for m in wanted[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (where,
                                                               m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: metric %s in %s, listed as %s"
                                    % (where, m["name"], got["unit"],
                                       m["unit"]))
            extra = set(metrics) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append("%s: unlisted metrics %s"
                                % (where, sorted(extra)))
            print("%-24s %d metrics" % (where, len(metrics)), flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
