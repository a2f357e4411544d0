#!/usr/bin/env python3
"""Build the lalrcex benchmark program from source and run one workload.

    python3 cexbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a repository checkout. The program is configured and
built under $CARGO_TARGET_DIR (default .bench_build) on first use and
re-made (a no-op when current) on every run; build output goes to stderr.
Its standard output passes through unchanged, so the last line
is the JSON result. Scratch files (cache directories, the Chrome trace)
go under <build dir>/run/<workload>/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    """Configure once, then build only the program and the libraries it
    links. Returns the program's path, or None on failure."""
    build_dir = os.path.join(build_root, "cexbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "cexbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "cexbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The benchmark measures the library next to it; without the sources
    # there is nothing to build, and no result is printed.
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("cexbench: no lalrcex sources at %s/src" % ROOT, file=sys.stderr)
        return 2

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_root)
    if exe is None:
        print("cexbench: build failed", file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT,
           "--workdir", os.path.join(build_root, "run", args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
