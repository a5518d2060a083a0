#!/usr/bin/env python3
"""Pin the bench binaries' job-count invariance end to end.

Run as the ``bench_determinism`` CTest (see tests/CMakeLists.txt):
runs each given bench at ``--images 1`` with ``--jobs 1`` and again
with ``--jobs 4`` and requires byte-identical stdout. The benches
named in tests/CMakeLists.txt sweep the zoo through
``driver::evaluateNetworks``, whose (network x arch x image) grid
commits in order; a table that moved with the worker count would
mean a result depends on scheduling.

Usage: smoke_bench_determinism.py BENCH [BENCH ...]
"""

from __future__ import annotations

import pathlib
import subprocess
import sys


def run(bench: str, jobs: int) -> subprocess.CompletedProcess:
    return subprocess.run([bench, "--images", "1", "--jobs", str(jobs)],
                          capture_output=True, text=True)


def main(argv: list[str]) -> int:
    benches = argv[1:]
    if not benches:
        print(__doc__, file=sys.stderr)
        return 2
    failures = 0
    for bench in benches:
        name = pathlib.Path(bench).name
        procs = {jobs: run(bench, jobs) for jobs in (1, 4)}
        failed = [jobs for jobs, p in procs.items() if p.returncode != 0]
        if failed:
            for jobs in failed:
                print(f"smoke_bench_determinism: {name} --jobs {jobs} "
                      f"failed (exit {procs[jobs].returncode}): "
                      f"{procs[jobs].stderr}", file=sys.stderr)
            failures += 1
            continue
        if "===" not in procs[1].stdout:
            print(f"smoke_bench_determinism: {name}: no table in stdout: "
                  f"{procs[1].stdout!r}", file=sys.stderr)
            failures += 1
        elif procs[1].stdout != procs[4].stdout:
            print(f"smoke_bench_determinism: {name}: stdout differs "
                  f"between --jobs 1 and --jobs 4:\n  jobs=1: "
                  f"{procs[1].stdout!r}\n  jobs=4: {procs[4].stdout!r}",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"smoke_bench_determinism: {name}: stdout "
                  "byte-identical between --jobs 1 and --jobs 4")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
