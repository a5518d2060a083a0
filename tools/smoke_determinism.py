#!/usr/bin/env python3
"""Pin the parallel runtime's determinism guarantee end to end.

Run as the ``cnvsim_determinism`` CTest (see tests/CMakeLists.txt):
executes the same ``cnvsim run --report-json`` experiment with
``--jobs 1`` and ``--jobs 4`` and asserts the two reports are
byte-identical apart from the ``hostProfile`` block (wall-clock host
telemetry, volatile by nature) and the lines carrying the manifest's
``jobs`` field and the ``wallSeconds`` timing — the contract
documented in docs/architecture.md ("Threading model and
determinism"): every result, stat tree, and cache counter must be
invariant under the worker-pool size.

Three experiments run: every built-in architecture on nin under the
default ideal memory model; the same sweep under ``--mem banked`` —
the banked hierarchy's conflict, buffer and DRAM counters must be
just as job-count-invariant as the cycle counts (one
`mem::MemoryModel` per (arch, image) task, never shared across
workers); and a one-image vgg19 run over dadiannao/cnv/cnv2,
where the (arch x image) grid is only three tasks and nearly all the
parallelism is the cache warm's fan-out across conv layers.

A fourth pair runs ``cnvsim trace`` on nin over every built-in
architecture under ``--mem banked`` and requires the ``--trace-out``
trace-event JSON and the ``--stall-csv`` file to be byte-identical
outright (neither carries host telemetry).

The JSON writer emits one key per line, so dropping the brace-
balanced ``hostProfile`` block and then filtering whole lines
containing the two volatile keys is exact, not heuristic. (String
values never contain braces in these reports, so brace counting is
safe.)

Usage: smoke_determinism.py CNVSIM OUTDIR
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

VOLATILE_KEYS = ('"jobs"', '"wallSeconds"')
ALL_ARCHS = "dadiannao,cnv,cnv2,cnv-pruned,cnv-b4,cnv-b8,cnv-b32"

def strip_host_profile(lines: list[str], path: pathlib.Path) -> list[str]:
    """Drop the whole "hostProfile": { ... } block (exactly one)."""
    kept: list[str] = []
    depth = 0
    found = False
    for line in lines:
        if depth > 0:
            depth += line.count("{") - line.count("}")
            if depth <= 0:
                depth = 0
            continue
        if '"hostProfile"' in line:
            found = True
            depth = line.count("{") - line.count("}")
            continue
        kept.append(line)
    if not found:
        print(f"smoke_determinism: no hostProfile block in {path} — "
              "did the report schema change?", file=sys.stderr)
        sys.exit(1)
    return kept


def report_lines(path: pathlib.Path) -> list[str]:
    lines = strip_host_profile(path.read_text().splitlines(), path)
    kept = [l for l in lines
            if not any(key in l for key in VOLATILE_KEYS)]
    dropped = len(lines) - len(kept)
    if dropped != len(VOLATILE_KEYS):
        print(f"smoke_determinism: expected to drop exactly "
              f"{len(VOLATILE_KEYS)} volatile lines from {path}, "
              f"dropped {dropped}", file=sys.stderr)
        sys.exit(1)
    return kept


def compare_pair(cnvsim: str, outdir: pathlib.Path, label: str,
                 net: str, images: int, extra_args: list[str]) -> int:
    """Run the experiment at --jobs 1 and 4; 0 when identical."""
    reports = {}
    for jobs in (1, 4):
        path = outdir / f"report-{label}-jobs{jobs}.json"
        proc = subprocess.run(
            [cnvsim, "run", net, "--images", str(images),
             "--seed", "2016", "--jobs", str(jobs),
             *extra_args, "--report-json", str(path)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"smoke_determinism: {label} --jobs {jobs} run "
                  f"failed (exit {proc.returncode}): {proc.stderr}",
                  file=sys.stderr)
            return 1
        reports[jobs] = report_lines(path)

    if reports[1] != reports[4]:
        for a, b in zip(reports[1], reports[4]):
            if a != b:
                print(f"smoke_determinism: {label}: first divergence:\n"
                      f"  jobs=1: {a}\n  jobs=4: {b}", file=sys.stderr)
                break
        else:
            print(f"smoke_determinism: {label}: line counts differ: "
                  f"{len(reports[1])} vs {len(reports[4])}",
                  file=sys.stderr)
        return 1

    print(f"smoke_determinism: {label}: {len(reports[1])} report "
          "lines byte-identical between --jobs 1 and --jobs 4")
    return 0


def compare_trace_pair(cnvsim: str, outdir: pathlib.Path) -> int:
    """Run ``cnvsim trace`` at --jobs 1 and 4; 0 when identical."""
    outputs = {}
    for jobs in (1, 4):
        trace = outdir / f"trace-jobs{jobs}.json"
        stalls = outdir / f"stalls-jobs{jobs}.csv"
        proc = subprocess.run(
            [cnvsim, "trace", "nin", "--arch", ALL_ARCHS,
             "--mem", "banked", "--seed", "2016", "--jobs", str(jobs),
             "--trace-out", str(trace), "--stall-csv", str(stalls)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"smoke_determinism: trace --jobs {jobs} failed "
                  f"(exit {proc.returncode}): {proc.stderr}",
                  file=sys.stderr)
            return 1
        outputs[jobs] = (trace.read_bytes(), stalls.read_bytes())

    failures = 0
    if outputs[1][1].count(b"\n") < 2:
        print("smoke_determinism: trace: stall CSV has no data rows",
              file=sys.stderr)
        failures += 1
    for index, what in enumerate(("trace JSON", "stall CSV")):
        if outputs[1][index] != outputs[4][index]:
            print(f"smoke_determinism: trace: {what} differs between "
                  "--jobs 1 and --jobs 4", file=sys.stderr)
            failures += 1
    if failures == 0:
        print("smoke_determinism: trace: trace JSON and stall CSV "
              "byte-identical between --jobs 1 and --jobs 4")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cnvsim, outdir = argv[1], pathlib.Path(argv[2])
    outdir.mkdir(parents=True, exist_ok=True)

    failures = compare_pair(
        cnvsim, outdir, "ideal", "nin", 2, ["--arch", ALL_ARCHS])
    failures += compare_pair(
        cnvsim, outdir, "banked", "nin", 2,
        ["--arch", ALL_ARCHS, "--mem", "banked"])
    failures += compare_pair(
        cnvsim, outdir, "vgg19", "vgg19", 1,
        ["--arch", "dadiannao,cnv,cnv2"])
    failures += compare_trace_pair(cnvsim, outdir)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
