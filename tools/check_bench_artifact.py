#!/usr/bin/env python3
"""Validate a committed benchmark artifact against cnv-figure-v1.

Run as the ``bench_artifact_schema`` CTest over the checked-in
``BENCH_*.json`` files (the pinned outputs of
``bench_fig09_speedup --json``): parses the JSON and asserts the
shape the docs promise — ``schema`` is ``cnv-figure-v1``, the
``figure`` name and provenance ``manifest`` are present, and the
``data`` stat tree is non-empty. Optional ``--require KEY`` arguments
assert that a named stat appears somewhere in the tree (used to pin
the cnv2 columns into the committed figure). With ``--host-profile``
the artifact must additionally carry a populated ``hostProfile``
block (docs/observability.md, "Host telemetry"): positive
``totalSeconds``, ScopedPhase timers covering at least 90% of it
(``phaseCoverage``), at least one trace-cache count-map miss, and a
non-empty worker table — the fields the perf-regression gate reads.

Usage: check_bench_artifact.py ARTIFACT.json [--require KEY ...]
                               [--host-profile]
"""

from __future__ import annotations

import json
import pathlib
import sys

MANIFEST_FIELDS = ("tool", "gitSha", "version", "images", "seed",
                   "weightSparsity")

# Share of hostProfile.totalSeconds the bench's phases must account for.
MIN_PHASE_COVERAGE = 0.9


def collect_keys(node: object, out: set[str]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            out.add(key)
            collect_keys(value, out)
    elif isinstance(node, list):
        for value in node:
            collect_keys(value, out)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = pathlib.Path(argv[1])
    required = [argv[i + 1] for i, a in enumerate(argv)
                if a == "--require" and i + 1 < len(argv)]
    check_host_profile = "--host-profile" in argv

    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench_artifact: {path}: {err}", file=sys.stderr)
        return 1

    problems = []
    if doc.get("schema") != "cnv-figure-v1":
        problems.append(f"schema is {doc.get('schema')!r}, expected "
                        "'cnv-figure-v1'")
    if not doc.get("figure"):
        problems.append("missing 'figure' name")
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        problems.append("missing 'manifest' object")
    else:
        for field in MANIFEST_FIELDS:
            if field not in manifest:
                problems.append(f"manifest missing '{field}'")
    data = doc.get("data")
    if not isinstance(data, dict) or not data:
        problems.append("missing or empty 'data' stat tree")

    keys: set[str] = set()
    collect_keys(data, keys)
    for key in required:
        if key not in keys:
            problems.append(f"required stat '{key}' absent from data")

    if check_host_profile:
        hp = doc.get("hostProfile")
        if not isinstance(hp, dict):
            problems.append("missing 'hostProfile' object")
        else:
            if not hp.get("totalSeconds", 0) > 0:
                problems.append("hostProfile.totalSeconds is not > 0")
            coverage = hp.get("phaseCoverage", 0)
            if not coverage >= MIN_PHASE_COVERAGE:
                problems.append(
                    f"hostProfile.phaseCoverage {coverage!r} < "
                    f"{MIN_PHASE_COVERAGE}")
            cache = hp.get("traceCache", {})
            if not cache.get("countMapMisses", 0) > 0:
                problems.append(
                    "hostProfile.traceCache.countMapMisses is not > 0")
            if "hitRate" not in cache:
                problems.append("hostProfile.traceCache.hitRate missing")
            workers = hp.get("pool", {}).get("workers", {})
            if not workers:
                problems.append("hostProfile.pool.workers is empty")

    for p in problems:
        print(f"check_bench_artifact: {path}: {p}", file=sys.stderr)
    print(f"check_bench_artifact: {path.name}: {len(problems)} "
          "problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
