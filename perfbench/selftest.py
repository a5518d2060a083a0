#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json and run.py agree on every workload and
metric name, and that the gates can fail: a run whose iterations are
slower must be flagged against its bound, and an iteration with a
changed cycle count must fail the output check. It also checks that
the excluded design_sweep pair still raises, that cnv-pruned's
default prune config is the one the traced run assumes, that every
workload prints exactly the declared metrics in both modes, and that
the benchmark fails without printing a result when the simulator's
sources are missing. Exit code 0 means every check passed.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def spec_checks(spec):
    names = [w["name"] for w in spec["workloads"]]
    check(tuple(names) == run.WORKLOADS,
          "BENCHMARK.json workloads match run.py")
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = [m["name"] for m in metrics]
    check(len(set(all_names)) == len(all_names), "metric names are unique")
    check(all(NAME.fullmatch(n) for n in all_names),
          "metric names match [A-Za-z0-9_.-]+")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and
              m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s is declared")


def gate_checks(spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    pinned = json.loads(run.PINNED.read_text())["zoo_cold"]

    # An iteration with one changed cycle count fails the output check.
    distorted = json.loads(json.dumps(pinned))
    distorted["nin/cnv/ideal"]["cycles"] += 1
    attempted, failed, _ = run.check_outputs(
        [{"ops": pinned}, {"ops": distorted}], pinned)
    check(attempted == 2 * len(pinned) and failed == 1,
          "a changed cycle count is flagged")
    _, failed, _ = run.check_outputs([{"ops": pinned}], pinned)
    check(failed == 0, "unchanged outputs pass")

    # Iterations 50% slower are flagged by iter_s_p50's bound; the same
    # runs again are not.
    def runs(scale):
        return [{"workload": "zoo_cold", "setup_s": 0.001,
                 "sim_macs_per_iteration": 1e11, "peak_rss_bytes": 2**26,
                 "peak_heap_bytes": 2**25, "setups": 9,
                 "iterations": [{"wall_s": scale * (1.0 + 0.01 * i),
                                 "ops": pinned} for i in range(20)]}
                for _ in range(3)]

    def values(scale):
        return [run.end_to_end(r, r["iterations"]) for r in runs(scale)]

    base = values(1.0)
    for name in ("iter_s_p50", "iter_s_tail", "sim_gmac_per_s"):
        check(run.regressed(bounds[name], base, values(1.5)),
              f"slower iterations are flagged by {name}")
        check(not run.regressed(bounds[name], base, values(1.0)),
              f"equal iterations pass {name}")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def live_checks(spec):
    run.build()
    proc = subprocess.run([str(run.BINARY), "--check-assumptions"],
                          capture_output=True, text=True)
    check(proc.returncode == 0,
          "alex x cnv-b32 still raises FatalError, and cnv-pruned's "
          "default prune config is the one the trace prefetch assumes: " +
          "; ".join(proc.stdout.strip().splitlines()))

    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"),
                 "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT)
            out = last_json(proc.stdout)
            declared = {m["name"]: m["unit"] for m in spec[key]}
            check(proc.returncode == 0 and out is not None and
                  set(out) == {"correct", "attempted", "failed", "metrics"}
                  and out["correct"] and out["failed"] == 0 and
                  {k: v["unit"] for k, v in out["metrics"].items()} ==
                  declared,
                  f"{workload} --trace {trace} prints the declared metrics")

    # Without the simulator's sources the benchmark must fail.
    bare = run.ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zoo_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "fails without a result when the sources are missing")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec_checks(spec)
    gate_checks(spec)
    live_checks(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
