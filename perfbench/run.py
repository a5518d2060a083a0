#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, check
its simulated outputs and print the metrics BENCHMARK.json names.

Usage (from the repository root):

    python3 perfbench/run.py --workload zoo_cold --seed 2016 \\
        --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans to .bench_build/traces/ as Chrome trace JSON).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every
simulated output matched its reference. perfbench/README.md describes
the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cnv"
BINARY = BUILD / "perfbench_cnv"
WORKLOADS = ("zoo_cold", "design_sweep", "prune_search")
DEFAULT_SEED = 2016
PINNED = HERE / "pinned_seed2016.json"
RUN_TIMEOUT_S = 170

# Paper Figure 9 bars (EXPERIMENTS.md): CNV, and CNV with pruning.
PAPER_CNV = {"alex": 1.35, "google": 1.24, "nin": 1.28, "vgg19": 1.40,
             "cnnM": 1.40, "cnnS": 1.55}
PAPER_PRUNED = {"alex": 1.53, "google": 1.37, "nin": 1.39, "vgg19": 1.57,
                "cnnM": 1.56, "cnnS": 1.75}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark program from source."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no simulator sources under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
             f"-DCMAKE_PROJECT_cnvlutin_INCLUDE={HERE / 'perfbench.cmake'}"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "perfbench_cnv"],
                   check=True, stdout=sys.stderr)


def run_program(args):
    """Run perfbench_cnv; returns its raw JSON document."""
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", str(BUILD)]
    if args.seed != DEFAULT_SEED:
        cmd.append("--reference")
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                          timeout=RUN_TIMEOUT_S)
    return json.loads(proc.stdout)


def check_outputs(iterations, expected):
    """Compare every iteration's operations against the reference.

    Returns (attempted, failed, first mismatch or None). An operation
    fails when its outputs differ from the reference or when it is
    missing; an operation the reference does not know also fails.
    """
    attempted = failed = 0
    first = None
    for n, it in enumerate(iterations):
        ops = it["ops"]
        for key in sorted(set(expected) | set(ops)):
            attempted += 1
            if ops.get(key) != expected.get(key):
                failed += 1
                if first is None:
                    first = (f"iteration {n}: {key}: got {ops.get(key)}, "
                             f"expected {expected.get(key)}")
    return attempted, failed, first


def tail(walls):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile). With ten samples or fewer no such
    percentile exists, and the maximum is reported as the 100th.
    """
    s = sorted(walls)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def fig9_err(workload, ops):
    """Mean absolute relative error of one iteration's simulated
    speedups against the paper's Figure 9 (0 if it has none)."""
    errs = []
    if workload == "prune_search":
        for key, value in ops.items():
            net = key.split("/")[0]
            errs.append(abs(value["speedup"] / PAPER_PRUNED[net] - 1))
    else:
        for net, paper in PAPER_CNV.items():
            base = ops.get(f"{net}/dadiannao/ideal")
            cnv = ops.get(f"{net}/cnv/ideal")
            if base and cnv:
                errs.append(abs(base["cycles"] / cnv["cycles"] / paper - 1))
    return statistics.fmean(errs) if errs else 0.0


def end_to_end(raw, timed):
    walls = [it["wall_s"] for it in timed]
    tail_s, tail_pct = tail(walls)
    log(f"iterations: {len(walls)}; iter_s_tail is the "
        f"{tail_pct:.1f}th percentile; set-ups: {raw['setups']}; "
        f"peak RSS {raw['peak_rss_bytes'] / 2**20:.1f} MiB")
    return {
        "setup_s": raw["setup_s"],
        "iter_s_p50": statistics.median(walls),
        "iter_s_tail": tail_s,
        "sim_gmac_per_s":
            raw["sim_macs_per_iteration"] * len(walls) / sum(walls) / 1e9,
        "peak_heap_mb": raw["peak_heap_bytes"] / 2**20,
    }


def regressed(metric, base_runs, new_runs):
    """The rule a BENCHMARK.json bound states: True when the median of
    `metric` over new_runs is worse than over base_runs by more than
    the metric's bound (a share of the base median)."""
    base = statistics.median(r[metric["name"]] for r in base_runs)
    new = statistics.median(r[metric["name"]] for r in new_runs)
    worse = new / base - 1 if metric["better"] == "lower" else 1 - new / base
    return worse > metric["bound"]


def per_layer(raw, fig9):
    ranked = sorted(raw["self_by_layer"].items(), key=lambda kv: -kv[1])
    log("self time per iteration, largest first: " +
        ", ".join(f"{k} {v:.3f} s" for k, v in ranked[:4]))
    log(f"largest self-time layer: {ranked[0][0]}")
    return dict(raw["layers"], **{"timing.fig9_err": fig9})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        build()
        raw = run_program(args)
    except (OSError, RuntimeError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        return 2

    if args.seed == DEFAULT_SEED:
        expected = json.loads(PINNED.read_text())[args.workload]
    else:
        expected = raw["reference"]  # one job: also proves jobs-independence
    attempted, failed, first = check_outputs(raw["iterations"], expected)
    if first:
        log(f"MISMATCH {first}")
    log(f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted} "
        f"operations)")

    timed = [it for it in raw["iterations"]
             if not it.get("warmup") and not it.get("traced")]
    fig9 = fig9_err(args.workload, raw["iterations"][-1]["ops"])
    log(f"fig9_err: {fig9:.6g}")
    values = per_layer(raw, fig9) if args.trace else end_to_end(raw, timed)
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            log(f"perfbench: metric {m['name']} was not measured")
            return 2
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
