#!/usr/bin/env python3
"""Smoke-check cnvsim's user-error surfacing.

Run as the ``cnvsim_cli_errors`` CTest (see tests/CMakeLists.txt):
verifies that `cnv::sim::FatalError` and argument mistakes reach the
user as a non-zero exit with a diagnostic on stderr — the contract
docs/development.md documents for embedding scripts — instead of a
crash, a zero exit, or a silent stdout message.

Cases:
  * unknown network        -> exit 1, "fatal:" + the bad name on stderr
  * unknown flag           -> exit 2, usage text on stderr
  * a flag the command does not read (list --bogus, archs --idz,
    zfnaf --arch)          -> exit 2, usage text on stderr
  * malformed flag value   -> exit 2, diagnostic on stderr
  * unknown --arch id      -> exit 1, "fatal:" + known ids on stderr
  * missing --net (trace)  -> exit 2, usage text on stderr
  * unwritable report path -> exit 1, "fatal:" + the path on stderr
  * non-numeric --jobs     -> exit 2, diagnostic on stderr
  * zero --jobs            -> exit 2, diagnostic on stderr
  * bad --progress value   -> exit 2, diagnostic on stderr
  * empty --perf-json path -> exit 2, diagnostic on stderr
  * bad --mem value        -> exit 2, diagnostic on stderr
  * trailing junk (--images 2x), zero/negative --images, negative
    --seed (run); zero --scale, --floor outside [0, 1] or NaN
    (prune); zero --max-events (trace)
                           -> exit 2, diagnostic on stderr
  * empty --report-json/--report-csv/--trace-out/--stall-csv/--out
    path                   -> exit 2, diagnostic on stderr

With ``--bench BENCH`` a bench binary's command line (the same
option table, driver/options.h) is smoked too:
  * non-numeric --images   -> exit 2, diagnostic on stderr
  * non-numeric --seed     -> exit 2, diagnostic on stderr
  * trailing junk (--images 2x) -> exit 2, diagnostic on stderr
  * trailing junk (--jobs 2x)   -> exit 2, diagnostic on stderr
  * zero --jobs            -> exit 2, diagnostic on stderr
  * bad --mem value        -> exit 2, diagnostic on stderr
  * zero/negative --images -> exit 2, diagnostic on stderr
  * --images given last, without a value
                           -> exit 2, usage text on stderr
  * empty --json/--trace-out path
                           -> exit 2, diagnostic on stderr
  * --json/--trace-out on a bench that writes no such file (BENCH
    should be one that reads --images, --seed, --mem and --quick but
    writes no artifact, e.g. bench_tab02_thresholds)
                           -> exit 2, diagnostic on stderr, no file

Each ``--unread BENCH FLAG VALUE`` adds one case: a flag that BENCH
does not read (e.g. bench_ext_multinode --images 2)
                           -> exit 2, "not supported" on stderr

Usage: smoke_cli_errors.py CNVSIM [--bench BENCH]
                           [--unread BENCH FLAG VALUE ...]
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path


def run(binary: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([binary, *args], capture_output=True, text=True)


def main(argv: list[str]) -> int:
    args = argv[1:]
    bench = None
    unread: list[list[str]] = []
    while "--unread" in args:
        at = args.index("--unread")
        if at + 3 >= len(args):
            print(__doc__, file=sys.stderr)
            return 2
        unread.append(args[at + 1:at + 4])
        args = args[:at] + args[at + 4:]
    if "--bench" in args:
        at = args.index("--bench")
        if at + 1 >= len(args):
            print(__doc__, file=sys.stderr)
            return 2
        bench = args[at + 1]
        args = args[:at] + args[at + 2:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    cnvsim = args[0]
    problems: list[str] = []

    def expect(label: str, proc: subprocess.CompletedProcess,
               code: int, stderr_needles: list[str]) -> None:
        if proc.returncode != code:
            problems.append(
                f"{label}: exit {proc.returncode}, expected {code}")
        for needle in stderr_needles:
            if needle not in proc.stderr:
                problems.append(
                    f"{label}: stderr lacks {needle!r} "
                    f"(stderr was: {proc.stderr!r})")
        if proc.returncode != 0 and not proc.stderr.strip():
            problems.append(f"{label}: non-zero exit but empty stderr")

    expect("unknown network",
           run(cnvsim, "run", "no-such-net", "--images", "1"),
           1, ["fatal:", "no-such-net"])
    expect("unknown flag",
           run(cnvsim, "run", "alex", "--bogus-flag"),
           2, ["usage:"])
    # Each command accepts only the flags it reads.
    for label, args in [("list --bogus", ["list", "--bogus"]),
                        ("archs --idz", ["archs", "--idz"]),
                        ("zfnaf --arch", ["zfnaf", "nin", "--arch", "cnv"])]:
        expect(f"unread flag {label}", run(cnvsim, *args), 2, ["usage:"])
    expect("malformed flag value",
           run(cnvsim, "run", "alex", "--images", "notanumber"),
           2, ["invalid value", "--images"])
    expect("unknown --arch id",
           run(cnvsim, "run", "nin", "--images", "1",
               "--arch", "dadiannao,eyeriss"),
           1, ["fatal:", "eyeriss", "dadiannao"])
    expect("trace without --net",
           run(cnvsim, "trace", "--images", "1"),
           2, ["usage:"])
    expect("unwritable report path",
           run(cnvsim, "run", "nin", "--images", "1",
               "--report-json", "/nonexistent-dir/report.json"),
           1, ["fatal:", "/nonexistent-dir/report.json"])
    expect("non-numeric --jobs",
           run(cnvsim, "run", "nin", "--images", "1",
               "--jobs", "notanumber"),
           2, ["invalid value", "--jobs"])
    expect("zero --jobs",
           run(cnvsim, "run", "nin", "--images", "1", "--jobs", "0"),
           2, ["invalid value", "--jobs"])
    expect("bad --progress value",
           run(cnvsim, "run", "nin", "--images", "1",
               "--progress", "bogus"),
           2, ["invalid value", "--progress"])
    expect("empty --perf-json path",
           run(cnvsim, "run", "nin", "--images", "1", "--perf-json", ""),
           2, ["invalid value", "--perf-json"])
    expect("bad --mem value",
           run(cnvsim, "run", "nin", "--images", "1", "--mem", "bogus"),
           2, ["invalid value", "--mem"])

    # Strict numbers: the whole value must parse, in range, with no
    # sign wrap-around (a negative seed used to become 2^64 - 1).
    # Each case runs on a command that reads the flag.
    bad_numbers = [("run", "--images", "2x"), ("run", "--images", "0"),
                   ("run", "--images", "-3"), ("run", "--seed", "-1"),
                   ("prune", "--scale", "0"),
                   ("trace", "--max-events", "0"),
                   ("prune", "--floor", "1.5"),
                   ("prune", "--floor", "-0.1"),
                   ("prune", "--floor", "nan")]
    for command, flag, value in bad_numbers:
        expect(f"bad {flag} {value}",
               run(cnvsim, command, "nin", f"{flag}={value}"),
               2, ["invalid value", flag, value])
    # Empty output paths used to exit 0 and silently write nothing.
    for command, flag in [("run", "--report-json"),
                          ("run", "--report-csv"),
                          ("trace", "--trace-out"),
                          ("trace", "--stall-csv"),
                          ("export-traces", "--out")]:
        expect(f"empty {flag} path",
               run(cnvsim, command, "nin", f"{flag}="),
               2, ["invalid value", flag])

    cases = 14 + len(bad_numbers) + 5
    if bench is not None:
        expect("bench non-numeric --images",
               run(bench, "--images", "notanumber"),
               2, ["invalid value", "--images"])
        expect("bench non-numeric --seed",
               run(bench, "--seed", "twenty"),
               2, ["invalid value", "--seed"])
        expect("bench trailing junk in --images",
               run(bench, "--images", "2x"),
               2, ["invalid value", "2x"])
        expect("bench trailing junk in --jobs",
               run(bench, "--jobs", "2x"),
               2, ["invalid value", "--jobs"])
        expect("bench zero --jobs",
               run(bench, "--jobs", "0"),
               2, ["invalid value", "--jobs"])
        expect("bench bad --mem value",
               run(bench, "--mem", "bogus"),
               2, ["invalid value", "--mem"])
        for value in ("0", "-2"):
            expect(f"bench --images {value}",
                   run(bench, f"--images={value}"),
                   2, ["invalid value", "--images", value])
        expect("bench --images without a value",
               run(bench, "--quick", "--images"),
               2, ["missing value", "--images", "options:"])
        for flag in ("--json", "--trace-out"):
            expect(f"bench empty {flag} path",
                   run(bench, f"{flag}="),
                   2, ["invalid value", flag])
        with tempfile.TemporaryDirectory() as tmp:
            for flag in ("--json", "--trace-out"):
                out = Path(tmp) / "unwritten.json"
                expect(f"bench unsupported {flag}",
                       run(bench, "--quick", flag, str(out)),
                       2, ["not supported", flag])
                if out.exists():
                    problems.append(f"bench unsupported {flag}: "
                                    f"{out.name} was written")
        cases += 13
    for binary, flag, value in unread:
        expect(f"{Path(binary).name} unread {flag}",
               run(binary, flag, value),
               2, ["not supported", flag])
    cases += len(unread)

    for p in problems:
        print(f"smoke_cli_errors: {p}", file=sys.stderr)
    print(f"smoke_cli_errors: {cases} cases, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
