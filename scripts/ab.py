#!/usr/bin/env python3
"""Time one `ep-nozzle` command at a git revision and in the working tree, in
alternating pairs.

usage: python scripts/ab.py REF CONFIG [--pairs N] [--seed S] [--command C]

REF (a commit, branch or tag) is exported with `git archive` (`revision.py`)
into a temporary directory. CONFIG is an INI config, run with subcommand C
(default `solve`), or the name of a benchmark workload of
`perfbench/workloads.py`, run with its own subcommand on the config of seed S
(default 0) and the attempt that `perfbench/reference.json` accepted.

After one discarded run of each side, to warm the file cache, the script runs
REF's command and this tree's alternately, one at a time, N pairs (default
25), with one BLAS thread; within a pair the side that goes first alternates
too. Each command is `cli.main` in a fresh interpreter, started from the
side's `src`, as the `ep-nozzle` entry point starts it, under the benchmark
harness's address-space limit (`RLIMIT_AS` of 3 GiB, set before the
package is imported), with glibc's `MALLOC_TRIM_THRESHOLD_` set (`FIXED_HEAP`),
and the output directory is removed before each run.
It prints the median and the quartiles of the wall time (child start to
exit) and of the command's own peak RSS (its `VmHWM`, read as it exits, or
"n/a" where /proc/self/status is absent) of each side, the per-pair
wall-time differences, and in how many pairs this tree was faster. The
script imports no numpy, and the peak is the child's own: `ru_maxrss` from
`os.wait4` would start from this process's high-water mark. Compare only
pairs taken this way: this host's speed drifts between runs seconds apart.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]

from revision import ONE_THREAD, export  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402

MEM_CAP = 3 << 30    # the address-space limit of the harness's children (perfbench/run.py)
# glibc's default trim threshold, set: a set value turns off malloc's dynamic
# mmap threshold, which otherwise rises with the blocks a process has freed, so
# the heap layout, and the own peak, moved with unrelated inputs (up to 1.5 MB
# on sweep-2d with the length of the checkout's path)
FIXED_HEAP = {"MALLOC_TRIM_THRESHOLD_": "131072"}

# the command under the limit, then its own peak in KiB written to argv[1]
ENTRY = f"""\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({MEM_CAP}, resource.RLIM_INFINITY))
from ep_nozzle import cli
code = cli.main(sys.argv[2:])
try:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
except OSError:
    peak = "n/a"
with open(sys.argv[1], "w") as out:
    out.write(peak)
sys.exit(code)
"""


def timed(src, workdir, command):
    """One run of command from the package in src; returns (wall s, the
    command's own peak in MB, or None where it cannot be read)."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    env = {**os.environ, **ONE_THREAD, **FIXED_HEAP, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-c", ENTRY, "peak.txt", command, "--config", "run.ini",
            "--out", "out"]
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        code = subprocess.run(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=err).returncode
        wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{workdir.name}: exit {code}\n"
                         + (workdir / "stderr.txt").read_text(errors="replace"))
    peak = (workdir / "peak.txt").read_text()
    return wall, None if peak == "n/a" else int(peak) / 1024.0


def spread(values):
    """'median [first quartile, third quartile]', or "n/a" if any value is
    missing."""
    if None in values:
        return "n/a"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4f} [{q1:.4f}, {q3:.4f}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git revision to compare with")
    ap.add_argument("config", help="INI config file, or a benchmark workload name")
    ap.add_argument("--pairs", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0, help="seed of a workload's config")
    ap.add_argument("--command", default="solve", help="subcommand of an INI config")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    if args.config in WORKLOADS:
        workload = WORKLOADS[args.config]
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        variant = reference["workloads"][workload.name]["variants"][str(args.seed % VARIANTS)]
        command, text = workload.command, workload.config(args.seed, variant["attempt"])
    else:
        command, text = args.command, Path(args.config).read_text()
    with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
        tmp = Path(tmp)
        sides = {"ref": export(args.ref, tmp / "tree"), "here": ROOT / "src"}
        for name in sides:
            (tmp / name).mkdir()
            (tmp / name / "run.ini").write_text(text)
            timed(sides[name], tmp / name, command)       # warm-up, discarded
        runs = {name: [] for name in sides}
        for k in range(args.pairs):
            for name in (("ref", "here") if k % 2 == 0 else ("here", "ref")):
                runs[name].append(timed(sides[name], tmp / name, command))
    walls = {name: [w for w, _ in r] for name, r in runs.items()}
    peaks = {name: [p for _, p in r] for name, r in runs.items()}
    diffs = [here - ref for ref, here in zip(walls["ref"], walls["here"])]
    print(f"{args.config}: {command}, {args.pairs} pairs, one BLAS thread")
    for name, label in (("ref", args.ref), ("here", "working tree")):
        print(f"  {label:14} wall_s {spread(walls[name])}  own peak MB {spread(peaks[name])}")
    print("  per-pair wall difference, tree - ref, ms: "
          + " ".join(f"{1e3 * d:+.1f}" for d in diffs))
    median_ref = statistics.median(walls["ref"])
    median_diff = statistics.median(diffs)
    print(f"  median difference {1e3 * median_diff:+.1f} ms ({100 * median_diff / median_ref:+.1f}%); "
          f"the tree is faster in {sum(d < 0 for d in diffs)} of {len(diffs)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
