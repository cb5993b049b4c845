#!/usr/bin/env python3
"""Benchmark of the `ep-nozzle` command line.

usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--save PATH]

One run generates the INI config of workload NAME from the seed, runs the
command once to warm the file cache and bytecode (discarded), then runs it
again and again for S seconds, one child process at a time. Every command is
checked (`gates.py`); a command that fails, runs out of memory or times out
counts in `failed`. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics, medians over the measured
commands: `wall_s` (child start to exit), `setup_s` (child start to the first
Picard step, plus any factorization that runs inside that step) and
`peak_rss_mb`. `--trace 1` alternates untraced commands with traced ones
(`probe.py trace`) and reports the per-layer metrics of the traced commands.
`--workload all` runs every workload both ways and prints a summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from gates import check_command, expected_outputs  # noqa: E402
from probe import clock  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"
MEM_CAP = 3 << 30          # address-space limit of each child, bytes
CHILD_TIMEOUT = 60.0       # seconds; a command at this commit takes under 5
RUN_LIMIT = 165.0          # seconds; every child of a run has ended by then
MIN_CHILD_TIME = 10.0      # no command starts with less time than this left
MIN_MEASURED = 5
CHILD_ENV = {
    # one BLAS thread: SuperLU and the sparse products are single-threaded
    # anyway, and the byte-identical outputs then do not depend on the host
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env():
    env = dict(os.environ, **CHILD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(workload, config_path, tag, mode, timeout):
    """Run the workload's command once in a fresh child and measure it."""
    outdir = WORK / f"out_{tag}"
    shutil.rmtree(outdir, ignore_errors=True)
    record_path = WORK / f"record_{tag}.json"
    record_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "probe.py"), str(record_path), mode, str(MEM_CAP),
            "--", workload.command, "--config", str(config_path), "--out", str(outdir)]
    with open(WORK / f"stdout_{tag}.txt", "w") as out, open(WORK / f"stderr_{tag}.txt", "w") as err:
        start = clock()
        proc = subprocess.Popen(argv, cwd=WORK, env=child_env(), stdout=out, stderr=err)
        timed_out = False
        fd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            if not poller.poll(timeout * 1000):
                timed_out = True
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        end = clock()
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (WORK / f"stderr_{tag}.txt").read_text(errors="replace")
    if timed_out:
        state = "timeout"
    elif "MemoryError" in stderr or code == -signal.SIGKILL:
        state = "oom"
    elif code != 0:
        state = f"exit {code}"
    else:
        state = "ok"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    setup = None
    if "first_step" in record:
        s0, s1 = record["first_step"]
        inside = sum(b - a for a, b in record.get("factor", []) if a >= s0 and b <= s1)
        setup = s0 - start + inside
    return SimpleNamespace(status=state, wall_s=end - start, setup_s=setup,
                           peak_rss_mb=usage.ru_maxrss / 1024.0, start=start, record=record,
                           outdir=outdir, stderr=stderr.strip().splitlines()[-1:])


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def self_times(spans):
    """Per-name self time (duration minus direct children) and call counts."""
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    selfs, calls = {}, {}
    for i, (name, parent, t0, t1) in enumerate(spans):
        selfs[name] = selfs.get(name, 0.0) + (t1 - t0) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
    return selfs, calls


SELF_METRICS = (
    "cli.import", "cli.main", "ode1d.integrate_ivp", "grid.gradient",
    "elliptic.make_coeffs", "elliptic.build_quadrature", "elliptic.assemble_operator",
    "elliptic.factor", "elliptic.lu_solve", "elliptic.assemble_rhs",
    "coeffs.remainder_fields", "coeffs.derivatives", "driver.step",
    "driver.exit_datum", "driver.run_fixed_point", "driver.nonlinear_residual",
    "driver.pair_norms", "export.write",
)
CALL_METRICS = (
    "elliptic.factor", "elliptic.build_quadrature", "elliptic.lu_solve",
    "elliptic.assemble_rhs", "coeffs.derivatives", "grid.gradient",
)
DOMAINMAP = ("domainmap.jacobian", "domainmap.correction_terms",
             "domainmap.pushforward_residual")


def layer_metrics(cmd):
    """Per-layer metrics of one traced command."""
    selfs, calls = self_times(cmd.record["spans"])
    counts = cmd.record["counts"]
    m = {f"{name}_s": (selfs.get(name, 0.0), "s") for name in SELF_METRICS}
    m.update({f"{name}_calls": (calls.get(name, 0), "count") for name in CALL_METRICS})
    iterations = counts.get("driver.picard_iterations", 0)
    states = calls.get("driver.state_init", 0)
    nnz = counts.get("elliptic.factor_nnz", 0)
    m["driver.picard_iterations"] = (iterations, "count")
    m["driver.picard_states"] = (states, "count")
    m["domainmap.calls"] = (sum(calls.get(n, 0) for n in DOMAINMAP), "count")
    m["elliptic.factor_nnz"] = (nnz, "count")
    # computed, not measured: SuperLU keeps a float64 value and an int32 row index per entry
    m["elliptic.factor_bytes_computed"] = (12 * nnz, "bytes")
    m["elliptic.factor_rss_mb"] = (counts.get("elliptic.factor_rss_kb", 0) / 1024.0, "MB")
    m["export.bytes"] = (sum(f.stat().st_size for f in cmd.outdir.iterdir()), "bytes")
    # ratios with their bases: per PicardState built, per Picard step taken
    per_state = lambda name: calls.get(name, 0) / max(states, 1)  # noqa: E731
    per_step = lambda name: calls.get(name, 0) / max(iterations, 1)  # noqa: E731
    m["elliptic.build_quadrature_per_state"] = (per_state("elliptic.build_quadrature"), "ratio")
    m["coeffs.derivatives_per_step"] = (per_step("coeffs.derivatives"), "ratio")
    m["grid.gradient_per_step"] = (per_step("grid.gradient"), "ratio")
    m["elliptic.factor_share"] = (selfs.get("elliptic.factor", 0.0) / cmd.wall_s, "ratio")
    # interpreter start-up before probe.py runs, and everything after cli.main
    # returns: writing the trace, freeing memory, interpreter exit
    selfs["python.startup"] = cmd.record["start"] - cmd.start
    selfs["python.exit"] = cmd.start + cmd.wall_s - cmd.record["end"]
    m["python.startup_s"] = (selfs["python.startup"], "s")
    m["python.exit_s"] = (selfs["python.exit"], "s")
    m["trace.wall_s"] = (cmd.wall_s, "s")
    m["trace.unattributed_s"] = (cmd.wall_s - sum(selfs.values()), "s")
    return m, selfs


def _median_metrics(per_command):
    names = per_command[0].keys()
    return {n: (statistics.median(m[n][0] for m in per_command), per_command[0][n][1]) for n in names}


def run_workload(workload, seed, seconds, trace, log):
    """One benchmark run; returns (result JSON object, details for the summary)."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    expected = expected_outputs(BENCH / "reference.json", workload, seed)
    config = workload.config(seed, expected["attempt"])
    config_path = WORK / f"{workload.name}.ini"
    config_path.write_text(config)
    first_hashes = {}
    commands = []

    def attempt(tag, mode, run_start):
        timeout = min(CHILD_TIMEOUT, RUN_LIMIT - (clock() - run_start))
        cmd = run_command(workload, config_path, tag, mode, timeout)
        cmd.mode = mode
        cmd.problems = check_command(workload, cmd, expected, first_hashes)
        commands.append(cmd)
        if cmd.problems:
            log(f"  command {tag} ({mode}) FAILED [{cmd.status}]: " + "; ".join(cmd.problems[:3]))

    run_start = clock()
    attempt("warmup", "probe", run_start)
    measure_start = clock()
    k = 0
    while clock() - run_start < RUN_LIMIT - MIN_CHILD_TIME:
        if clock() - measure_start >= seconds and k >= MIN_MEASURED:
            break
        attempt(f"m{k}", "probe", run_start)
        if trace:
            attempt(f"t{k}", "trace", run_start)
        k += 1

    attempted = len(commands)
    failed = sum(1 for c in commands if c.problems)
    good = [c for c in commands[1:] if not c.problems] or commands[1:]
    untraced = [c for c in good if c.mode == "probe"]
    details = {"workload": workload.name, "seed": seed, "variant": seed % VARIANTS, "config": config,
               "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
               "statuses": [c.status for c in commands]}
    if not trace:
        metrics = {}
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            values = [getattr(c, name) for c in untraced if getattr(c, name) is not None]
            if not values:
                raise SystemExit(f"perfbench: no measured command yielded {name}")
            unit = "MB" if name == "peak_rss_mb" else "s"
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            details[name] = {"samples": values, "tail": tail_percentile(values)}
    else:
        traced = [c for c in good if c.mode == "trace" and c.record.get("spans")]
        if not traced:
            raise SystemExit("perfbench: no traced command left a trace")
        per_command = [layer_metrics(c) for c in traced]
        medians = _median_metrics([m for m, _ in per_command])
        medians["trace.overhead_s"] = (
            medians["trace.wall_s"][0] - statistics.median(c.wall_s for c in untraced), "s")
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in medians.items()}
        all_selfs = {}
        for _, selfs in per_command:
            for name, value in selfs.items():
                all_selfs.setdefault(name, []).append(value)
        details["self_times"] = {n: statistics.median(v) for n, v in all_selfs.items()}
        details["traced_commands"] = len(traced)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def print_summary(workload, result, details, out):
    d = details
    out(f"workload {workload.name}: {workload.command}, grid {'x'.join(map(str, workload.grid))} "
        f"({workload.nodes} nodes), seed {d['seed']} (config variant {d['variant']})")
    out(f"  failed_frac {d['failed_frac']:.4f} ({d['failed']} of {d['attempted']} commands, "
        f"warm-up included; statuses {sorted(set(d['statuses']))})")
    for name, m in result["metrics"].items():
        line = f"  {name:42s} {m['value']:.6g} {m['unit']}"
        if name in d and isinstance(d[name], dict):
            samples = d[name]["samples"]
            tail = d[name]["tail"]
            line += f"  (median of {len(samples)}"
            line += f", p{tail[0]} {tail[1]:.6g})" if tail else "; no tail percentile below 11 samples)"
        out(line)
    if "self_times" in d:
        m = {n: v["value"] for n, v in result["metrics"].items()}
        out(f"  traced commands {d['traced_commands']}; self time of every span, median per command:")
        for name, value in sorted(d["self_times"].items(), key=lambda kv: -kv[1]):
            out(f"    {name:40s} {value:.6f} s")
        out(f"  per traced command the self times add up to its wall time {m['trace.wall_s']:.4f} s "
            f"within {m['trace.unattributed_s']:.6f} s; tracing overhead {m['trace.overhead_s']:.4f} s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, default=None,
                    help="with --workload all: write the results as JSON here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ep_nozzle" / "cli.py").is_file():
        print(f"perfbench: no ep_nozzle sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    if not (BENCH / "reference.json").is_file():
        print("perfbench: reference.json is missing; outputs cannot be checked", file=sys.stderr)
        return 2

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if args.workload != "all":
        workload = WORKLOADS[args.workload]
        result, details = run_workload(workload, args.seed, args.seconds, args.trace, log)
        print_summary(workload, result, details, lambda s: print(s, flush=True))
        print(json.dumps(result))
        return 0

    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    saved = {}
    failed = attempted = 0
    for workload in WORKLOADS.values():
        entry = saved[workload.name] = {
            "why": workload.why, "command": workload.command, "grid": list(workload.grid),
            "nodes": workload.nodes, "seed": args.seed,
        }
        for trace in (0, 1):
            result, details = run_workload(workload, args.seed, args.seconds, trace, log)
            print_summary(workload, result, details, lambda s: print(s, flush=True))
            failed += result["failed"]
            attempted += result["attempted"]
            if trace:
                entry["per_layer"] = result["metrics"]
                entry["self_times_s"] = details["self_times"]
            else:
                entry["end_to_end"] = {
                    n: {**m, "bound": bounds[n], "samples": details[n]["samples"]}
                    for n, m in result["metrics"].items()}
                entry["failed_frac"] = details["failed_frac"]
                entry["config"] = details["config"]
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
