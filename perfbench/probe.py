"""Run one `ep-nozzle` command in this process and record when its work happens.

usage: python3 probe.py RECORD MODE MEM_BYTES -- SUBCOMMAND ARGS...

The program is not edited: public functions of its modules are replaced from
outside, after import, by wrappers that read the clock. MODE selects them:

- `probe` (untraced runs) wraps only `PicardState.step` and the `splu`
  factorization, so the parent can tell where set-up ends; the cost is one
  Python call per Picard step.
- `trace` wraps every layer listed in `LAYERS` and records one span per call:
  name, parent span, start and end. Spans stay in memory and are written out
  when the command ends.

Times are read from CLOCK_MONOTONIC, the clock the parent uses, so the two
can be compared. The record is JSON written to RECORD. MEM_BYTES lowers this
process's address-space limit before anything is imported, so an
out-of-memory run fails here instead of taking the machine with it.
"""

from __future__ import annotations

import functools
import json
import pathlib
import resource
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (module, attribute path, span name); calls made through the attribute are timed
LAYERS = (
    ("cli", "main", "cli.main"),
    ("ode1d", "integrate_ivp", "ode1d.integrate_ivp"),
    ("grid", "gradient", "grid.gradient"),
    ("elliptic", "make_coeffs", "elliptic.make_coeffs"),
    ("elliptic", "build_quadrature", "elliptic.build_quadrature"),
    ("elliptic", "DiscreteOperator.__init__", "elliptic.assemble_operator"),
    ("elliptic", "assemble_rhs", "elliptic.assemble_rhs"),
    ("coeffs", "remainder_fields", "coeffs.remainder_fields"),
    ("coeffs", "derivatives", "coeffs.derivatives"),
    ("driver", "PicardState.__init__", "driver.state_init"),
    ("driver", "PicardState.step", "driver.step"),
    ("driver", "PicardState.exit_datum", "driver.exit_datum"),
    ("driver", "run_fixed_point", "driver.run_fixed_point"),
    ("driver", "nonlinear_residual", "driver.nonlinear_residual"),
    ("driver", "pair_norms", "driver.pair_norms"),
    ("driver", "stability_sweep", "driver.stability_sweep"),
    ("domainmap", "jacobian_JT", "domainmap.jacobian"),
    ("domainmap", "correction_terms", "domainmap.correction_terms"),
    ("domainmap", "solve_perturbed", "domainmap.solve_perturbed"),
    ("domainmap", "pushforward_residual", "domainmap.pushforward_residual"),
    ("export", "export_field_csv", "export.write"),
    ("export", "export_field_vtk", "export.write"),
    ("export", "export_deformed_vtk", "export.write"),
)


class Tracer:
    """In-memory span recorder for one single-threaded command."""

    def __init__(self):
        self.spans = []        # [name, parent index or -1, start, end]
        self._open = []
        self.counts = {}

    def enter(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, clock(), None])
        self._open.append(len(self.spans) - 1)

    def leave(self):
        self.spans[self._open.pop()][3] = clock()

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
        return wrapper


class TimedLU:
    """Factorization proxy whose `solve` is recorded as its own span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.timed(lu.solve, "elliptic.lu_solve")

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _replace(modules, path, make):
    owner = modules[path[0]]
    *outer, attr = path[1].split(".")
    for name in outer:
        owner = getattr(owner, name)
    setattr(owner, attr, make(getattr(owner, attr)))


def install_trace(modules, tracer):
    for module, attr, name in LAYERS:
        _replace(modules, (module, attr), lambda fn, name=name: tracer.timed(fn, name))
    pathlib.Path.write_text = tracer.timed(pathlib.Path.write_text, "export.write")

    def count_iterations(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pair, report = fn(*args, **kwargs)
            tracer.add("driver.picard_iterations", report.iterations)
            return pair, report
        return wrapper

    # outermost, so the span covers the whole call and the count happens after it
    _replace(modules, ("driver", "run_fixed_point"), count_iterations)

    def factor(splu):
        timed = tracer.timed(splu, "elliptic.factor")
        count = tracer.timed(lambda lu: int(lu.L.nnz + lu.U.nnz), "trace.count_factor")

        @functools.wraps(splu)
        def wrapper(*args, **kwargs):
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            lu = timed(*args, **kwargs)
            rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            tracer.add("elliptic.factor_rss_kb", rss1 - rss0)
            tracer.add("elliptic.factor_nnz", count(lu))
            return TimedLU(lu, tracer)
        return wrapper

    _replace(modules, ("elliptic", "splu"), factor)


def install_probe(modules, record):
    record["factor"] = []

    def first_step(step):
        @functools.wraps(step)
        def wrapper(*args, **kwargs):
            if "first_step" in record:
                return step(*args, **kwargs)
            t0 = clock()
            try:
                return step(*args, **kwargs)
            finally:
                record["first_step"] = [t0, clock()]
        return wrapper

    def factor(splu):
        @functools.wraps(splu)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return splu(*args, **kwargs)
            finally:
                record["factor"].append([t0, clock()])
        return wrapper

    _replace(modules, ("driver", "PicardState.step"), first_step)
    _replace(modules, ("elliptic", "splu"), factor)


def main(argv):
    record_path, mode, mem_bytes, sep, *cli_args = argv
    if sep != "--" or mode not in ("probe", "trace"):
        raise SystemExit("usage: probe.py RECORD probe|trace MEM_BYTES -- SUBCOMMAND ARGS...")
    resource.setrlimit(resource.RLIMIT_AS, (int(mem_bytes), resource.RLIM_INFINITY))
    record = {"mode": mode, "start": clock()}
    tracer = Tracer()
    tracer.enter("cli.import")
    from ep_nozzle import cli, coeffs, domainmap, driver, elliptic, export, grid, ode1d
    tracer.leave()
    modules = {"cli": cli, "coeffs": coeffs, "domainmap": domainmap, "driver": driver,
               "elliptic": elliptic, "export": export, "grid": grid, "ode1d": ode1d}
    if mode == "trace":
        install_trace(modules, tracer)
    else:
        install_probe(modules, record)
    try:
        rc = modules["cli"].main(cli_args)
    finally:
        record["end"] = clock()
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
