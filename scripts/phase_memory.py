#!/usr/bin/env python3
"""Print the traced memory of the phases of one fixed-point solve, per grid node.

usage: python scripts/phase_memory.py CONFIG

CONFIG is an `ep-nozzle` INI config (`ep-nozzle solve --emit-template`
prints one). The script builds the gas law, the grid and the background as
`solve` does, and runs `run_fixed_point` on the config's perturbation and
`pair_norms` on its fixed point, as `solve` does, under tracemalloc. It
prints, in bytes per grid node, the rise of each phase: the peak of the
traced memory during a call less the traced memory at its entry, the
largest over the calls. What the caller already holds is not
counted. Beside it, it prints the process's peak RSS (`VmHWM` in
/proc/self/status, "n/a" where that file is absent) at the exit of the
phase's last call, in MiB, so that the gap between traced bytes and RSS
shows in one run. The phases are
- PicardState: its construction, and also what it keeps
- step: one `PicardState.step`, which assembles its right-hand side per slab
- elliptic.solve: the linear solve inside a step
- nonlinear_residual and pair_norms: their one call at the end
- the stages that set a step's peak: coeffs.remainder_fields,
  elliptic.assemble_rhs, elliptic._divergence_form, elliptic._cross_transform
  and elliptic.apply_operator
- grid.gradient, GasLaw.density and driver.edge_divergence: every call,
  inside the phases above or not

The calls are seen through a profile hook, not a wrapper, so no extra
reference keeps an argument alive. Run it with one BLAS thread
(`OMP_NUM_THREADS=1`) to compare revisions.
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

from ep_nozzle import cli, coeffs, driver, elliptic, gas, grid as gridmod
from ep_nozzle.config import parse_config

PHASES = {
    "PicardState": driver.PicardState.__init__,
    "step": driver.PicardState.step,
    "elliptic.solve": elliptic.solve,
    "nonlinear_residual": driver.nonlinear_residual,
    "pair_norms": driver.pair_norms,
    "coeffs.remainder_fields": coeffs.remainder_fields,
    "elliptic.assemble_rhs": elliptic.assemble_rhs,
    "elliptic._divergence_form": elliptic._divergence_form,
    "elliptic._cross_transform": elliptic._cross_transform,
    "elliptic.apply_operator": elliptic.apply_operator,
    "grid.gradient": gridmod.gradient,
    "GasLaw.density": gas.GasLaw.density,
    "driver.edge_divergence": driver.edge_divergence,
}


def vm_hwm():
    """The process's peak RSS in KiB (`VmHWM`), or None where
    /proc/self/status is absent."""
    try:
        with open("/proc/self/status") as status:
            return next((int(line.split()[1]) for line in status
                         if line.startswith("VmHWM:")), None)
    except OSError:
        return None


class PhaseMeter:
    """Entry, peak and exit of the traced memory around the calls of the
    phases, nested or not, and the peak RSS at each exit."""

    def __init__(self, phases):
        self.names = {fn.__code__: name for name, fn in phases.items()}
        self.rise = dict.fromkeys(phases, 0)
        self.kept = {}       # traced memory at exit over entry, last call
        self.calls = dict.fromkeys(phases, 0)
        self.hwm = dict.fromkeys(phases)   # VmHWM in KiB at the last exit
        self._open = []      # [entry, peak so far] of every call in progress

    def _fold_peak(self):
        """Record the peak so far in the innermost open call, then restart it."""
        peak = tracemalloc.get_traced_memory()[1]
        if self._open:
            self._open[-1][1] = max(self._open[-1][1], peak)
        tracemalloc.reset_peak()

    def __call__(self, frame, event, arg):
        name = self.names.get(frame.f_code)
        if name is None or event not in ("call", "return"):
            return
        self._fold_peak()
        if event == "call":
            entry = tracemalloc.get_traced_memory()[0]
            self._open.append([entry, entry])
            return
        entry, peak = self._open.pop()
        if self._open:
            self._open[-1][1] = max(self._open[-1][1], peak)
        self.rise[name] = max(self.rise[name], peak - entry)
        self.kept[name] = tracemalloc.get_traced_memory()[0] - entry
        self.calls[name] += 1
        self.hwm[name] = vm_hwm()
        # reading the file is the meter's own allocation: no phase's peak
        tracemalloc.reset_peak()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", type=Path, help="ep-nozzle INI config")
    args = ap.parse_args()
    cfg = parse_config(args.config.read_text())
    law, grid, background = cli._inputs(cfg)
    data = driver.perturb_data(background, grid, cfg.values["perturbation"]["sigma"],
                               cli._amplitudes(cfg))
    meter = PhaseMeter(PHASES)
    tracemalloc.start()
    sys.setprofile(meter)
    try:
        state = driver.PicardState(law, background, grid)
        itcfg = cli._iteration_config(cfg)
        pair, report = driver.run_fixed_point(itcfg, data, state)
        driver.pair_norms(pair, grid, state.op.quad, seed=cfg.values["output"]["seed"])
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    n = grid.n_nodes
    print(f"grid {'x'.join(map(str, grid.shape))} ({n} nodes), "
          f"{report.iterations} Picard steps; bytes per node")
    print(f"{'phase':26} {'calls':>5} {'rise':>8} {'kept':>8} {'VmHWM MiB':>10}")
    for name in PHASES:
        kept = f"{meter.kept[name] / n:8.1f}" if name == "PicardState" else ""
        hwm = meter.hwm[name]
        hwm = "n/a" if hwm is None else f"{hwm / 1024:.1f}"
        print(f"{name:26} {meter.calls[name]:5d} {meter.rise[name] / n:8.1f} {kept:>8} {hwm:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
