"""Benchmark workloads and the seeded generator of their INI configs.

Each workload is one `ep-nozzle` subcommand on one fixed grid. The seed picks
the data of the run: the relative perturbation amplitudes `c_*` in [-1, 1],
the magnitude `sigma` (or the sigma ladder of a sweep), the wall-shear `eps`
and the diagnostic seed. Every choice keeps `ball_multiplier * sigma` well
inside the admissibility radius `delta3` (about 0.114 for the template
background), so no run is refused.

A seed maps onto one of `VARIANTS` configs per workload, so the outputs of
every config can be checked against `reference.json`, which was recorded from
the program at the commit that introduced this benchmark. Seeds that agree
modulo `VARIANTS` give identical inputs.

How many Picard steps a solve takes depends on the drawn data (3 to 6 here),
and each step is a linear solve, so the seed alone would move `wall_s` by a
few percent. For `solve` and `perturb-domain` the recorder therefore draws
again (`attempt` 1, 2, ...) until the config converges in
`TARGET_ITERATIONS` steps, and stores the accepted attempt in the reference.
Every config of a workload then does the same solver work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 16
SWEEP_POINTS = 8
TARGET_ITERATIONS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # ep-nozzle subcommand
    nozzle: dict          # [nozzle] keys
    fmt: str              # [output] format
    outputs: tuple        # report, then fields; files the command must write
    why: str

    @property
    def grid(self) -> tuple:
        keys = ("nodes_cross", "nodes_axial") if self.nozzle["dim"] == 2 else (
            "nodes_cross", "nodes_cross2", "nodes_axial")
        return tuple(self.nozzle[k] for k in keys)

    @property
    def nodes(self) -> int:
        n = 1
        for k in self.grid:
            n *= k
        return n

    def params(self, seed: int, attempt: int = 0) -> dict:
        """Seeded data of one run, as INI sections."""
        rng = random.Random(f"{self.name}/{seed % VARIANTS}/{attempt}")
        amps = {k: rng.uniform(-1.0, 1.0)
                for k in ("c_phi_en", "c_phi_ex", "c_pex", "c_bernoulli", "c_charge")}
        sections = {
            "nozzle": dict(self.nozzle),
            "perturbation": {"sigma": rng.uniform(1.0e-3, 2.0e-3), **amps},
            "output": {"format": self.fmt, "seed": rng.randrange(1, 10**6)},
        }
        if self.command == "sweep":
            lo = rng.uniform(0.8e-4, 1.2e-4)
            ratio = rng.uniform(1.6, 1.9)
            sections["sweep"] = {"sigmas": [lo * ratio ** i for i in range(SWEEP_POINTS)]}
        if self.command == "perturb-domain":
            sections["domain_map"] = {"eps": rng.uniform(1.0e-3, 3.0e-3)}
        return sections

    def config(self, seed: int, attempt: int = 0) -> str:
        """INI text of one run; keys left out take the template defaults."""
        lines = []
        for section, values in self.params(seed, attempt).items():
            lines.append(f"[{section}]")
            for key, value in values.items():
                if isinstance(value, list):
                    value = ",".join(repr(v) for v in value)
                elif isinstance(value, float):
                    value = repr(value)
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)


_2D = {"dim": 2, "nodes_cross": 128, "nodes_axial": 256}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="solve-2d", command="solve",
            nozzle={"dim": 2, "nodes_cross": 160, "nodes_axial": 320}, fmt="csv",
            outputs=("report.json", "fields.csv"),
            why="solve, 2D 160x320 (51200 nodes), CSV: splu, operator assembly and "
                "the per-row CSV writer dominate; shows solver-setup and export gains",
        ),
        Workload(
            name="solve-3d", command="solve",
            nozzle={"dim": 3, "nodes_cross": 17, "nodes_cross2": 17, "nodes_axial": 33},
            fmt="csv", outputs=("report.json", "fields.csv"),
            why="solve, 3D 17x17x33 (9537 nodes), CSV: the 3D splu fill dominates; "
                "per-step and export code should not move here",
        ),
        Workload(
            name="sweep-2d", command="sweep", nozzle=dict(_2D), fmt="csv",
            outputs=(),
            why="sweep, 2D 128x256, 8-sigma ladder: one factorization reused by ~40 "
                "Picard steps and 8 residual/norm passes, no fields written",
        ),
        Workload(
            name="perturb-2d", command="perturb-domain", nozzle=dict(_2D), fmt="vtk",
            outputs=("report_perturbed.json", "fields_deformed.vtk"),
            why="perturb-domain, 2D 128x256, VTK: Picard steps with domainmap "
                "corrections, the pushforward residual and the deformed-grid writer",
        ),
    )
}
