"""Run configuration: flat INI-style sections with a documented template.

Parsing and serialization are inverse to each other on the template's key
set, and serialization is deterministic, so config echoes are byte-stable.
"""

from __future__ import annotations

import configparser
import io
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

TEMPLATE = """\
[gas]
; adiabatic exponent (>= 1) and enthalpy reference density
gamma = 2.0
k0 = 1.0
rho_floor = 1e-08

[nozzle]
; dim 2: interval cross-section; dim 3: rectangle (cross2_* used)
dim = 2
cross_min = 0.0
cross_max = 1.0
cross2_min = 0.0
cross2_max = 1.0
length = 1.0
nodes_cross = 64
nodes_cross2 = 9
nodes_axial = 128

[background]
; entrance data of the axial integration; b0 is the constant charge
J0 = 0.5
rho0 = 1.2
E0 = 0.1
b0 = 1.0
ode_steps = 1024

[perturbation]
; overall magnitude and relative amplitudes (each bounded by one)
sigma = 0.001
c_phi_en = 0.5
c_phi_ex = 1.0
c_pex = 1.0
c_bernoulli = 0.25
c_charge = 0.5

[iteration]
; ball_multiplier * sigma must stay below the admissibility radius
ball_multiplier = 8.0
max_iter = 30
tol_floor = 1e-10
tol_scale = 0.001

[sweep]
sigmas = 0.0001,0.0002,0.0004,0.0008

[domain_map]
; wall-shear size: one value for perturb-domain; two or more also run the
; wall ladder in sweep
eps = 0.002

[output]
directory = out
format = csv
seed = 42
snapshots = false
"""

_SCHEMA = {
    "gas": {"gamma": float, "k0": float, "rho_floor": float},
    "nozzle": {
        "dim": int,
        "cross_min": float, "cross_max": float,
        "cross2_min": float, "cross2_max": float,
        "length": float,
        "nodes_cross": int, "nodes_cross2": int, "nodes_axial": int,
    },
    "background": {"J0": float, "rho0": float, "E0": float, "b0": float, "ode_steps": int},
    "perturbation": {
        "sigma": float, "c_phi_en": float, "c_phi_ex": float,
        "c_pex": float, "c_bernoulli": float, "c_charge": float,
    },
    "iteration": {"ball_multiplier": float, "max_iter": int, "tol_floor": float, "tol_scale": float},
    "sweep": {"sigmas": "floats"},
    "domain_map": {"eps": "floats"},
    "output": {"directory": str, "format": str, "seed": int, "snapshots": "bool"},
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _convert(kind, raw):
    if kind is float:
        return float(raw)
    if kind is int:
        return int(raw)
    if kind is str:
        return raw.strip()
    if kind == "floats":
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        if not values:
            raise ValueError("empty list")
        return values
    if kind == "bool":
        return _BOOLS[raw.strip().lower()]
    raise DomainError(f"unknown config field kind {kind}")


def _render(kind, value):
    if kind is float:
        return repr(float(value))
    if kind is int:
        return str(int(value))
    if kind is str:
        return str(value)
    if kind == "floats":
        return ",".join(repr(float(v)) for v in value)
    if kind == "bool":
        return "true" if value else "false"
    raise DomainError(f"unknown config field kind {kind}")


def parse_config(text: str) -> RunConfig:
    return validated(read_values(text))


def read_values(text: str) -> dict:
    """Typed values of a config text, the template's where a key is missing;
    not yet range-checked (see `validated`)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(text)
    sections = parser.sections()
    if parser.defaults():  # [DEFAULT] keys would reach every section unchecked
        sections.append(parser.default_section)
    for section in sections:
        if section not in _SCHEMA:
            raise DomainError(f"unknown config section [{section}]")
        known = {parser.optionxform(name) for name in _SCHEMA[section]}
        for name in parser.options(section):
            if name not in known:
                raise DomainError(f"unknown config key [{section}] {name}")
    defaults = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    defaults.read_string(TEMPLATE)
    values = {}
    for section, schema in _SCHEMA.items():
        values[section] = {}
        for name, kind in schema.items():
            if parser.has_option(section, name):
                raw = parser.get(section, name)
            else:
                raw = defaults.get(section, name)
            try:
                values[section][name] = _convert(kind, raw)
            except (ValueError, KeyError) as exc:
                raise DomainError(f"bad config value [{section}] {name} = {raw}") from exc
    return values


def serialize_config(config: RunConfig) -> str:
    out = io.StringIO()
    for section, schema in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for name, kind in schema.items():
            out.write(f"{name} = {_render(kind, config.values[section][name])}\n")
        out.write("\n")
    return out.getvalue()


def validated(values) -> RunConfig:
    """The run config of values that pass every parse-time check."""
    for section, schema in _SCHEMA.items():
        for name, kind in schema.items():
            if kind in (float, "floats") and not np.all(np.isfinite(values[section][name])):
                raise DomainError(f"[{section}] {name} must be finite")
            if name.startswith("c_") and abs(values[section][name]) > 1.0:
                raise DomainError(f"[{section}] {name} must lie in [-1, 1]")
    if values["gas"]["gamma"] < 1.0:
        raise DomainError("gamma must be >= 1")
    if values["nozzle"]["dim"] not in (2, 3):
        raise DomainError("dim must be 2 or 3")
    if values["output"]["format"] not in ("csv", "vtk"):
        raise DomainError("format must be csv or vtk")
    for key in ("nodes_cross", "nodes_cross2", "nodes_axial"):
        if values["nozzle"][key] < 8:
            raise DomainError(f"{key} must be at least 8")
    n = values["nozzle"]
    nodes = n["nodes_cross"] * n["nodes_axial"] * (n["nodes_cross2"] if n["dim"] == 3 else 1)
    if nodes > sys.maxsize // 16:  # numpy's size limit for one float pair per node
        raise DomainError(f"a grid of {nodes} nodes is more than numpy can address")
    if values["background"]["ode_steps"] < 16:
        raise DomainError("ode_steps must be at least 16")
    if values["perturbation"]["sigma"] < 0.0:
        raise DomainError("sigma must be nonnegative")
    it = values["iteration"]
    for rule, ok in (("ball_multiplier > 0", it["ball_multiplier"] > 0.0),
                     ("max_iter >= 1", it["max_iter"] >= 1),
                     ("tol_floor > 0", it["tol_floor"] > 0.0),
                     ("tol_scale >= 0", it["tol_scale"] >= 0.0)):
        if not ok:
            raise DomainError(f"[iteration] needs {rule}")
    ladders = {"sweep sigmas": values["sweep"]["sigmas"]}
    if len(values["domain_map"]["eps"]) > 1:  # one eps is a single map, not a ladder
        ladders["domain_map eps"] = values["domain_map"]["eps"]
    for name, ladder in ladders.items():
        if len(set(ladder)) < 2 or min(ladder) <= 0.0:
            raise DomainError(f"{name} need at least two distinct values, all positive")
    if values["output"]["seed"] < 0:
        raise DomainError("seed must be nonnegative")
    return RunConfig(values=values)
