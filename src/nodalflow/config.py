"""Run configuration: a single JSON document with "auto" sentinels, canonical
hashing for reproducibility, and the typed solver sections.

The keys of the "grid" and "flow" sections are the fields of GridSpec and
FlowConfig, less those marked internal (set by the solver); each value is
checked against its annotation.  The "linking" section holds ``snapshots``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any

from .flow import FlowConfig
from .mesh import GridSpec
from .potential import (PiecewisePotential, abs_potential, capped_power_potential,
                        polynomial_potential, power_potential, two_slope_potential)


class ConfigError(ValueError):
    pass


_DEFAULTS: dict[str, Any] = {
    "grid": {"dimension": 1, "bounds": [0.0, 1.0], "n": 127},
    "potential": "power:4",
    "lambda": 1.0,
    "mu0": "auto",
    "flow": {},
    "linking": {},
    "seed": 0,
    "output_dir": "out",
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def canonical_text(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_text(config).encode()).hexdigest()


_POTENTIALS = {"power": power_potential, "abs": abs_potential,
               "two_slope": two_slope_potential, "capped_power": capped_power_potential}


def parse_potential(spec) -> PiecewisePotential:
    try:
        if isinstance(spec, str):
            name, _, args = spec.partition(":")
            vals = [float(a) for a in args.split(",")] if args else []
            if not all(map(math.isfinite, vals)):
                raise ValueError("arguments must be finite")
            if name not in _POTENTIALS:
                raise ValueError("unknown potential")
            return _POTENTIALS[name](*vals)
        if isinstance(spec, dict):
            return polynomial_potential(
                _value(spec["breakpoints"], tuple[float, ...], "potential.breakpoints"),
                _value(spec["coefficients"], tuple[tuple[float, ...], ...],
                       "potential.coefficients"),
                **{k: _value(spec[k], float, f"potential.{k}") for k in ("a1", "q", "mu")})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad potential spec {spec!r}: {exc}") from exc
    raise ConfigError(f"potential spec must be string or object, got {type(spec)}")


def parse_grid(spec) -> GridSpec:
    """The "grid" section; an interval takes bare ``bounds`` and ``n``."""
    if isinstance(spec, dict) and _value(spec.get("dimension"), int, "grid.dimension") == 1:
        spec = dict(spec, bounds=[spec.get("bounds")], n=[spec.get("n")])
    fields = _typed(spec, schema(GridSpec), "grid")
    try:
        return GridSpec(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid spec {spec!r}: {exc}") from exc


@dataclass
class RunConfig:
    raw: dict
    grid: GridSpec
    potential: PiecewisePotential
    lam: float
    mu0: float | str
    seed: int
    output_dir: str
    flow: FlowConfig
    snapshots: bool

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


@functools.cache
def schema(cls) -> MappingProxyType:
    """Config keys of a dataclass: field name -> annotation, internal fields left out."""
    hints = typing.get_type_hints(cls)
    return MappingProxyType({f.name: hints[f.name] for f in dataclasses.fields(cls)
                             if not f.metadata.get("internal")})


def _value(val, tp, key: str):
    """``val`` checked against the annotation ``tp`` and converted to it."""
    if type(None) in typing.get_args(tp):   # X | None
        if val is None:
            return None
        tp = typing.get_args(tp)[0]
    if typing.get_origin(tp) is tuple:
        if not isinstance(val, list):
            raise ConfigError(f"{key} must be a list, got {val!r}")
        return tuple(_value(v, typing.get_args(tp)[0], key) for v in val)
    if tp not in (int, float):
        if not isinstance(val, tp):
            raise ConfigError(f"{key} must be of type {tp.__name__}, got {val!r}")
        return val
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key} must be a number, got {val!r}")
    if tp is int:
        if val != int(val):
            raise ConfigError(f"{key} must be an integer, got {val!r}")
        return int(val)
    try:
        return float(val)
    except OverflowError as exc:
        raise ConfigError(f"{key} is out of range") from exc


def _typed(section, types, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {section!r}")
    unknown = set(section) - set(types)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return {k: _value(v, types[k], f"{where}.{k}") for k, v in section.items()}


def _check_finite(node, key: str = ""):
    if isinstance(node, dict):
        for k, v in node.items():
            _check_finite(v, f"{key}.{k}" if key else k)
    elif isinstance(node, list):
        for v in node:
            _check_finite(v, key)
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{key} must be finite, got {node!r}")


def load_config(user: dict) -> RunConfig:
    """Parse a decoded config document over the defaults; a root that is
    not an object is a ConfigError.

    Every section is checked here, against the fields of the dataclass it
    builds, so a bad key or value fails before any stage runs.
    """
    if not isinstance(user, dict):
        raise ConfigError("config root must be an object")
    unknown = set(user) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    raw = _merge(_DEFAULTS, user)
    _check_finite(raw)
    types = schema(RunConfig)
    grid = parse_grid(raw["grid"])
    potential = parse_potential(raw["potential"])
    lam = _value(raw["lambda"], types["lam"], "lambda")
    if lam <= 0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    mu0 = raw["mu0"]
    if mu0 != "auto":
        mu0 = _value(mu0, float, "mu0")
        if not 0 < mu0 < 1:
            raise ConfigError(f"mu0 must be in (0,1) or 'auto', got {mu0}")
    linking = _typed(raw["linking"], {"snapshots": types["snapshots"]}, "linking")
    flow = _typed(raw["flow"], schema(FlowConfig), "flow")
    try:
        flow = FlowConfig(**flow)
    except ValueError as exc:
        raise ConfigError(f"bad solver config: {exc}") from exc
    seed = _value(raw["seed"], types["seed"], "seed")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return RunConfig(raw, grid, potential, lam, mu0, seed,
                     _value(raw["output_dir"], types["output_dir"], "output_dir"),
                     flow, linking.get("snapshots", False))
