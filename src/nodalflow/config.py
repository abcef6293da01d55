"""Run configuration: a single JSON document with "auto" sentinels, canonical
hashing for reproducibility, and builders for the solver objects."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .flow import FlowConfig
from .linking import MinimaxConfig, ScanConfig
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
    "tolerances": {"schauder_samples": 100},
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


def parse_potential(spec) -> PiecewisePotential:
    if isinstance(spec, str):
        name, _, args = spec.partition(":")
        try:
            vals = [float(a) for a in args.split(",")] if args else []
            if name == "power":
                return power_potential(*vals)
            if name == "abs":
                return abs_potential()
            if name == "two_slope":
                return two_slope_potential(*vals)
            if name == "capped_power":
                return capped_power_potential(*vals)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad arguments for potential {spec!r}: {exc}") from exc
        raise ConfigError(f"unknown potential {spec!r}")
    if isinstance(spec, dict):
        if "name" in spec:
            args = {k: v for k, v in spec.items() if k != "name"}
            try:
                builders = {"power": power_potential, "abs": abs_potential,
                            "two_slope": two_slope_potential,
                            "capped_power": capped_power_potential}
                return builders[spec["name"]](**args)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad potential spec {spec!r}: {exc}") from exc
        try:
            return polynomial_potential(
                spec["breakpoints"], spec["coefficients"],
                a1=float(spec["a1"]), q=float(spec["q"]), mu=float(spec["mu"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad piecewise table {spec!r}: {exc}") from exc
    raise ConfigError(f"potential spec must be string or object, got {type(spec)}")


def parse_grid(spec: dict) -> GridSpec:
    try:
        dim = int(spec["dimension"])
        if dim == 1:
            a, b = spec["bounds"]
            return GridSpec.interval(float(a), float(b), int(spec["n"]))
        return GridSpec.rectangle(spec["bounds"], spec["n"])
    except (KeyError, TypeError, ValueError) as exc:
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

    @property
    def text(self) -> str:
        return canonical_text(self.raw)

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    def flow_config(self, mu0: float, **overrides) -> FlowConfig:
        opts = dict(self.raw.get("flow", {}))
        opts.pop("checkpoint_every", None)
        known = {"dt0", "dt_min", "dt_max", "tol_m", "t_max", "max_steps",
                 "eps", "eps_bar"}
        bad = set(opts) - known
        if bad:
            raise ConfigError(f"unknown flow options: {sorted(bad)}")
        opts.update(overrides)
        try:
            return FlowConfig(mu0=mu0, **opts)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad flow config: {exc}") from exc

    def checkpoint_every(self) -> int | None:
        val = self.raw.get("flow", {}).get("checkpoint_every")
        return None if val is None else int(val)

    def scan_config(self) -> ScanConfig:
        opts = dict(self.raw.get("linking", {}).get("scan", {}))
        kwargs = {}
        if "n_theta" in opts:
            kwargs["n_theta"] = int(opts.pop("n_theta"))
        if "n_directions" in opts:
            kwargs["n_directions"] = int(opts.pop("n_directions"))
        if "radius_grid" in opts:
            kwargs["radius_grid"] = tuple(float(r) for r in opts.pop("radius_grid"))
        elif "radius_max" in opts or "n_radius" in opts:
            rmax = float(opts.pop("radius_max", 200.0))
            nrad = int(opts.pop("n_radius", 40))
            kwargs["radius_grid"] = tuple(float(r) for r in np.geomspace(1.0, rmax, nrad))
        if "delta_grid" in opts:
            kwargs["delta_grid"] = tuple(float(d) for d in opts.pop("delta_grid"))
        elif {"delta_min", "delta_max", "n_delta"} & set(opts):
            dmin = float(opts.pop("delta_min", 0.05))
            dmax = float(opts.pop("delta_max", 10.0))
            ndel = int(opts.pop("n_delta", 40))
            kwargs["delta_grid"] = tuple(float(d) for d in np.geomspace(dmin, dmax, ndel))
        if "cone_margin" in opts:
            kwargs["cone_margin"] = float(opts.pop("cone_margin"))
        if "radius_margin" in opts:
            kwargs["radius_margin"] = float(opts.pop("radius_margin"))
        if opts:
            raise ConfigError(f"unknown scan options: {sorted(opts)}")
        return ScanConfig(**kwargs)

    def wants_surface_snapshots(self) -> bool:
        return bool(self.raw.get("linking", {}).get("snapshots", False))

    def minimax_config(self, mu0: float) -> MinimaxConfig:
        opts = dict(self.raw.get("linking", {}))
        opts.pop("scan", None)
        opts.pop("snapshots", None)
        known = {"nr", "nt", "max_sweeps", "stall_window", "stall_rel", "band_frac",
                 "horizon_cap", "retry_budget", "bisect_rounds", "classify_t_chunk",
                 "classify_max_chunks", "mesh_tol"}
        bad = set(opts) - known
        if bad:
            raise ConfigError(f"unknown linking options: {sorted(bad)}")
        try:
            return MinimaxConfig(flow=self.flow_config(mu0), **opts)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad linking config: {exc}") from exc


def load_config(source: str | dict) -> RunConfig:
    """Parse a config document (JSON text or dict) over the defaults."""
    if isinstance(source, str):
        try:
            user = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        user = source
    if not isinstance(user, dict):
        raise ConfigError("config root must be an object")
    unknown = set(user) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    raw = _merge(_DEFAULTS, user)
    grid = parse_grid(raw["grid"])
    potential = parse_potential(raw["potential"])
    lam = float(raw["lambda"])
    if lam <= 0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    mu0 = raw["mu0"]
    if mu0 != "auto":
        mu0 = float(mu0)
        if not 0 < mu0 < 1:
            raise ConfigError(f"mu0 must be in (0,1) or 'auto', got {mu0}")
    seed = int(raw["seed"])
    return RunConfig(raw, grid, potential, lam, mu0, seed, str(raw["output_dir"]))
