"""Command-line pipeline: solve | flow | verify | spectrum.

Exit codes: 0 success, 2 config error, 3 no linking window, 4 not converged
(including failed structural hypotheses, numerical failures and an unconverged
set-slope run in verify), 5 invariance violation.  All randomness flows from
the config seed.  Hypothesis sampling takes the seed
SeedSequence(seed).generate_state(1)[0]; the generators spawned from the
config seed serve, in a fixed order, 1 stage mu0's fit of the invariance
constants (also for a given mu0 in solve and verify) and the check, 2 frame
scans, 3 minimax, and spawned generator 0 is unused.
Artifacts carry the hex digest of the canonicalized config text; --out
chooses the destination directory and does not enter the hash.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np

from ._serial import csv_text, dumps
from .cones import (MU_STAR_CAP, SCHAUDER_SAMPLES, ConeNeighborhood, ProjectionError,
                    check_schauder, fit_mu0)
from .config import ConfigError, RunConfig, load_config
from .energy import EnergyProblem, SlopeError, energy, ps_monitor, slope, slope_on_set
from .flow import (Checkpoint, Termination, integrate_flow, load_checkpoint,
                   monitor_invariance, resume_flow)
from .linking import (GapViolation, NoLinkingWindow, NotConverged, build_frame,
                      minimax_iterate)
from .mesh import MeshError, build_space, field_from_csv, field_to_csv
from .potential import check_hypotheses

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_LINKING = 3
EXIT_NOT_CONVERGED = 4
EXIT_INVARIANCE = 5


class _Run:
    """Output directory plus a timestamped log (log excluded from determinism).

    Nothing is written until ``open``, which a command calls once its inputs
    are checked; a file that cannot be written is a ConfigError.  ``stage``
    names the pipeline stage in progress, for the error report of a numerical
    failure.  ``seconds`` holds the wall seconds spent in each stage, with the
    time spent writing files under "write".
    """

    def __init__(self, outdir: str, cfg: RunConfig):
        self.outdir = outdir
        self.cfg = cfg
        self._log_path = os.path.join(outdir, "run.log")
        self.seconds: dict[str, float] = {}
        self.opened = False
        self._stage = "setup"
        self._since = time.perf_counter()

    @property
    def stage(self) -> str:
        return self._stage

    @stage.setter
    def stage(self, name: str):
        self._clock(self._stage)
        self._stage = name

    def _clock(self, stage: str):
        """Charge the wall time since the last charge to ``stage``."""
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self._since
        self._since = now

    @contextlib.contextmanager
    def writing(self):
        """Turn a failed write in the output directory into a ConfigError."""
        try:
            yield
        except OSError as exc:
            raise ConfigError(f"cannot write to output directory {self.outdir!r}: {exc}") from exc

    def _write(self, path: str, mode: str, text: str):
        self._clock(self._stage)
        with self.writing(), open(path, mode) as fh:
            fh.write(text)
        self._clock("write")

    def open(self):
        with self.writing():
            os.makedirs(self.outdir, exist_ok=True)
        self.write_text("run.log", "")
        self.opened = True

    def log(self, message: str):
        self._write(self._log_path, "a",
                    f"[{time.strftime('%Y-%m-%dT%H:%M:%S')}] {message}\n")

    def log_timings(self, stages: tuple[str, ...]):
        """One log line with the wall seconds of each of ``stages``, if the log
        is open; a failed write is ignored."""
        self._clock(self._stage)
        if self.opened:
            with contextlib.suppress(ConfigError):
                self.log("stage timings: " + " ".join(
                    f"{name}={self.seconds.get(name, 0.0):.6f}s" for name in stages))

    def write_text(self, name: str, text: str):
        """Write ``text`` under a first line ``# config_hash=<hash>``."""
        self._write(os.path.join(self.outdir, name), "w", f"# config_hash={self.cfg.hash}\n{text}")

    def write_json(self, name: str, payload: dict):
        payload = dict(payload)
        payload["config_hash"] = self.cfg.hash
        self._write(os.path.join(self.outdir, name), "w", dumps(payload, indent=2) + "\n")

    def write_error(self, exc: Exception):
        """error_report.json for a failure that ends the command, if the log is
        open; a failed write is ignored."""
        if self.opened:
            with contextlib.suppress(ConfigError):
                self.write_json("error_report.json", {"error": type(exc).__name__,
                                                      "message": str(exc),
                                                      "stage": self.stage})
                self.log(f"stage {self.stage}: {type(exc).__name__}: {exc}")


# a coefficient is a sign alone or a number with at least one digit
_START_RE = re.compile(r"^([+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?)\s*\*?\s*phi([12])$")


def parse_start(prob: EnergyProblem, name: str) -> np.ndarray:
    """The start field ``name`` names; a field whose values or energy are not
    finite is a ConfigError."""
    space = prob.space
    match = _START_RE.match(name.strip())
    if name == "zero":
        u = space.zero_field()
    elif match:
        coef, k = match.group(1), int(match.group(2))
        c = float(coef) if coef not in ("", "+", "-") else float(coef + "1")
        with np.errstate(over="ignore", invalid="ignore"):
            u = c * space.eigenpairs(k)[k - 1][1]
        if not np.isfinite(u).all():
            raise ConfigError(f"bad start field {name!r}: values must be finite")
    elif os.path.exists(name):
        try:
            with open(name) as fh:
                u = field_from_csv(space, fh.read())
        except (OSError, ValueError, StopIteration) as exc:
            raise ConfigError(f"bad start field {name!r}: {exc or 'empty file'}") from exc
    else:
        raise ConfigError(f"unrecognized start {name!r}; use zero, c*phi1, c*phi2, or a CSV path")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(energy(prob, u)):
            raise ConfigError(f"bad start field {name!r}: its energy is not finite")
    return u


def read_checkpoint(space, path: str) -> Checkpoint:
    """The committed states of a checkpoint named on the command line.

    A missing or unreadable file, one with no commit, and a state whose field
    does not fit the grid or is not finite are config errors.
    """
    try:
        checkpoint = load_checkpoint(path, space)
    except (OSError, ValueError, MeshError) as exc:
        raise ConfigError(f"bad checkpoint {path!r}: {exc}") from exc
    if not all(np.isfinite(s.u).all() for s in checkpoint.states):
        raise ConfigError(f"bad checkpoint {path!r}: a committed field is not finite")
    return checkpoint


def _mu0_stage(cfg: RunConfig, prob, rng, run: _Run) -> tuple[float, tuple[float, float]]:
    """Stage mu0: (mu0, (C+, C-)) from one fit; a given mu0 overrides the fitted one."""
    run.stage = "mu0"
    fit = fit_mu0(prob, rng)
    if fit.mu_star is None:
        source = "fallback: fitted C = 0"
    else:
        capped = f", capped at {MU_STAR_CAP}" if fit.mu_star >= MU_STAR_CAP else ""
        source = f"fit: C = {max(fit.c):.6g}, mu* = {fit.mu_star:.6g}{capped}"
    if isinstance(cfg.mu0, float):
        run.log(f"given mu0 = {cfg.mu0:.6g} overrides the fitted {fit.mu0:.6g} ({source})")
        return cfg.mu0, fit.c
    run.log(f"auto mu0 = {fit.mu0:.6g} ({source})")
    return fit.mu0, fit.c


def _spawn_rngs(seed: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]


def _pre_stages(cfg: RunConfig, prob, rng, run: _Run, write: bool):
    """Hypotheses -> mu0 -> Schauder check, the prefix of solve and verify.

    Returns (hypotheses, mu0, invariance report, passed), with None for mu0
    and the report when the hypotheses fail; ``write`` writes each stage's
    report file as the stage ends.
    """
    run.stage = "hypotheses"
    hyp = check_hypotheses(cfg.potential,
                           int(np.random.SeedSequence(cfg.seed).generate_state(1)[0]))
    if write:
        run.write_json("hypothesis_report.json", hyp.to_dict())
    run.log(f"stage hypotheses: {'passed' if hyp.all_passed else 'failed'}")
    if not hyp.all_passed:
        return hyp, None, None, False
    mu0, c = _mu0_stage(cfg, prob, rng, run)
    run.stage = "schauder"
    rep_p, rep_m = check_schauder(prob, mu0, c, SCHAUDER_SAMPLES, rng)
    report = {"mu0": mu0, "plus": rep_p.to_dict(), "minus": rep_m.to_dict()}
    if write:
        run.write_json("invariance_report.json", report)
    passed = rep_p.passed and rep_m.passed and rep_p.inequality_ok and rep_m.inequality_ok
    run.log(f"stage schauder: {'passed' if passed else 'failed'}")
    return hyp, mu0, report, passed


def cmd_solve(cfg: RunConfig, run: _Run) -> int:
    run.open()
    rngs = _spawn_rngs(cfg.seed)
    space = build_space(cfg.grid)
    prob = EnergyProblem(space, cfg.potential, cfg.lam)

    hyp, mu0, _, passed = _pre_stages(cfg, prob, rngs[1], run, write=True)
    if not hyp.all_passed:
        return EXIT_NOT_CONVERGED
    if not passed:
        return EXIT_INVARIANCE

    run.stage = "frame"
    try:
        frame = build_frame(prob, mu0, rngs[2])
    except NoLinkingWindow as exc:
        run.write_json("linking_scan.json", {"error": str(exc), "profiles": dict(exc.profiles)})
        run.log(f"stage frame: {exc}")
        return EXIT_NO_LINKING
    run.write_json("frame.json", {"radius": frame.radius, "delta_t": frame.delta_t,
                                  "mu0": frame.mu0, "lambda1": frame.lam1,
                                  "lambda2": frame.lam2})
    run.log(f"stage frame: R={frame.radius:.6g} delta_T={frame.delta_t:.6g}")

    snapshot = None
    if cfg.snapshots:
        def snapshot(iteration, mesh):
            run.write_text(f"surface_{iteration:03d}.csv",
                           mesh.to_csv(prob, (f"iteration={iteration}",)))
    run.stage = "minimax"
    try:
        report = minimax_iterate(prob, frame, replace(cfg.flow, mu0=mu0), rngs[3],
                                 snapshot=snapshot)
    except (GapViolation, NotConverged) as exc:
        run.write_json("minimax_report.json", {"error": str(exc)})
        run.log(f"stage minimax: {exc}")
        return EXIT_NO_LINKING if isinstance(exc, GapViolation) else EXIT_NOT_CONVERGED

    run.write_json("minimax_report.json", report.to_dict())
    ext = report.extraction
    run.log(f"stage minimax: extraction bisection_rounds={ext['rounds']} "
            f"newton_attempts={ext['newton']} rejected_by_label={ext['off_label']} "
            f"rejected_by_energy_window={ext['off_window']}")
    if report.candidate is not None:
        run.write_text("solution.csv",
                       field_to_csv(space, report.candidate,
                                    (f"energy={report.candidate_energy!r}",
                                     f"slope={report.candidate_slope!r}")))
    if not report.converged:
        run.log("stage minimax: not converged")
        return EXIT_NOT_CONVERGED
    run.log(f"stage minimax: converged, label={report.label.value}")
    return EXIT_OK


def cmd_flow(cfg: RunConfig, run: _Run, start: str, resume: str | None) -> int:
    space = build_space(cfg.grid)
    prob = EnergyProblem(space, cfg.potential, cfg.lam)
    checkpoint = read_checkpoint(space, resume) if resume else None
    u0 = None if resume else parse_start(prob, start)
    run.open()
    rngs = _spawn_rngs(cfg.seed)
    mu0 = cfg.mu0 if isinstance(cfg.mu0, float) else _mu0_stage(cfg, prob, rngs[1], run)[0]
    flow_cfg = replace(cfg.flow, mu0=mu0)
    checkpoint_path = os.path.join(run.outdir, "checkpoint.json")
    run.stage = "flow"
    with run.writing():   # the checkpoint writes
        if resume:
            traj = resume_flow(prob, flow_cfg, checkpoint, checkpoint_path)
            run.log(f"resumed from {resume}")
        else:
            traj = integrate_flow(prob, u0, flow_cfg, checkpoint_path=checkpoint_path)
    run.write_text("trajectory.csv", traj.to_csv())
    run.write_text("solution.csv", field_to_csv(space, traj.final.u,
                                                (f"termination={traj.termination.value}",)))
    run.stage = "verdict"
    verdict = monitor_invariance(traj, mu0)
    run.write_json("flow_verdict.json",
                   dict(verdict.to_dict(), termination=traj.termination.value))
    run.log(f"flow finished: {traj.termination.value}, {len(traj.states)} states")
    if not verdict.passed:
        return EXIT_INVARIANCE
    if traj.termination is Termination.STEP_FAILURE:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_verify(cfg: RunConfig, run: _Run, start: str | None) -> int:
    space = build_space(cfg.grid)
    prob = EnergyProblem(space, cfg.potential, cfg.lam)
    # the PS monitor reads a stored trajectory or flows from a start field
    if start and start.endswith(".json"):
        stored = read_checkpoint(space, start).states
    else:
        stored, u_start = None, parse_start(prob, start or "0.5*phi1")
    run.open()
    rngs = _spawn_rngs(cfg.seed)
    hyp, mu0, invariance, schauder_ok = _pre_stages(cfg, prob, rngs[1], run, write=False)
    sections: dict = {"hypotheses": hyp.to_dict()}
    ok = hyp.all_passed
    invariance_fail = False

    if hyp.all_passed:
        sections["schauder"] = dict(invariance, passed=schauder_ok)
        ok = ok and schauder_ok
        invariance_fail = not schauder_ok

        # slope cross-validation at flow endpoints inside the cone neighborhoods
        run.stage = "slope_cross_validation"
        cross = []
        flow_cfg = replace(cfg.flow, mu0=mu0, t_max=min(10.0, cfg.flow.t_max))
        for sign in (1, -1):
            u0 = sign * 0.8 * space.eigenpairs(1)[0][1]
            traj = integrate_flow(prob, u0, flow_cfg)
            u_end = traj.final.u
            region = ConeNeighborhood(sign, mu0)
            msd = slope_on_set(prob, u_end, region)
            m_end = slope(prob, u_end).value
            tol = flow_cfg.tol_m
            consistent = (msd.value > tol) or (m_end <= 10.0 * tol)
            # a stopped L-BFGS-B run over-estimates m_D and can pass the
            # consistency test, so an unconverged entry fails verify
            cross.append({"sign": sign, "set_slope": msd.value, "slope": m_end,
                          "tol": tol, "consistent": consistent,
                          "set_slope_converged": msd.converged, "set_slope_gap": msd.gap})
            ok = ok and consistent and msd.converged
            invariance_fail = invariance_fail or not consistent
        sections["slope_cross_validation"] = cross

        run.stage = "ps_monitor"
        if stored is None:
            states, source = integrate_flow(prob, u_start, flow_cfg).states, "fresh flow"
        else:
            states, source = stored, start
        ps = ps_monitor(space, [(s.u, s.j, s.m) for s in states])
        sections["ps_monitor"] = dict(ps.to_dict(), source=source)
        ok = ok and ps.passed
        invariance_fail = invariance_fail or not ps.passed

    run.write_json("verify_report.json", dict(sections, passed=ok))
    run.log(f"verify: {'passed' if ok else 'failed'}")
    if ok:
        return EXIT_OK
    return EXIT_INVARIANCE if invariance_fail else EXIT_NOT_CONVERGED


def cmd_spectrum(cfg: RunConfig, run: _Run, k: int) -> int:
    space = build_space(cfg.grid)
    pairs = space.eigenpairs(k)
    run.open()
    names = ["x", "y"][: space.grid.dimension]
    run.write_text("spectrum.csv", csv_text(
        ("lambdas=" + ",".join(repr(v) for v, _ in pairs),),
        names + [f"phi{i+1}" for i in range(k)],
        np.column_stack([space.grid.coords()] + [vec for _, vec in pairs]).tolist()))
    run.log(f"spectrum: wrote {k} eigenpairs")
    return EXIT_OK


# the stages whose wall seconds each command logs last
STAGES = {
    "solve": ("hypotheses", "mu0", "schauder", "frame", "minimax", "write"),
    "flow": ("mu0", "flow", "verdict", "write"),
    "verify": ("hypotheses", "mu0", "schauder", "slope_cross_validation", "ps_monitor",
               "write"),
    "spectrum": ("write",),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nodalflow",
                                     description="descending-flow sign-changing solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "flow", "verify", "spectrum"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "flow":
            p.add_argument("--start", default="zero")
            p.add_argument("--resume", default=None)
        if name == "verify":
            p.add_argument("--start", default=None)
        if name == "spectrum":
            p.add_argument("--k", type=int, default=2)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        if args.seed is not None and isinstance(raw, dict):   # load_config rejects the rest
            raw["seed"] = args.seed
        cfg = load_config(raw)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    run = _Run(args.out or cfg.output_dir, cfg)
    try:
        if args.command == "solve":
            return cmd_solve(cfg, run)
        if args.command == "flow":
            return cmd_flow(cfg, run, args.start, args.resume)
        if args.command == "verify":
            return cmd_verify(cfg, run, args.start)
        return cmd_spectrum(cfg, run, args.k)
    except (ConfigError, MeshError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProjectionError, SlopeError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        run.write_error(exc)
        return EXIT_NOT_CONVERGED
    finally:
        run.log_timings(STAGES[args.command])


if __name__ == "__main__":
    sys.exit(main())
