"""Command-line pipeline: solve | flow | verify | spectrum.

Exit codes: 0 success, 2 config error, 3 no linking window, 4 not converged
(including failed structural hypotheses and numerical failures), 5 invariance
violation.  All randomness flows from the config seed through a fixed spawn
order: 0 hypothesis sampling, 1 mu0 fitting and the invariance check, 2 frame
scans, 3 minimax.  Artifacts carry the hex digest of the canonicalized config text;
--out chooses the destination directory and does not enter the hash.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from ._serial import dumps
from .cones import ProjectionError, check_schauder, fit_mu0
from .config import ConfigError, RunConfig, load_config
from .energy import (EnergyProblem, SlopeError, energy, ps_monitor, slope,
                     slope_on_set)
from .flow import (FlowError, Termination, integrate_flow, load_checkpoint,
                   monitor_invariance, resume_flow)
from .linking import (GapViolation, InvarianceViolation, NoLinkingWindow,
                      NotConverged, build_frame, minimax_iterate)
from .mesh import build_space, field_from_csv, field_to_csv
from .potential import SamplePlan, check_hypotheses

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_LINKING = 3
EXIT_NOT_CONVERGED = 4
EXIT_INVARIANCE = 5


class _Run:
    """Output directory plus a timestamped log (log excluded from determinism)."""

    def __init__(self, outdir: str, cfg: RunConfig):
        self.outdir = outdir
        self.cfg = cfg
        os.makedirs(outdir, exist_ok=True)
        self._log_path = os.path.join(outdir, "run.log")
        with open(self._log_path, "w") as fh:
            fh.write(f"# config_hash={cfg.hash}\n")

    def log(self, message: str):
        with open(self._log_path, "a") as fh:
            fh.write(f"[{time.strftime('%Y-%m-%dT%H:%M:%S')}] {message}\n")

    def write_text(self, name: str, text: str):
        with open(os.path.join(self.outdir, name), "w") as fh:
            fh.write(text)

    def write_json(self, name: str, payload: dict):
        payload = dict(payload)
        payload["config_hash"] = self.cfg.hash
        with open(os.path.join(self.outdir, name), "w") as fh:
            fh.write(dumps(payload, indent=2))
            fh.write("\n")


_START_RE = re.compile(r"^([+-]?\d*\.?\d*(?:[eE][+-]?\d+)?)\s*\*?\s*phi([12])$")


def parse_start(space, name: str) -> np.ndarray:
    if name == "zero":
        return space.zero_field()
    match = _START_RE.match(name.strip())
    if match:
        coef = match.group(1)
        c = float(coef) if coef not in ("", "+", "-") else float(coef + "1")
        k = int(match.group(2))
        return c * space.eigenpairs(k)[k - 1][1]
    if os.path.exists(name):
        with open(name) as fh:
            return field_from_csv(space, fh.read())
    raise ConfigError(f"unrecognized start {name!r}; use zero, c*phi1, c*phi2, or a CSV path")


def _resolve_mu0(cfg: RunConfig, prob, rng, run: _Run) -> float:
    if isinstance(cfg.mu0, float):
        return cfg.mu0
    mu0 = fit_mu0(prob, rng)
    run.log(f"auto mu0 = {mu0:.6g}")
    return mu0


def _spawn_rngs(seed: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]


def cmd_solve(cfg: RunConfig, outdir: str) -> int:
    run = _Run(outdir, cfg)
    rngs = _spawn_rngs(cfg.seed)
    space = build_space(cfg.grid)
    prob = EnergyProblem(space, cfg.potential, cfg.lam)

    plan = SamplePlan(seed=int(np.random.SeedSequence(cfg.seed).generate_state(1)[0]))
    hyp = check_hypotheses(cfg.potential, plan)
    run.write_json("hypothesis_report.json", hyp.to_dict())
    if not hyp.all_passed:
        run.log("stage hypotheses: failed")
        return EXIT_NOT_CONVERGED
    run.log("stage hypotheses: passed")

    mu0 = _resolve_mu0(cfg, prob, rngs[1], run)
    samples = int(cfg.raw["tolerances"].get("schauder_samples", 100))
    rep_p, rep_m = check_schauder(prob, mu0, samples, rngs[1])
    run.write_json("invariance_report.json",
                   {"mu0": mu0, "plus": rep_p.to_dict(), "minus": rep_m.to_dict()})
    if not (rep_p.passed and rep_m.passed and rep_p.inequality_ok and rep_m.inequality_ok):
        run.log("stage schauder: failed")
        return EXIT_INVARIANCE
    run.log("stage schauder: passed")

    try:
        frame = build_frame(prob, mu0, cfg.scan_config(), rngs[2])
    except NoLinkingWindow as exc:
        run.write_json("linking_scan.json", {"error": str(exc), "profiles":
                                             {k: v for k, v in exc.profiles.items()}})
        run.log(f"stage frame: {exc}")
        return EXIT_NO_LINKING
    run.write_json("frame.json", {"radius": frame.radius, "delta_t": frame.delta_t,
                                  "mu0": frame.mu0, "lambda1": frame.lam1,
                                  "lambda2": frame.lam2})
    run.log(f"stage frame: R={frame.radius:.6g} delta_T={frame.delta_t:.6g}")

    snapshot = None
    if cfg.wants_surface_snapshots():
        def snapshot(iteration, mesh):
            run.write_text(f"surface_{iteration:03d}.csv",
                           mesh.to_csv(prob, (f"config_hash={cfg.hash}",
                                              f"iteration={iteration}")))
    try:
        report = minimax_iterate(prob, frame, cfg.minimax_config(mu0), rngs[3],
                                 snapshot=snapshot)
    except GapViolation as exc:
        run.write_json("minimax_report.json", {"error": str(exc)})
        run.log(f"stage minimax: {exc}")
        return EXIT_NO_LINKING
    except NotConverged as exc:
        run.write_json("minimax_report.json", {"error": str(exc)})
        run.log(f"stage minimax: {exc}")
        return EXIT_NOT_CONVERGED
    except InvarianceViolation as exc:
        run.write_json("minimax_report.json", {"error": str(exc)})
        run.log(f"stage minimax: {exc}")
        return EXIT_INVARIANCE

    run.write_json("minimax_report.json", report.to_dict())
    if report.candidate is not None:
        run.write_text("solution.csv",
                       field_to_csv(space, report.candidate,
                                    (f"config_hash={cfg.hash}",
                                     f"energy={energy(prob, report.candidate)!r}",
                                     f"slope={report.candidate_slope!r}")))
    if not report.converged:
        run.log("stage minimax: not converged")
        return EXIT_NOT_CONVERGED
    run.log(f"stage minimax: converged, label={report.label.value}")
    return EXIT_OK


def cmd_flow(cfg: RunConfig, outdir: str, start: str, resume: str | None) -> int:
    run = _Run(outdir, cfg)
    rngs = _spawn_rngs(cfg.seed)
    space = build_space(cfg.grid)
    prob = EnergyProblem(space, cfg.potential, cfg.lam)
    mu0 = _resolve_mu0(cfg, prob, rngs[1], run)
    flow_cfg = cfg.flow_config(mu0, checkpoint_every=cfg.checkpoint_every())
    checkpoint_path = os.path.join(outdir, "checkpoint.json")
    if resume:
        traj = resume_flow(prob, flow_cfg, resume)
        run.log(f"resumed from {resume}")
    else:
        u0 = parse_start(space, start)
        traj = integrate_flow(prob, u0, flow_cfg,
                              checkpoint_path=checkpoint_path
                              if flow_cfg.checkpoint_every else None)
    run.write_text("trajectory.csv", traj.to_csv((f"config_hash={cfg.hash}",)))
    run.write_text("solution.csv",
                   field_to_csv(space, traj.final.u,
                                (f"config_hash={cfg.hash}",
                                 f"termination={traj.termination.value}")))
    verdict = monitor_invariance(space, traj, mu0, flow_cfg)
    run.write_json("flow_verdict.json",
                   dict(verdict.to_dict(), termination=traj.termination.value))
    run.log(f"flow finished: {traj.termination.value}, {len(traj.states)} states")
    if not verdict.passed:
        return EXIT_INVARIANCE
    if traj.termination is Termination.STEP_FAILURE:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_verify(cfg: RunConfig, outdir: str, start: str | None) -> int:
    run = _Run(outdir, cfg)
    rngs = _spawn_rngs(cfg.seed)
    space = build_space(cfg.grid)
    prob = EnergyProblem(space, cfg.potential, cfg.lam)
    sections: dict = {}
    ok = True
    invariance_fail = False

    plan = SamplePlan(seed=int(np.random.SeedSequence(cfg.seed).generate_state(1)[0]))
    hyp = check_hypotheses(cfg.potential, plan)
    sections["hypotheses"] = hyp.to_dict()
    ok = ok and hyp.all_passed

    if hyp.all_passed:
        mu0 = _resolve_mu0(cfg, prob, rngs[1], run)
        samples = int(cfg.raw["tolerances"].get("schauder_samples", 100))
        rep_p, rep_m = check_schauder(prob, mu0, samples, rngs[1])
        schauder_ok = (rep_p.passed and rep_m.passed
                       and rep_p.inequality_ok and rep_m.inequality_ok)
        sections["schauder"] = {"mu0": mu0, "plus": rep_p.to_dict(),
                                "minus": rep_m.to_dict(), "passed": schauder_ok}
        ok = ok and schauder_ok
        invariance_fail = invariance_fail or not schauder_ok

        # slope cross-validation at flow endpoints inside the cone neighborhoods
        from .cones import ConeNeighborhood
        cross = []
        flow_cfg = cfg.flow_config(mu0, t_max=min(10.0, cfg.flow_config(mu0).t_max))
        for sign in (1, -1):
            u0 = sign * 0.8 * space.eigenpairs(1)[0][1]
            traj = integrate_flow(prob, u0, flow_cfg)
            u_end = traj.final.u
            region = ConeNeighborhood(sign, mu0)
            msd = slope_on_set(prob, u_end, region)
            m_end = slope(prob, u_end).value
            tol = flow_cfg.tol_m
            consistent = (msd.value > tol) or (m_end <= 10.0 * tol)
            cross.append({"sign": sign, "set_slope": msd.value, "slope": m_end,
                          "tol": tol, "consistent": consistent})
            ok = ok and consistent
            invariance_fail = invariance_fail or not consistent
        sections["slope_cross_validation"] = cross

        # PS monitor on a stored or freshly computed trajectory
        if start and os.path.exists(start) and start.endswith(".json"):
            states, _, _ = load_checkpoint(start)
            history = [(s.u, s.j, s.m) for s in states]
            source = start
        else:
            traj = integrate_flow(prob, parse_start(space, start or "0.5*phi1"), flow_cfg)
            history = [(s.u, s.j, s.m) for s in traj.states]
            source = "fresh flow"
        ps = ps_monitor(space, history)
        sections["ps_monitor"] = dict(ps.to_dict(), source=source)
        ok = ok and ps.passed
        invariance_fail = invariance_fail or not ps.passed

    run.write_json("verify_report.json", dict(sections, passed=ok))
    run.log(f"verify: {'passed' if ok else 'failed'}")
    if ok:
        return EXIT_OK
    return EXIT_INVARIANCE if invariance_fail else EXIT_NOT_CONVERGED


def cmd_spectrum(cfg: RunConfig, outdir: str, k: int) -> int:
    run = _Run(outdir, cfg)
    space = build_space(cfg.grid)
    pairs = space.eigenpairs(k)
    coords = space.grid.coords()
    lines = [f"# config_hash={cfg.hash}",
             "# lambdas=" + ",".join(repr(v) for v, _ in pairs)]
    names = ["x", "y"][: space.grid.dimension]
    header = ",".join(names + [f"phi{i+1}" for i in range(k)])
    rows = [header]
    for idx in range(space.dim):
        vals = [repr(float(c)) for c in coords[idx]]
        vals += [repr(float(vec[idx])) for _, vec in pairs]
        rows.append(",".join(vals))
    run.write_text("spectrum.csv", "\n".join(lines + rows) + "\n")
    run.log(f"spectrum: wrote {k} eigenpairs")
    return EXIT_OK


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
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = load_config(raw)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = args.out or cfg.output_dir
    try:
        if args.command == "solve":
            return cmd_solve(cfg, outdir)
        if args.command == "flow":
            return cmd_flow(cfg, outdir, args.start, args.resume)
        if args.command == "verify":
            return cmd_verify(cfg, outdir, args.start)
        return cmd_spectrum(cfg, outdir, args.k)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProjectionError, SlopeError, FlowError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
