"""Linking construction and deformation minimax.

Q is the eigen-plane half disk {rho * R (cos(th) phi1^ + sin(th) phi2^)} with
phi_k^ the energy-normalized eigenfields; T is a sphere of radius delta_T in
the mass-orthogonal complement of phi1.  The half-disk radius R is scanned so
the energy is negative on the whole radius-R arc, delta_T so the energy is
positive on T while T stays clear of both cone neighborhoods.

The inf over deformations is realized by repeatedly flowing the embedded
surface for a finite horizon and tracking the sup of J over sign-changing
surface points; the critical candidate is extracted from the stalled maximizer
by bisecting across the descent separatrix until a trajectory parks at slope
tolerance in the sign-changing region.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import diags as sp_diags
from scipy.sparse.linalg import splu

from ._serial import dumps
from .cones import RegionLabel, dist_to_cones, region_of
from .energy import EnergyProblem, energy, slope
from .flow import FlowConfig, Termination, _make_state, integrate_flow
from .mesh import DiscreteSpace


class NoLinkingWindow(RuntimeError):
    """No admissible (delta_T, R) pair at desk scale; carries scan profiles."""

    def __init__(self, message: str, profiles: dict | None = None):
        super().__init__(message)
        self.profiles = profiles or {}


class GapViolation(NoLinkingWindow):
    """alpha >= beta on the scanned frame."""


class NotConverged(RuntimeError):
    pass


class InvarianceViolation(RuntimeError):
    pass


@dataclass(frozen=True)
class ScanConfig:
    radius_grid: tuple[float, ...] = tuple(float(r) for r in np.geomspace(1.0, 200.0, 40))
    radius_margin: float = 1.15
    n_theta: int = 64
    delta_grid: tuple[float, ...] = tuple(float(d) for d in np.geomspace(0.05, 25.0, 48))
    n_directions: int = 32
    cone_margin: float = 1.05
    t_modes: int = 8   # T directions are drawn from the first t_modes eigenfields past phi1


@dataclass(frozen=True)
class LinkingFrame:
    phi1: np.ndarray
    phi2: np.ndarray
    lam1: float
    lam2: float
    radius: float          # R, size of Q
    delta_t: float         # radius of T
    mu0: float

    def q_point(self, rho: float, theta: float) -> np.ndarray:
        """Surface point of Q at polar parameters (rho, theta) in [0,1]x[0,pi]."""
        hat1 = self.phi1 / np.sqrt(self.lam1)
        hat2 = self.phi2 / np.sqrt(self.lam2)
        return rho * self.radius * (np.cos(theta) * hat1 + np.sin(theta) * hat2)


def _v_directions(space: DiscreteSpace, phi1: np.ndarray, count: int, modes: int,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """Unit directions M-orthogonal to phi1, drawn from the low eigenmodes.

    Spectrally rough random fields come arbitrarily close to the cones, which
    would make the sampled T sphere graze the neighborhoods; combinations of
    the first few higher eigenfields stay uniformly clear.
    """
    k = min(modes + 1, space.dim)
    basis = [vec for _, vec in space.eigenpairs(k)[1:]]
    dirs = [basis[0] / space.h1_norm(basis[0])]
    while len(dirs) < count:
        coeffs = rng.normal(size=len(basis))
        v = sum(c * b for c, b in zip(coeffs, basis))
        v -= space.l2_inner(v, phi1) * phi1  # phi1 is M-normalized
        nrm = space.h1_norm(v)
        if nrm > 1e-12:
            dirs.append(v / nrm)
    return dirs


def sample_t_sphere(space: DiscreteSpace, frame: LinkingFrame, count: int,
                    rng: np.random.Generator, modes: int = 8) -> list[np.ndarray]:
    """Fields on the T sphere: delta_T times unit directions M-orthogonal to phi1.

    The pure phi2 direction is always the first sample.
    """
    return [frame.delta_t * d
            for d in _v_directions(space, frame.phi1, count, modes, rng)]


def build_frame(prob: EnergyProblem, mu0: float, scan: ScanConfig,
                rng: np.random.Generator) -> LinkingFrame:
    """Scan for the linking pair: R with J < 0 on the radius-R eigen-plane arc,
    delta_T with J > 0 on the T sphere and T clear of both cone neighborhoods."""
    space = prob.space
    pairs = space.eigenpairs(2)
    (lam1, phi1), (lam2, phi2) = pairs[0], pairs[1]
    hat1, hat2 = phi1 / np.sqrt(lam1), phi2 / np.sqrt(lam2)
    thetas = np.linspace(0.0, np.pi, scan.n_theta)

    def arc_max(radius: float) -> float:
        return max(energy(prob, radius * (np.cos(t) * hat1 + np.sin(t) * hat2))
                   for t in thetas)

    radius = None
    radius_profile = {}
    for r in scan.radius_grid:
        radius_profile[r] = arc_max(r)
        if radius_profile[r] < 0.0:
            cand = r * scan.radius_margin
            if arc_max(cand) < 0.0:
                radius = cand
                break
    if radius is None:
        raise NoLinkingWindow(
            "no radius with negative energy on the eigen-plane arc",
            {"radius_profile": radius_profile})

    dirs = _v_directions(space, phi1, scan.n_directions, scan.t_modes, rng)
    # cone distances are positively homogeneous: evaluate once at unit scale
    unit_dist = min(min(dist_to_cones(space, d)) for d in dirs)
    delta_profile = {}
    feasible = []
    for delta in scan.delta_grid:
        if delta >= radius:
            continue
        min_j = min(energy(prob, delta * d) for d in dirs)
        delta_profile[delta] = min_j
        if min_j > 0.0 and delta * unit_dist > mu0 * scan.cone_margin:
            feasible.append(delta)
    if not feasible:
        raise NoLinkingWindow(
            "no T radius with positive energy clear of the cone neighborhoods",
            {"delta_profile": delta_profile, "radius": radius,
             "unit_cone_distance": unit_dist})
    # smallest admissible radius with a comfortable clearance margin
    delta_t = next((d for d in feasible if d * unit_dist >= 1.25 * mu0), feasible[-1])
    return LinkingFrame(phi1, phi2, lam1, lam2, radius, delta_t, mu0)


def estimate_alpha_beta(prob: EnergyProblem, frame: LinkingFrame,
                        rng: np.random.Generator, n_arc: int = 96,
                        n_t: int = 64) -> tuple[float, float]:
    """alpha = max J over the sign-changing part of dQ, beta = min J over T."""
    space = prob.space
    alpha = -np.inf
    for theta in np.linspace(0.0, np.pi, n_arc):
        for rho, th in [(1.0, theta), (theta / np.pi, 0.0), (theta / np.pi, np.pi)]:
            u = frame.q_point(rho, th)
            if region_of(space, u, frame.mu0) is RegionLabel.SIGN_CHANGING:
                alpha = max(alpha, energy(prob, u))
    beta = min(energy(prob, v) for v in sample_t_sphere(space, frame, n_t, rng))
    if not np.isfinite(alpha):
        raise NoLinkingWindow("no sign-changing points found on the Q boundary")
    if not alpha < beta:
        raise GapViolation(f"no gap: alpha={alpha:.6g} >= beta={beta:.6g}",
                           {"alpha": alpha, "beta": beta})
    return float(alpha), float(beta)


# -- surface ------------------------------------------------------------------


@dataclass
class SurfaceMesh:
    rho: np.ndarray            # (nr,)
    theta: np.ndarray          # (nt,)
    images: np.ndarray         # (nr, nt, dim)
    frozen: np.ndarray         # (nr, nt) identity-pinned boundary (dQ cap S)
    wcon: np.ndarray           # (nr, nt) boundary constrained to W

    @staticmethod
    def identity_embedding(prob: EnergyProblem, frame: LinkingFrame,
                           nr: int, nt: int) -> "SurfaceMesh":
        space = prob.space
        rho = np.linspace(0.0, 1.0, nr)
        theta = np.linspace(0.0, np.pi, nt)
        images = np.empty((nr, nt, space.dim))
        for i, r in enumerate(rho):
            for k, th in enumerate(theta):
                images[i, k] = frame.q_point(r, th)
        boundary = np.zeros((nr, nt), dtype=bool)
        boundary[-1, :] = True               # the radius-R arc
        boundary[:, 0] = boundary[:, -1] = True   # the bottom segment (theta in {0, pi})
        boundary[0, :] = True                # the degenerate center (0 in W)
        frozen = np.zeros_like(boundary)
        wcon = np.zeros_like(boundary)
        for i in range(nr):
            for k in range(nt):
                if not boundary[i, k]:
                    continue
                lbl = region_of(space, images[i, k], frame.mu0)
                if lbl is RegionLabel.SIGN_CHANGING:
                    frozen[i, k] = True
                else:
                    wcon[i, k] = True
        return SurfaceMesh(rho, theta, images, frozen, wcon)

    def labels(self, prob: EnergyProblem, mu0: float) -> np.ndarray:
        nr, nt = self.frozen.shape
        out = np.empty((nr, nt), dtype=object)
        for i in range(nr):
            for k in range(nt):
                out[i, k] = region_of(prob.space, self.images[i, k], mu0)
        return out

    def energies(self, prob: EnergyProblem) -> np.ndarray:
        nr, nt = self.frozen.shape
        return np.array([[energy(prob, self.images[i, k]) for k in range(nt)]
                         for i in range(nr)])

    def to_csv(self, prob: EnergyProblem, header_lines: tuple[str, ...] = ()) -> str:
        """Energy matrix of the surface (rows rho, columns theta), for plotting."""
        js = self.energies(prob)
        lines = [f"# {line}" for line in header_lines]
        lines.append("rho\\theta," + ",".join(repr(float(t)) for t in self.theta))
        for i, r in enumerate(self.rho):
            lines.append(",".join([repr(float(r))] + [repr(float(v)) for v in js[i]]))
        return "\n".join(lines) + "\n"


def deform_surface(prob: EnergyProblem, mesh: SurfaceMesh,
                   flow_cfg: FlowConfig) -> SurfaceMesh:
    """One deformation sweep: flow every non-frozen image for the configured
    horizon; frozen points are untouched, W-boundary points are re-verified."""
    new_images = mesh.images.copy()
    violations = []
    nr, nt = mesh.frozen.shape
    for i in range(nr):
        for k in range(nt):
            if mesh.frozen[i, k]:
                continue
            traj = integrate_flow(prob, mesh.images[i, k], flow_cfg)
            new_images[i, k] = traj.final.u
            if mesh.wcon[i, k] and traj.final.label is RegionLabel.SIGN_CHANGING:
                violations.append({"rho_index": i, "theta_index": k})
    if violations:
        raise InvarianceViolation(f"W-boundary points left W: {violations}")
    return SurfaceMesh(mesh.rho, mesh.theta, new_images, mesh.frozen, mesh.wcon)


# -- minimax -------------------------------------------------------------------


@dataclass(frozen=True)
class MinimaxConfig:
    nr: int = 7
    nt: int = 25
    max_sweeps: int = 3
    stall_window: int = 3
    stall_rel: float = 2e-3
    band_frac: float = 0.02
    horizon_cap: float = 2.0
    sweep_tol_m: float = 1e-3   # loose slope parking during sweeps
    retry_budget: int = 4
    bisect_rounds: int = 40
    classify_t_chunk: float = 2.0
    classify_max_chunks: int = 8
    polish_dip: float = 0.05    # hand dips below this weighted slope to Newton
    mesh_tol: float = 1e-2
    flow: FlowConfig = field(default_factory=FlowConfig)


@dataclass
class MinimaxReport:
    alpha: float
    beta: float
    r_estimates: list[float]
    maximizer_param: tuple[float, float]
    maximizer: np.ndarray
    candidate: np.ndarray | None
    candidate_slope: float
    label: RegionLabel | None
    iterations: int
    converged: bool
    wrong_region_events: int = 0
    mesh_tolerance: float = 0.0   # J-resolution of the surface mesh at the maximizer

    @property
    def r_final(self) -> float:
        return self.r_estimates[-1]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha, "beta": self.beta,
            "r_estimates": [float(r) for r in self.r_estimates],
            "r_final": self.r_final,
            "maximizer_param": list(self.maximizer_param),
            "candidate_slope": self.candidate_slope,
            "label": None if self.label is None else self.label.value,
            "iterations": self.iterations, "converged": self.converged,
            "wrong_region_events": self.wrong_region_events,
            "mesh_tolerance": self.mesh_tolerance,
            "q_interpretation": "span construction: first eigen-plane half disk",
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())


def _classify_descent(prob: EnergyProblem, u0: np.ndarray, cfg: MinimaxConfig,
                      mu0: float, floor_j: float, dip_floor: float = -np.inf):
    """Flow from u0 until the outcome is decided.

    Returns (kind, state, dip) with kind "done" when a trajectory parks at
    slope tolerance in the sign-changing region, "cone" on entering a cone
    neighborhood, "blown" on crossing the energy floor, else "unresolved";
    ``dip`` is the sign-changing state of least weighted slope seen above the
    energy level ``dip_floor`` (the closest recorded approach to a
    sign-changing critical point at the linking level; the floor screens out
    approaches to low-energy attractors).
    """
    space = prob.space
    base = replace(cfg.flow, mu0=mu0, level_r=None, excised_points=(),
                   t_max=cfg.classify_t_chunk, j_floor=floor_j,
                   max_steps=min(cfg.flow.max_steps, 6000))
    u = u0
    dip = None
    dip_val = np.inf
    for _ in range(cfg.classify_max_chunks):
        traj = integrate_flow(prob, u, base)
        kind = None
        for s in traj.states:
            if s.j < floor_j:
                kind = "blown"
                break
            if s.label is not RegionLabel.SIGN_CHANGING:
                kind = "cone"
                break
            if s.j > dip_floor:
                prod = (1.0 + space.h1_norm(s.u)) * s.m
                if prod < dip_val:
                    dip_val, dip = prod, s
        if traj.termination is Termination.ENERGY_FLOOR:
            kind = kind or "blown"
        if kind is not None:
            return kind, None, dip
        final = traj.final
        if traj.termination is Termination.SLOPE_BELOW_TOL:
            return "done", final, dip
        if traj.termination is Termination.STEP_FAILURE:
            return "unresolved", None, dip
        u = final.u
    return "unresolved", None, dip


def _potential_curvature(prob: EnergyProblem, u: np.ndarray) -> np.ndarray:
    """Nodal d/ds of the selection j'(u_i), by central differences off kinks."""
    h = 1e-6 * (1.0 + np.abs(u))
    dw = (prob.potential.derivative(u + h) - prob.potential.derivative(u - h)) / (2 * h)
    c = prob.coefficient()
    return c * dw


def _newton_polish(prob: EnergyProblem, u0: np.ndarray, tol_m: float,
                   max_iter: int = 50):
    """Damped Newton corrector on the stationarity system Au = lam*M*j'(u).

    The descending flow cannot park at a saddle to high accuracy (transverse
    error grows while the slope decays), so the flow localizes and this
    corrector finishes; the returned point is re-certified by the slope QP."""
    space = prob.space
    u = u0.copy()
    res = slope(prob, u)
    for _ in range(max_iter):
        if (1.0 + space.h1_norm(u)) * res.value <= tol_m:
            return u
        jac = space.A - prob.lam * sp_diags(space.M_diag * _potential_curvature(prob, u))
        try:
            step = splu(jac.tocsc()).solve(res.certificate)
        except RuntimeError:  # exactly singular Jacobian
            return None
        gamma = 1.0
        improved = None
        for _ in range(30):
            trial = u - gamma * step
            trial_res = slope(prob, trial)
            if trial_res.value < res.value:
                improved = (trial, trial_res)
                break
            gamma *= 0.5
        if improved is None:
            return None
        u, res = improved
    if (1.0 + space.h1_norm(u)) * res.value <= tol_m:
        return u
    return None


def _bisect_separatrix(prob, a, b, class_a, class_b, cfg, mu0, floor_j,
                       dip_floor: float = -np.inf):
    """Bisect the segment [a, b] across the descent separatrix.

    Stops when a trajectory parks at slope tolerance, or when a recorded dip
    comes close enough to hand over to the Newton corrector."""
    space = prob.space
    lo, hi = a, b
    best_dip = None
    best_val = np.inf
    for _ in range(cfg.bisect_rounds):
        mid = 0.5 * (lo + hi)
        kind, state, dip = _classify_descent(prob, mid, cfg, mu0, floor_j, dip_floor)
        if kind == "done":
            return state
        if dip is not None:
            val = (1.0 + space.h1_norm(dip.u)) * dip.m
            if val < best_val:
                best_val, best_dip = val, dip
        if best_val <= cfg.polish_dip:
            break
        if kind == class_a or kind == "unresolved":
            lo = mid
        else:
            hi = mid
        if np.max(np.abs(hi - lo)) < 1e-15 * (1.0 + np.max(np.abs(a))):
            break
    if best_dip is None:
        return None
    polished = _newton_polish(prob, best_dip.u, cfg.flow.tol_m)
    if polished is None:
        return None
    return _make_state(prob, polished, 0.0, 0.0, mu0, {})


def minimax_iterate(prob: EnergyProblem, frame: LinkingFrame, cfg: MinimaxConfig,
                    rng: np.random.Generator, snapshot=None) -> MinimaxReport:
    """Deformation minimax of Theorem-style linking: sweep, track the sup of J
    over sign-changing surface points, then extract the critical candidate.

    ``snapshot(iteration, mesh)``, when given, is called once per sweep with
    the current surface (plot-ready via ``SurfaceMesh.to_csv``).
    """
    space = prob.space
    alpha, beta = estimate_alpha_beta(prob, frame, rng)
    mesh = SurfaceMesh.identity_embedding(prob, frame, cfg.nr, cfg.nt)
    mu0 = frame.mu0
    floor_j = alpha - 10.0 * (1.0 + abs(alpha))

    r_estimates: list[float] = []
    maximizer_idx = (0, 0)
    for sweep in range(cfg.max_sweeps):
        if snapshot is not None:
            snapshot(sweep, mesh)
        labels = mesh.labels(prob, mu0)
        js = mesh.energies(prob)
        smask = np.array([[labels[i, k] is RegionLabel.SIGN_CHANGING
                           for k in range(cfg.nt)] for i in range(cfg.nr)])
        if not smask.any():
            raise NotConverged("no surface point remains outside the cone neighborhoods")
        masked = np.where(smask, js, -np.inf)
        flat = int(np.argmax(masked))
        maximizer_idx = np.unravel_index(flat, masked.shape)
        r_estimates.append(float(masked.ravel()[flat]))

        if (len(r_estimates) >= cfg.stall_window
                and max(r_estimates[-cfg.stall_window:])
                - min(r_estimates[-cfg.stall_window:])
                <= cfg.stall_rel * (1.0 + abs(r_estimates[-1]))):
            break
        if sweep == cfg.max_sweeps - 1:
            break
        r_k = r_estimates[-1]
        eps = cfg.band_frac * (1.0 + abs(r_k - beta))
        in_band = [(1.0 + space.h1_norm(mesh.images[i, k]))
                   * slope(prob, mesh.images[i, k]).value
                   for i in range(cfg.nr) for k in range(cfg.nt)
                   if smask[i, k] and abs(js[i, k] - r_k) <= 2 * eps
                   and not mesh.frozen[i, k]]
        b_floor = min((v for v in in_band if v > cfg.flow.tol_m), default=0.0)
        horizon = cfg.horizon_cap if b_floor <= 0 else min(
            16.0 * eps / b_floor, cfg.horizon_cap)
        sweep_cfg = replace(cfg.flow, mu0=mu0, level_r=r_k, eps=eps,
                            eps_bar=2.0 * eps, t_max=horizon,
                            tol_m=max(cfg.flow.tol_m, cfg.sweep_tol_m),
                            max_steps=min(cfg.flow.max_steps, 4000))
        mesh = deform_surface(prob, mesh, sweep_cfg)

    # extraction: bisect the stalled maximizer across the descent separatrix
    labels = mesh.labels(prob, mu0)
    js = mesh.energies(prob)
    smask = np.array([[labels[i, k] is RegionLabel.SIGN_CHANGING
                       for k in range(cfg.nt)] for i in range(cfg.nr)])
    masked = np.where(smask, js, -np.inf)
    order = np.argsort(-masked, axis=None)
    wrong_region = 0
    candidate_state = None
    class_cache: dict[tuple[int, int], tuple[str, object]] = {}

    def classify_at(idx):
        if idx not in class_cache:
            class_cache[idx] = _classify_descent(prob, mesh.images[idx], cfg,
                                                 mu0, floor_j, dip_floor=beta)
        return class_cache[idx]

    def accept(found) -> bool:
        nonlocal candidate_state, wrong_region
        if found is None:
            return False
        if found.label is RegionLabel.SIGN_CHANGING:
            candidate_state = found
            return True
        wrong_region += 1
        return False

    tried = 0
    for flat in order:
        if tried >= cfg.retry_budget or masked.ravel()[flat] == -np.inf:
            break
        tried += 1
        i, k = np.unravel_index(int(flat), masked.shape)
        maximizer_idx = (int(i), int(k))
        kind, state, dip = classify_at((i, k))
        if kind == "done":
            if accept(state):
                break
            continue
        if kind == "unresolved":
            continue
        # walk the scaling column, then the angular row, for a partner whose
        # descent lands in the other basin; the straight segment between the
        # two images then crosses the separatrix
        partners = ([(i + d, k) for d in range(1, cfg.nr) if 0 <= i + d < cfg.nr]
                    + [(i - d, k) for d in range(1, cfg.nr) if 0 <= i - d < cfg.nr]
                    + [(i, k + d) for d in range(1, cfg.nt) if 0 <= k + d < cfg.nt]
                    + [(i, k - d) for d in range(1, cfg.nt) if 0 <= k - d < cfg.nt])
        for idx in partners:
            pkind, pstate, _ = classify_at(idx)
            if pkind == "done":
                if accept(pstate):
                    break
                continue
            if pkind == "unresolved" or pkind == kind:
                continue
            found = _bisect_separatrix(prob, mesh.images[i, k], mesh.images[idx],
                                       kind, pkind, cfg, mu0, floor_j,
                                       dip_floor=beta)
            if accept(found):
                break
        if candidate_state is not None:
            break

    i, k = maximizer_idx
    maximizer = mesh.images[i, k].copy()
    param = (float(mesh.rho[i]), float(mesh.theta[k]))
    neighbor_js = [js[i + di, k + dk] for di, dk in ((1, 0), (-1, 0), (0, 1), (0, -1))
                   if 0 <= i + di < cfg.nr and 0 <= k + dk < cfg.nt]
    mesh_tolerance = max(cfg.mesh_tol,
                         max(abs(js[i, k] - jn) for jn in neighbor_js))
    if candidate_state is None:
        return MinimaxReport(alpha, beta, r_estimates, param, maximizer, None,
                             float("nan"), None, len(r_estimates), False,
                             wrong_region, mesh_tolerance)
    final_slope = slope(prob, candidate_state.u).value
    label = region_of(space, candidate_state.u, mu0)
    converged = final_slope <= cfg.flow.tol_m and label is RegionLabel.SIGN_CHANGING
    return MinimaxReport(alpha, beta, r_estimates, param, maximizer,
                         candidate_state.u.copy(), final_slope, label,
                         len(r_estimates), converged, wrong_region, mesh_tolerance)
