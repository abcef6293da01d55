"""Linking construction and one-labelling minimax.

Q is the eigen-plane half disk {rho * R (cos(th) phi1^ + sin(th) phi2^)} with
phi_k^ the energy-normalized eigenfields; T is a sphere of radius delta_T in
the mass-orthogonal complement of phi1.  The half-disk radius R is scanned so
the energy is negative on the whole radius-R arc, delta_T so the energy is
positive on T while T stays clear of both cone neighborhoods.

The identity is an admissible deformation, so the sup of J over the
sign-changing points of the undeformed surface bounds the linking level from
above; the surface is labelled and scored once, and no deformation follows.
The critical candidate is extracted from the maximizer by bisecting across the
descent separatrix.  Each round's closest approach to a critical point that
improves on the best so far goes to a Newton corrector, and bisection stops at
the first corrected point that is sign-changing with energy between beta and
that of the approach (or at a trajectory that parks at slope tolerance in the
sign-changing region).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.sparse import diags as sp_diags
from scipy.sparse.linalg import splu

from ._serial import csv_text
from .cones import RegionLabel, min_dist_to_cones, region_of
from .energy import EnergyProblem, energies, slope
from .flow import ENERGY_SLACK, FlowConfig, Termination, integrate_flow, make_state
from .mesh import DiscreteSpace

T_MODES = 8          # T directions are drawn from the first T_MODES eigenfields past phi1
SCAN_RADII = tuple(float(r) for r in np.geomspace(1.0, 200.0, 40))   # scanned R
SCAN_N_THETA = 64      # arc angles each scanned R is scored at
SCAN_DELTAS = tuple(float(d) for d in np.geomspace(0.05, 25.0, 48))  # scanned delta_T
RADIUS_MARGIN = 1.15   # R is the first scanned radius with J < 0 on its arc, times this
N_DIRECTIONS = 32      # T directions sampled by the scan
CONE_MARGIN = 1.05     # an admissible T clears the cone neighborhoods by this factor
RETRY_BUDGET = 4       # surface points the extraction starts from, highest J first
BISECT_ROUNDS = 40     # rounds of one separatrix bisection
CLASSIFY_T_CHUNK = 2.0     # flow time of one classification chunk
CLASSIFY_MAX_CHUNKS = 8    # chunks before a descent is left unresolved
MESH_TOL = 1e-2        # floor of the surface's J-resolution at the maximizer
SURFACE_NR = 7         # radial nodes of the surface's parameter grid
SURFACE_NT = 25        # angular nodes of the surface's parameter grid
ALPHA_ARC_POINTS = 96  # points of the radius-R arc alpha is the max over
BETA_SAMPLES = 64      # points of T beta is the min over
NEWTON_MAX_ITER = 50   # damped Newton steps of one polish
# what the separatrix extraction counts: bisection rounds, Newton attempts,
# and corrected points rejected by region label and by energy window
EXTRACTION_COUNTS = ("rounds", "newton", "off_label", "off_window")


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
class LinkingFrame:
    phi1: np.ndarray
    phi2: np.ndarray
    lam1: float
    lam2: float
    radius: float          # R, size of Q
    delta_t: float         # radius of T
    mu0: float

    @cached_property
    def _hats(self) -> tuple[np.ndarray, np.ndarray]:
        """The energy-normalized eigenfields phi1^ and phi2^."""
        return self.phi1 / np.sqrt(self.lam1), self.phi2 / np.sqrt(self.lam2)

    def q_points(self, rho, theta) -> np.ndarray:
        """Points of Q on the grid rho x theta, as a (len(rho), len(theta), dim) block."""
        hat1, hat2 = self._hats
        arc = np.cos(theta)[:, None] * hat1 + np.sin(theta)[:, None] * hat2
        return (np.asarray(rho) * self.radius)[:, None, None] * arc


def _v_directions(space: DiscreteSpace, phi1: np.ndarray, count: int,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """Unit directions M-orthogonal to phi1, drawn from the low eigenmodes.

    Spectrally rough random fields come arbitrarily close to the cones, which
    would make the sampled T sphere graze the neighborhoods; combinations of
    the first few higher eigenfields stay uniformly clear.
    """
    k = min(T_MODES + 1, space.dim)
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
                    rng: np.random.Generator) -> list[np.ndarray]:
    """Fields on the T sphere: delta_T times unit directions M-orthogonal to phi1.

    The pure phi2 direction is always the first sample.
    """
    return [frame.delta_t * d
            for d in _v_directions(space, frame.phi1, count, rng)]


def build_frame(prob: EnergyProblem, mu0: float, rng: np.random.Generator) -> LinkingFrame:
    """Scan for the linking pair: R with J < 0 on the radius-R eigen-plane arc,
    delta_T with J > 0 on the T sphere and T clear of both cone neighborhoods."""
    space = prob.space
    (lam1, phi1), (lam2, phi2) = space.eigenpairs(2)
    # the unit arc, one angle per row; each radius scores its arc as one block
    unit = LinkingFrame(phi1, phi2, lam1, lam2, 1.0, 0.0, mu0)
    arc = unit.q_points([1.0], np.linspace(0.0, np.pi, SCAN_N_THETA))[0]

    def arc_max(radius: float) -> float:
        return float(np.max(energies(prob, radius * arc)))

    radius = None
    radius_profile = {}
    for r in SCAN_RADII:
        radius_profile[r] = arc_max(r)
        if radius_profile[r] < 0.0:
            cand = r * RADIUS_MARGIN
            if arc_max(cand) < 0.0:
                radius = cand
                break
    if radius is None:
        raise NoLinkingWindow(
            "no radius with negative energy on the eigen-plane arc",
            {"radius_profile": radius_profile})

    dirs = _v_directions(space, phi1, N_DIRECTIONS, rng)
    # cone distances are positively homogeneous: evaluate once at unit scale
    unit_dist = min_dist_to_cones(space, dirs)
    dir_block = np.array(dirs)
    # the smallest admissible radius with a comfortable clearance margin, else
    # the largest admissible one
    delta_profile = {}
    delta_t = None
    for delta in SCAN_DELTAS:
        if delta >= radius:
            continue
        min_j = float(np.min(energies(prob, delta * dir_block)))
        delta_profile[delta] = min_j
        if min_j > 0.0 and delta * unit_dist > mu0 * CONE_MARGIN:
            delta_t = delta
            if delta * unit_dist >= 1.25 * mu0:
                break
    if delta_t is None:
        raise NoLinkingWindow(
            "no T radius with positive energy clear of the cone neighborhoods",
            {"delta_profile": delta_profile, "radius": radius,
             "unit_cone_distance": unit_dist})
    return replace(unit, radius=radius, delta_t=delta_t)


def estimate_alpha_beta(prob: EnergyProblem, frame: LinkingFrame,
                        rng: np.random.Generator) -> tuple[float, float]:
    """alpha = max J over the sign-changing part of dQ, beta = min J over T.

    Only the radius-R arc is labelled: the bottom segment of dQ is the
    multiples of phi1^, and phi1 > 0 puts them in the cones."""
    space = prob.space
    arc = frame.q_points([1.0], np.linspace(0.0, np.pi, ALPHA_ARC_POINTS))[0]
    changing = [u for u in arc
                if region_of(space, u, frame.mu0) is RegionLabel.SIGN_CHANGING]
    beta = float(np.min(energies(prob, sample_t_sphere(space, frame, BETA_SAMPLES, rng))))
    if not changing:
        raise NoLinkingWindow("no sign-changing points found on the Q boundary")
    alpha = float(np.max(energies(prob, changing)))
    if not alpha < beta:
        raise GapViolation(f"no gap: alpha={alpha:.6g} >= beta={beta:.6g}",
                           {"alpha": alpha, "beta": beta})
    return alpha, beta


# -- surface ------------------------------------------------------------------


@dataclass
class SurfaceMesh:
    """Images of the parameter grid (rho, theta), and which identity images
    are sign-changing at the frame's mu0.  That mask splits the parameter
    boundary into identity-pinned points (dQ cap S) and points constrained to
    W, for the identity and for every deformation of it."""

    rho: np.ndarray            # (nr,)
    theta: np.ndarray          # (nt,)
    images: np.ndarray         # (nr, nt, dim)
    changing: np.ndarray       # (nr, nt) identity image sign-changing

    @staticmethod
    def identity_embedding(prob: EnergyProblem, frame: LinkingFrame,
                           nr: int, nt: int) -> "SurfaceMesh":
        rho = np.linspace(0.0, 1.0, nr)
        theta = np.linspace(0.0, np.pi, nt)
        mesh = SurfaceMesh(rho, theta, frame.q_points(rho, theta),
                           np.zeros((nr, nt), dtype=bool))
        mesh.changing = np.array([[lbl is RegionLabel.SIGN_CHANGING for lbl in row]
                                  for row in mesh.labels(prob, frame.mu0)])
        return mesh

    @property
    def _boundary(self) -> np.ndarray:
        boundary = np.zeros(self.changing.shape, dtype=bool)
        boundary[-1, :] = True               # the radius-R arc
        boundary[:, 0] = boundary[:, -1] = True   # the bottom segment (theta in {0, pi})
        boundary[0, :] = True                # the degenerate center (0 in W)
        return boundary

    @property
    def frozen(self) -> np.ndarray:
        """(nr, nt) identity-pinned boundary (dQ cap S)."""
        return self._boundary & self.changing

    @property
    def wcon(self) -> np.ndarray:
        """(nr, nt) boundary constrained to W."""
        return self._boundary & ~self.changing

    def labels(self, prob: EnergyProblem, mu0: float) -> np.ndarray:
        """(nr, nt) object array of the images' region labels."""
        out = np.empty(self.images.shape[:2], dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = region_of(prob.space, self.images[idx], mu0)
        return out

    def energies(self, prob: EnergyProblem) -> np.ndarray:
        nr, nt, dim = self.images.shape
        return energies(prob, self.images.reshape(nr * nt, dim)).reshape(nr, nt)

    def to_csv(self, prob: EnergyProblem, header_lines: tuple[str, ...] = ()) -> str:
        """Energy matrix of the surface (rows rho, columns theta), for plotting."""
        js = self.energies(prob)
        return csv_text(header_lines, ["rho\\theta", *self.theta.tolist()],
                        np.column_stack([self.rho, js]).tolist())


def deform_surface(prob: EnergyProblem, mesh: SurfaceMesh,
                   flow_cfg: FlowConfig) -> SurfaceMesh:
    """One deformation sweep: flow every non-frozen image for the configured
    horizon; frozen points are untouched, W-boundary points are re-verified.

    No command calls it; it goes together with the benchmark tracer's entry
    for it (ROADMAP item 4)."""
    new_images = mesh.images.copy()
    violations = []
    frozen, wcon = mesh.frozen, mesh.wcon
    nr, nt = frozen.shape
    for i in range(nr):
        for k in range(nt):
            if frozen[i, k]:
                continue
            traj = integrate_flow(prob, mesh.images[i, k], flow_cfg)
            new_images[i, k] = traj.final.u
            if wcon[i, k] and traj.final.label is RegionLabel.SIGN_CHANGING:
                violations.append({"rho_index": i, "theta_index": k})
    if violations:
        raise InvarianceViolation(f"W-boundary points left W: {violations}")
    return SurfaceMesh(mesh.rho, mesh.theta, new_images, mesh.changing)


# -- minimax -------------------------------------------------------------------


@dataclass
class MinimaxReport:
    """``r_estimates`` holds the one sup of J over the sign-changing points of
    the identity surface, an upper bound on the linking level up to the mesh's
    J-resolution; ``level_bracket`` is [beta, that sup + the resolution]."""

    alpha: float
    beta: float
    r_estimates: list[float]
    maximizer_param: tuple[float, float]
    maximizer: np.ndarray
    candidate: np.ndarray | None
    candidate_slope: float
    label: RegionLabel | None
    converged: bool
    mesh_tolerance: float   # J-resolution of the surface mesh at the maximizer
    candidate_energy: float | None = None   # J(candidate); not part of to_dict
    # EXTRACTION_COUNTS of all bisections; for the log, not part of to_dict
    extraction: dict = field(default_factory=dict)

    @property
    def r_final(self) -> float:
        return self.r_estimates[-1]

    @property
    def level_bracket(self) -> tuple[float, float]:
        return self.beta, self.r_final + self.mesh_tolerance

    @property
    def level_consistent(self) -> bool:
        """beta <= J(candidate) <= r_final + mesh_tolerance; False without a
        candidate."""
        low, high = self.level_bracket
        j = self.candidate_energy
        return j is not None and bool(low <= j <= high)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha, "beta": self.beta,
            "r_estimates": [float(r) for r in self.r_estimates],
            "r_final": self.r_final,
            "level_bracket": list(self.level_bracket),
            "level_consistent": self.level_consistent,
            "maximizer_param": list(self.maximizer_param),
            "candidate_slope": self.candidate_slope,
            "label": None if self.label is None else self.label.value,
            "converged": self.converged,
            "mesh_tolerance": self.mesh_tolerance,
            "q_interpretation": "span construction: first eigen-plane half disk",
        }


def _classify_descent(prob: EnergyProblem, u0: np.ndarray, cfg: FlowConfig,
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
    base = replace(cfg, mu0=mu0, t_max=CLASSIFY_T_CHUNK, j_floor=floor_j,
                   max_steps=min(cfg.max_steps, 6000))
    u = u0
    dip = None
    dip_val = np.inf
    for _ in range(CLASSIFY_MAX_CHUNKS):
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
                prod = (1.0 + s.norm) * s.m
                if prod < dip_val:
                    dip_val, dip = prod, s
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
    c = prob.coefficient
    return c * dw


def _newton_polish(prob: EnergyProblem, u0: np.ndarray, tol_m: float):
    """Damped Newton corrector on the stationarity system Au = lam*M*j'(u).

    The descending flow cannot park at a saddle to high accuracy (transverse
    error grows while the slope decays), so the flow localizes and this
    corrector finishes; the returned point is re-certified by the slope QP."""
    space = prob.space
    u = u0.copy()
    res = slope(prob, u)
    for _ in range(NEWTON_MAX_ITER):
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


def _bisect_separatrix(prob, a, b, class_a, cfg, mu0, floor_j,
                       dip_floor: float = -np.inf, counts: dict | None = None):
    """Bisect the segment [a, b] across the descent separatrix.

    Each dip (see _classify_descent) that improves on the best so far goes to
    the Newton corrector at once.  Bisection stops at the first trajectory
    that parks at slope tolerance, or at the first corrected point that is
    sign-changing with energy in [dip_floor, J(dip)]: a descending trajectory
    only approaches critical points below it.  Returns None when neither
    comes within BISECT_ROUNDS rounds.  ``counts``, when given,
    accumulates the rounds run, the Newton attempts, and the corrected points
    rejected by label and by energy window.
    """
    counts = dict.fromkeys(EXTRACTION_COUNTS, 0) if counts is None else counts
    lo, hi = a, b
    best_val = np.inf
    for _ in range(BISECT_ROUNDS):
        counts["rounds"] += 1
        mid = 0.5 * (lo + hi)
        kind, state, dip = _classify_descent(prob, mid, cfg, mu0, floor_j, dip_floor)
        if kind == "done":
            return state
        if dip is not None and (val := (1.0 + dip.norm) * dip.m) < best_val:
            best_val = val
            counts["newton"] += 1
            polished = _newton_polish(prob, dip.u, cfg.tol_m)
            if polished is not None:
                found = make_state(prob, polished, 0.0, 0.0, mu0, None)[0]
                # the flow's own rounding slack on an energy decrease
                top = dip.j + ENERGY_SLACK * (1.0 + abs(dip.j))
                if found.label is not RegionLabel.SIGN_CHANGING:
                    counts["off_label"] += 1
                elif not dip_floor <= found.j <= top:
                    counts["off_window"] += 1
                else:
                    return found
        if kind == class_a or kind == "unresolved":
            lo = mid
        else:
            hi = mid
        if np.max(np.abs(hi - lo)) < 1e-15 * (1.0 + np.max(np.abs(a))):
            break
    return None


def minimax_iterate(prob: EnergyProblem, frame: LinkingFrame, cfg: FlowConfig,
                    rng: np.random.Generator, snapshot=None) -> MinimaxReport:
    """Minimax over the identity surface: label and score it once, take the
    sup of J over its sign-changing points, then extract the critical
    candidate from the maximizer.  The surface is the SURFACE_NR x SURFACE_NT
    parameter grid; the extraction's flows take ``cfg``'s tolerance and step cap.

    ``snapshot(0, mesh)``, when given, is called once with the surface
    (plot-ready via ``SurfaceMesh.to_csv``).
    """
    alpha, beta = estimate_alpha_beta(prob, frame, rng)
    nr, nt = SURFACE_NR, SURFACE_NT
    mesh = SurfaceMesh.identity_embedding(prob, frame, nr, nt)
    mu0 = frame.mu0
    floor_j = alpha - 10.0 * (1.0 + abs(alpha))

    if snapshot is not None:
        snapshot(0, mesh)
    js = mesh.energies(prob)
    smask = mesh.changing
    if not smask.any():
        raise NotConverged("no surface point lies outside the cone neighborhoods")
    masked = np.where(smask, js, -np.inf)
    flat = int(np.argmax(masked))
    # the report's maximizer is the argmax, whichever point the extraction
    # below ends on
    i, k = np.unravel_index(flat, masked.shape)
    maximizer = mesh.images[i, k].copy()
    param = (float(mesh.rho[i]), float(mesh.theta[k]))
    neighbor_js = [js[i + di, k + dk] for di, dk in ((1, 0), (-1, 0), (0, 1), (0, -1))
                   if 0 <= i + di < nr and 0 <= k + dk < nt]
    mesh_tolerance = max(MESH_TOL,
                         max(abs(js[i, k] - jn) for jn in neighbor_js))
    r_estimates = [float(masked.ravel()[flat])]

    # extraction: bisect the maximizer across the descent separatrix; every
    # state it can end on is sign-changing (a descent that leaves the
    # sign-changing region is classified "cone", and a bisection returns only
    # such a descent's end or a corrected point it checked)
    counts = dict.fromkeys(EXTRACTION_COUNTS, 0)
    class_cache: dict[tuple[int, int], tuple[str, object]] = {}

    def classify_at(idx):
        if idx not in class_cache:
            class_cache[idx] = _classify_descent(prob, mesh.images[idx], cfg,
                                                 mu0, floor_j, dip_floor=beta)
        return class_cache[idx]

    def extract():
        for flat in np.argsort(-masked, axis=None)[:RETRY_BUDGET]:
            if masked.ravel()[flat] == -np.inf:
                return None
            i, k = np.unravel_index(int(flat), masked.shape)
            kind, state, _ = classify_at((i, k))
            if kind == "done":
                return state
            if kind == "unresolved":
                continue
            # walk the scaling column, then the angular row, for a partner whose
            # descent lands in the other basin; the straight segment between the
            # two images then crosses the separatrix
            partners = ([(i + d, k) for d in range(1, nr) if 0 <= i + d < nr]
                        + [(i - d, k) for d in range(1, nr) if 0 <= i - d < nr]
                        + [(i, k + d) for d in range(1, nt) if 0 <= k + d < nt]
                        + [(i, k - d) for d in range(1, nt) if 0 <= k - d < nt])
            for idx in partners:
                pkind, pstate, _ = classify_at(idx)
                if pkind == "done":
                    return pstate
                if pkind == "unresolved" or pkind == kind:
                    continue
                found = _bisect_separatrix(prob, mesh.images[i, k], mesh.images[idx],
                                           kind, cfg, mu0, floor_j,
                                           dip_floor=beta, counts=counts)
                if found is not None:
                    return found
        return None

    candidate_state = extract()
    if candidate_state is None:
        return MinimaxReport(alpha, beta, r_estimates, param, maximizer, None,
                             float("nan"), None, False, mesh_tolerance, None, counts)
    final_slope = slope(prob, candidate_state.u).value
    return MinimaxReport(alpha, beta, r_estimates, param, maximizer,
                         candidate_state.u.copy(), final_slope, candidate_state.label,
                         final_slope <= cfg.tol_m, mesh_tolerance,
                         candidate_state.j, counts)
