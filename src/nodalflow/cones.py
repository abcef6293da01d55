"""Cone geometry: metric projection onto the nonnegative cone, distance
neighborhoods, region classification, and the invariance (Schauder) checker.

All distances and projections live in the energy inner product u'Av, so the
projection onto P = {u >= 0 nodewise} is an obstacle-type QP, not a nodal
truncation.  It is solved by a primal-dual active-set iteration: A is an
M-matrix for these stencils, which guarantees finite convergence; every result
carries an explicit KKT residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._serial import dumps
from .mesh import DiscreteSpace


class ProjectionError(RuntimeError):
    """Active-set iteration failed to certify a projection."""


class RegionLabel(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    SIGN_CHANGING = "sign_changing"
    OVERLAP = "overlap"


@dataclass(frozen=True)
class ConeNeighborhood:
    """D^sign(mu) = {u : dist(u, sign*P) <= mu}, 0 < mu < 1."""

    sign: int
    mu: float

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 0 < self.mu < 1:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")


@dataclass
class ProjectionResult:
    projection: np.ndarray
    residual: np.ndarray      # u - projection
    distance: float
    kkt_residual: float
    active: np.ndarray        # boolean mask of clamped nodes (in cone orientation)
    iterations: int


def project_cone(space: DiscreteSpace, u: np.ndarray, sign: int = 1,
                 tol: float = 1e-9, max_iter: int = 80,
                 warm_active: np.ndarray | None = None) -> ProjectionResult:
    """A-metric projection onto P (sign=+1) or -P (sign=-1).

    Solves min_{v >= 0} (v-z)'A(v-z) with z = sign*u by primal-dual active set;
    the multiplier is r = A(v-z) with complementarity r_i v_i = 0.
    """
    u = space.check_field(u)
    z = sign * u
    n = space.dim
    if np.all(z >= 0.0):
        return ProjectionResult(u.copy(), np.zeros(n), 0.0, 0.0,
                                np.zeros(n, dtype=bool), 0)
    if warm_active is not None and warm_active.shape == (n,):
        active = warm_active.copy()
    else:
        active = z <= 0.0
    v = np.zeros(n)
    r = np.zeros(n)
    Az = space.A @ z
    for it in range(1, max_iter + 1):
        inactive = ~active
        v.fill(0.0)
        if inactive.any():
            idx = np.flatnonzero(inactive)
            v[idx] = space.solve_reduced(Az[idx], idx)
        r = space.A @ (v - z)
        new_active = (v - r) < 0.0
        if np.array_equal(new_active, active):
            break
        active = new_active
    else:
        raise ProjectionError(f"active set did not settle after {max_iter} iterations")

    # clamp the certified active block exactly; measure KKT honestly afterwards
    v[active] = 0.0
    r = space.A @ (v - z)
    kkt = max(
        float(-min(v.min(initial=0.0), 0.0)),
        float(-min(r[active].min(initial=0.0), 0.0)) if active.any() else 0.0,
        float(np.max(np.abs(v * r))) if n else 0.0,
    )
    if kkt > tol * max(1.0, float(np.max(np.abs(z)))):
        raise ProjectionError(f"KKT residual {kkt:.3e} above tolerance {tol:.1e}")
    proj = sign * v
    resid = u - proj
    dist = float(np.sqrt(max(resid @ (space.A @ resid), 0.0)))
    return ProjectionResult(proj, resid, dist, kkt, active, it)


def dist_to_cones(space: DiscreteSpace, u: np.ndarray) -> tuple[float, float]:
    """(dist(u, P), dist(u, -P)) in the energy norm."""
    return (project_cone(space, u, 1).distance, project_cone(space, u, -1).distance)


def region_of(space: DiscreteSpace, u: np.ndarray, mu0: float,
              dists: tuple[float, float] | None = None) -> RegionLabel:
    if not 0 < mu0 < 1:
        raise ValueError(f"mu0 must lie in (0, 1), got {mu0}")
    d_plus, d_minus = dists if dists is not None else dist_to_cones(space, u)
    near_p, near_m = d_plus <= mu0, d_minus <= mu0
    if near_p and near_m:
        return RegionLabel.OVERLAP
    if near_p:
        return RegionLabel.POSITIVE
    if near_m:
        return RegionLabel.NEGATIVE
    return RegionLabel.SIGN_CHANGING


# -- invariance / (H_1) checking ---------------------------------------------


@dataclass
class InvarianceReport:
    sign: int
    mu0: float
    worst_ratio: float
    fitted_c: float
    q: float
    n_samples: int
    passed: bool
    inequality_ok: bool
    witness_distance: float

    def to_dict(self) -> dict:
        return {
            "sign": self.sign, "mu0": self.mu0, "worst_ratio": self.worst_ratio,
            "fitted_c": self.fitted_c, "q": self.q, "n_samples": self.n_samples,
            "passed": self.passed, "inequality_ok": self.inequality_ok,
            "witness_distance": self.witness_distance,
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())


def _selection_images(prob, u: np.ndarray, rng: np.random.Generator | None,
                      n_corners: int = 2) -> list[np.ndarray]:
    """Riesz images lam*A^-1*M*w for extreme box selections w at u."""
    from .energy import subdifferential_box  # local import to avoid a cycle

    box = subdifferential_box(prob, u)
    space = prob.space
    picks = [box.lo, box.hi]
    width = box.hi - box.lo
    if rng is not None and np.any(width > 0):
        for _ in range(n_corners):
            mask = rng.integers(0, 2, size=space.dim).astype(bool)
            picks.append(np.where(mask, box.hi, box.lo))
    return [prob.lam * space.solve(space.M_diag * w) for w in picks]


def _boundary_samples(prob, sign: int, distances: np.ndarray, per_distance: int,
                      rng: np.random.Generator) -> list[tuple[np.ndarray, float]]:
    """Fields at prescribed cone distances: u = p + d * unit, p in sign*P.

    Perturbation directions alternate between rough white-noise fields and
    smooth low-eigenmode combinations; the smooth ones carry O(1) amplitude at
    unit energy norm and are the demanding samples for the image inequality.
    """
    space = prob.space
    k_modes = min(8, space.dim)
    modes = [vec for _, vec in space.eigenpairs(k_modes)]
    phi1 = modes[0]
    out = []
    for d in distances:
        accepted = 0
        attempts = 0
        while accepted < per_distance and attempts < 30 * per_distance:
            k = attempts
            attempts += 1
            if k % 3 == 0:
                p = np.abs(rng.normal(size=space.dim))
                p *= rng.uniform(0.2, 2.0) / max(space.h1_norm(p), 1e-12)
            elif k % 3 == 1:
                p = rng.uniform(0.2, 3.0) * phi1
            else:
                p = space.zero_field()
            if k % 2 == 0:
                e = sum(c * m for c, m in zip(rng.normal(size=k_modes), modes))
            else:
                e = rng.normal(size=space.dim)
            e /= max(space.h1_norm(e), 1e-12)
            u = sign * p + d * e
            d_actual = project_cone(space, u, sign).distance
            if d_actual > 1e-12:
                out.append((u, d_actual))
                accepted += 1
    return out


def check_schauder(prob, mu0: float, sample_count: int = 100,
                   rng: np.random.Generator | None = None,
                   extra_states: tuple[np.ndarray, ...] = (),
                   ratio_tol: float = 1e-6) -> tuple[InvarianceReport, InvarianceReport]:
    """Measure the cone-neighborhood invariance of the map u -> lam*A^-1*M*w.

    For each sign: samples u with dist(u, sign*P) spread over (0, 1], computes the
    worst image ratio dist(image, sign*P)/mu0 at the boundary level mu0, and fits
    the inequality constant C in dist_img <= d/3 + C d^(q-1).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    space = prob.space
    q = prob.potential.q
    reports = []
    for sign in (1, -1):
        ladder = np.linspace(0.1, 1.0, 8)
        fit_samples = _boundary_samples(prob, sign, ladder, max(3, sample_count // 20), rng)
        c_fit = 0.0
        for u, d in fit_samples:
            for img in _selection_images(prob, u, rng):
                d_img = project_cone(space, img, sign).distance
                c_fit = max(c_fit, max(0.0, d_img - d / 3.0) / d ** (q - 1.0))
        c_fit *= 1.2  # headroom for fresh samples

        worst = 0.0
        witness = 0.0
        ineq_ok = True
        fresh = _boundary_samples(prob, sign, np.asarray([mu0]), sample_count, rng)
        for u, d in fresh + [(s, project_cone(space, s, sign).distance)
                             for s in extra_states
                             if 1e-12 < project_cone(space, s, sign).distance <= mu0 * 1.01]:
            for img in _selection_images(prob, u, rng):
                d_img = project_cone(space, img, sign).distance
                if d_img / mu0 > worst:
                    worst, witness = d_img / mu0, d
                if d_img > d / 3.0 + c_fit * d ** (q - 1.0) + 1e-9:
                    ineq_ok = False
        reports.append(InvarianceReport(
            sign=sign, mu0=mu0, worst_ratio=worst, fitted_c=c_fit, q=q,
            n_samples=len(fresh), passed=worst <= 0.5 + ratio_tol,
            inequality_ok=ineq_ok, witness_distance=witness,
        ))
    return reports[0], reports[1]


def fit_mu0(prob, rng: np.random.Generator | None = None,
            sample_count: int = 60) -> float:
    """Automatic mu0: fit C over both signs, take the largest mu0 in (0,1) with
    mu0/3 + C mu0^(q-1) <= mu0/2, then halve for safety."""
    rng = rng if rng is not None else np.random.default_rng(0)
    space = prob.space
    q = prob.potential.q
    c_fit = 0.0
    for sign in (1, -1):
        ladder = np.linspace(0.1, 1.0, 8)
        for u, d in _boundary_samples(prob, sign, ladder, max(3, sample_count // 8), rng):
            for img in _selection_images(prob, u, rng):
                d_img = project_cone(space, img, sign).distance
                c_fit = max(c_fit, max(0.0, d_img - d / 3.0) / d ** (q - 1.0))
    c_fit *= 1.2
    if c_fit <= 0:
        return 0.45  # image indistinguishable from the cone; any mu0 < 1 works
    mu_star = (1.0 / (6.0 * c_fit)) ** (1.0 / (q - 2.0))
    return 0.5 * min(0.9, mu_star)
