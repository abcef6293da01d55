"""Nonsmooth energy J(u) = 1/2 u'Au - lam * sum_i M_ii j(x_i, u_i), its
per-node subdifferential box {Au - lam*M*w : w_i in [lo_i, hi_i]}, the slope
m(u) (minimal dual norm over the box), and the set-relative slope m_D(u).

m(u) is a box-constrained quadratic program solved by projected gradient with
fixed step 1/L.  m_D(u) is evaluated through the exact support-function
splitting of (u - D) intersected with the unit ball, which turns the inf-sup
into a bounded convex program; stationarity on D is cross-checked by the
normal-cone criterion (0 in the box plus the cone of active outward normals).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import ConeNeighborhood, project_cone
from .mesh import DiscreteSpace, MeshError
from .potential import PiecewisePotential

SLOPE_TOL = 1e-10          # slope QP stop: norm of the unit-step projected gradient
SLOPE_MAX_ITER = 100000    # slope QP iterations before SlopeError
SET_SLOPE_TOL = 1e-7       # slope_on_set: 100x its L-BFGS-B gtol, and a term of its gap
SET_SLOPE_MAX_ITER = 400   # slope_on_set: L-BFGS-B iterations per smoothing level
ACTIVITY_TOL = 1e-8        # a cone constraint within this of its mu is active
STATIONARITY_ROUNDS = 300  # alternating-minimization rounds of stationarity_residual
STATIONARITY_TOL = 1e-12   # stationarity_residual: its selection QP's stop
PS_WINDOW = 10             # ps_monitor reads the last PS_WINDOW history entries,
PS_PRODUCT_TOL = 1e-5      # and bounds the weighted slope (1+||u||) m,
PS_ENERGY_TOL = 1e-6       # the relative energy spread,
PS_CAUCHY_TOL = 1e-4       # and the late H^1 increments


class SlopeError(RuntimeError):
    """Slope QP failed to reach its projected-gradient tolerance."""


@dataclass(frozen=True)
class EnergyProblem:
    space: DiscreteSpace
    potential: PiecewisePotential
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")

    @cached_property
    def coefficient(self) -> np.ndarray | float:
        """The potential's coefficient at the nodes, evaluated once per problem."""
        return self.potential.coefficient_values(self.space.grid.coords())

    @cached_property
    def step_bound(self) -> float:
        """Upper bound on the Lipschitz constant of the box-QP gradient.

        F(w) = r'A^-1 r with r affine in w; hess = 2 lam^2 M A^-1 M and
        A >= lambda_1 * min(M) in the generalized Rayleigh sense.
        """
        space = self.space
        m_max = float(np.max(space.M_diag))
        m_min = float(np.min(space.M_diag))
        return 2.0 * self.lam**2 * m_max**2 / (space.lambda1 * m_min)


@dataclass
class SubdifferentialBox:
    base: np.ndarray          # A u
    lo: np.ndarray            # per-node selection bounds (coefficient included)
    hi: np.ndarray
    lam: float
    weights: np.ndarray       # diagonal of M

    def gradient_vector(self, w: np.ndarray) -> np.ndarray:
        return self.base - self.lam * self.weights * w

    def support_max(self, d: np.ndarray) -> float:
        """max over the box of <x*, d>."""
        return float(self.base @ d - self.lam * np.sum(
            self.weights * np.minimum(self.lo * d, self.hi * d)))


# energy, subdifferential_box and slope take A u as ``au`` when the caller has
# formed it; the same array gives the same bits as forming it here.


def energy(prob: EnergyProblem, u: np.ndarray, au: np.ndarray | None = None) -> float:
    u = prob.space.check_field(u)
    if au is None:
        au = prob.space.A @ u
    quad = 0.5 * float(u @ au)
    c = prob.coefficient
    pot = float(np.sum(c * prob.space.M_diag * prob.potential.value(u)))
    return quad - prob.lam * pot


def energies(prob: EnergyProblem, fields: np.ndarray) -> np.ndarray:
    """J of each row of a (B, dim) block of fields, with the bits ``energy``
    gives for that row.

    The block is checked once, not row by row.  Each column of A U' sums in
    the order of the mat-vec A u, and each quadratic term is the same dot
    product; a row-wise einsum would sum in another order.
    """
    space = prob.space
    fields = np.ascontiguousarray(fields, dtype=float)
    if fields.ndim != 2 or fields.shape[1] != space.dim:
        raise MeshError(f"field block shape {fields.shape} does not match "
                        f"grid size {space.dim}")
    aus = np.ascontiguousarray((space.A @ fields.T).T)
    quad = np.array([0.5 * float(u @ au) for u, au in zip(fields, aus)])
    c = prob.coefficient
    pot = np.sum(c * space.M_diag * prob.potential.value(fields), axis=1)
    return quad - prob.lam * pot


def subdifferential_box(prob: EnergyProblem, u: np.ndarray,
                        au: np.ndarray | None = None) -> SubdifferentialBox:
    u = prob.space.check_field(u)
    lo, hi = prob.potential.interval_arrays(u)
    c = prob.coefficient
    return SubdifferentialBox(
        base=prob.space.A @ u if au is None else au, lo=c * lo, hi=c * hi,
        lam=prob.lam, weights=prob.space.M_diag,
    )


@dataclass
class SlopeResult:
    value: float
    selection: np.ndarray     # minimizing w*
    certificate: np.ndarray   # g* = Au - lam*M*w*
    riesz: np.ndarray         # v* = A^-1 g*
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {"value": self.value, "iterations": self.iterations,
                "converged": self.converged,
                "certificate_dual_norm": self.value,
                "riesz_sup_norm": float(np.max(np.abs(self.riesz)))}


def _box_dual_qp(prob: EnergyProblem, box: SubdifferentialBox, shift: np.ndarray,
                 w0: np.ndarray | None, tol: float) -> tuple[np.ndarray, int]:
    """Projected gradient for min over box selections w of the dual norm of
    (base + shift) - lam*M*w, with fixed step 1/prob.step_bound and at most
    SLOPE_MAX_ITER iterations; returns (w*, iterations)."""
    space = prob.space
    lo, hi = box.lo, box.hi
    width = hi - lo
    free = width > 1e-14 * (1.0 + np.abs(lo))
    w = np.clip(w0, lo, hi) if w0 is not None else 0.5 * (lo + hi)
    w[~free] = lo[~free]
    iterations = 0
    if free.any():
        step = 1.0 / prob.step_bound
        for iterations in range(1, SLOPE_MAX_ITER + 1):
            g = box.gradient_vector(w) + shift
            v = space.solve(g)
            grad = -2.0 * box.lam * box.weights * v
            trial = np.clip(w - grad, lo, hi)
            trial[~free] = w[~free]
            pg = w - trial
            if float(np.linalg.norm(pg)) <= tol:
                break
            w_new = np.clip(w - step * grad, lo, hi)
            w_new[~free] = w[~free]
            w = w_new
        else:
            raise SlopeError(
                f"projected gradient did not reach {tol:.1e} in {SLOPE_MAX_ITER} iterations "
                f"(residual {float(np.linalg.norm(pg)):.3e})")
    return w, iterations


def slope(prob: EnergyProblem, u: np.ndarray, w0: np.ndarray | None = None,
          au: np.ndarray | None = None) -> SlopeResult:
    """m(u) = min over box selections w of the dual norm of Au - lam*M*w.

    Degenerate (pointwise) box coordinates are pinned; the free block runs
    projected gradient with fixed step 1/L until the unit-step projected
    gradient has norm <= SLOPE_TOL.
    """
    space = prob.space
    box = subdifferential_box(prob, u, au)
    w, iterations = _box_dual_qp(prob, box, np.zeros(space.dim), w0, SLOPE_TOL)
    g = box.gradient_vector(w)
    v = space.solve(g)
    value = float(np.sqrt(max(g @ v, 0.0)))
    return SlopeResult(value, w, g, v, iterations, True)


# -- set-relative slope --------------------------------------------------------


SetSpec = ConeNeighborhood | tuple[ConeNeighborhood, ConeNeighborhood] | None
# None = whole space; a pair means the intersection D^+(mu) cap D^-(mu).


@dataclass
class SetSlopeResult:
    value: float
    gap: float                # smoothing + optimizer slack estimate
    selection: np.ndarray
    converged: bool
    iterations: int

    def to_dict(self) -> dict:
        return {"value": self.value, "gap": self.gap, "converged": self.converged,
                "iterations": self.iterations}


def _set_signs(region: SetSpec) -> tuple[ConeNeighborhood, ...]:
    if region is None:
        return ()
    if isinstance(region, ConeNeighborhood):
        return (region,)
    return tuple(region)


def slope_on_set(prob: EnergyProblem, u: np.ndarray, region: SetSpec) -> SetSlopeResult:
    """m_D(u): inf over subgradients of the sup of <x*, u-y> over y in D near u.

    Uses the exact Fenchel splitting of the support function of (u-D) cap B(0,1):
    for D = D^+(mu) this is

        inf over w in box, s >= 0 of  s'u + mu*||s||_* + ||g(w) - s||_* ,

    with the mirrored multiplier for D^-(mu) and both for the intersection.
    Dual norms are smoothed by sqrt(.^2 + eps^2) with eps driven to ~1e-9 of
    the problem scale; the reported gap bounds the smoothing bias.
    """
    space = prob.space
    u = space.check_field(u)
    parts = _set_signs(region)
    if not parts:
        res = slope(prob, u)
        return SetSlopeResult(res.value, 0.0, res.selection, True, res.iterations)

    # imported here: only this solver uses it, and importing it at module
    # level would add about a third to the import time of the package
    from scipy.optimize import minimize

    box = subdifferential_box(prob, u)
    n = space.dim
    n_mult = len(parts)
    w_mid = 0.5 * (box.lo + box.hi)
    scale = max(space.dual_norm(box.gradient_vector(w_mid)), 1e-8)

    def objective(x, eps):
        w = x[:n]
        combo = box.gradient_vector(w)
        val = 0.0
        grad = np.zeros_like(x)
        for k, part in enumerate(parts):
            m_k = x[n + k * n: n + (k + 1) * n]
            sgn = part.sign
            combo = combo - sgn * m_k
            val += sgn * float(m_k @ u)
            grad[n + k * n: n + (k + 1) * n] += sgn * u
            km = space.solve(m_k)
            nrm = float(np.sqrt(m_k @ km + eps * eps))
            val += part.mu * nrm
            grad[n + k * n: n + (k + 1) * n] += part.mu * km / nrm
        kc = space.solve(combo)
        nrm_c = float(np.sqrt(combo @ kc + eps * eps))
        val += nrm_c
        grad[:n] += -box.lam * box.weights * kc / nrm_c
        for k, part in enumerate(parts):
            grad[n + k * n: n + (k + 1) * n] += -part.sign * kc / nrm_c
        return val, grad

    bounds = [(float(l), float(h)) for l, h in zip(box.lo, box.hi)]
    bounds += [(0.0, None)] * (n * n_mult)
    x = np.concatenate([w_mid, np.zeros(n * n_mult)])
    total_iters = 0
    ok = True
    val = float("inf")
    eps_final = 1e-9 * scale
    for eps in (1e-3 * scale, 1e-6 * scale, eps_final):
        res = minimize(objective, x, args=(eps,), jac=True, method="L-BFGS-B",
                       bounds=bounds, options={"maxiter": SET_SLOPE_MAX_ITER, "ftol": 1e-14,
                                               "gtol": SET_SLOPE_TOL * 1e-2})
        x = res.x
        val = float(res.fun)
        total_iters += int(res.nit)
        ok = ok and (res.status in (0, 2))
    gap = (n_mult + 1) * eps_final + SET_SLOPE_TOL
    return SetSlopeResult(max(val, 0.0), gap, x[:n], ok, total_iters)


def stationarity_residual(prob: EnergyProblem, u: np.ndarray, region: SetSpec) -> float:
    """Normal-cone stationarity certificate for u relative to D.

    Returns min over box selections w and multipliers t >= 0 of the dual norm of
    Au - lam*M*w + sum_k t_k A n_k, where n_k are unit outward normals of the
    active cone-distance constraints at u.  Zero iff 0 in dJ(u) + N_D(u).
    Solved by exact alternating minimization: each multiplier is a clipped 1D
    quadratic, the selection block is the slope projected-gradient QP.
    """
    space = prob.space
    u = space.check_field(u)
    box = subdifferential_box(prob, u)
    normals = []
    for part in _set_signs(region):
        pr = project_cone(space, u, part.sign)
        if pr.distance >= part.mu - ACTIVITY_TOL and pr.distance > 1e-14:
            normals.append(pr.residual / pr.distance)
    k = len(normals)
    a_normals = [space.A @ nrm for nrm in normals]
    nn = [float(nrm @ an) for nrm, an in zip(normals, a_normals)]  # ||n||_A^2

    t = np.zeros(k)
    w = 0.5 * (box.lo + box.hi)
    value = np.inf
    for _ in range(STATIONARITY_ROUNDS):
        shift = sum(t[i] * a_normals[i] for i in range(k)) if k else np.zeros(space.dim)
        w, _ = _box_dual_qp(prob, box, shift, w, STATIONARITY_TOL)
        r = box.gradient_vector(w) + shift
        for i in range(k):
            # exact 1D minimization in t_i holding everything else fixed
            r_wo = r - t[i] * a_normals[i]
            t_new = max(0.0, -float(normals[i] @ r_wo) / nn[i])
            r = r_wo + t_new * a_normals[i]
            t[i] = t_new
        new_value = float(r @ space.solve(r))
        if abs(value - new_value) <= 1e-15 * (1.0 + abs(new_value)):
            value = new_value
            break
        value = new_value
        if k == 0:
            break
    return float(np.sqrt(max(value, 0.0)))


# -- Palais-Smale monitor -------------------------------------------------------


@dataclass
class PSReport:
    product_tail: float
    product_ok: bool
    energy_spread: float
    energy_ok: bool
    cauchy_increment: float
    cauchy_ok: bool
    energy_limit: float
    slope_limit: float
    norm_limit: float

    @property
    def passed(self) -> bool:
        return self.product_ok and self.energy_ok and self.cauchy_ok

    def to_dict(self) -> dict:
        return {"product_tail": self.product_tail, "product_ok": self.product_ok,
                "energy_spread": self.energy_spread, "energy_ok": self.energy_ok,
                "cauchy_increment": self.cauchy_increment, "cauchy_ok": self.cauchy_ok,
                "passed": self.passed, "energy_limit": self.energy_limit,
                "slope_limit": self.slope_limit, "norm_limit": self.norm_limit}


def ps_monitor(space: DiscreteSpace, history) -> PSReport:
    """Testable shadow of the compactness condition on a finite history.

    ``history`` is a sequence of (u, J, m) triples.  Passing means the weighted
    slope (1+||u||) m decays below tolerance over the tail, the energies
    stabilize, and the tail of the u-sequence is Cauchy in the energy norm.
    The PS_* constants set the tail and the tolerances.
    """
    if len(history) == 0:
        raise ValueError("ps_monitor needs a nonempty history")
    tail = list(history)[-max(2, min(PS_WINDOW, len(history))):]
    us = [space.check_field(t[0]) for t in tail]
    js = np.array([float(t[1]) for t in tail])
    products = np.array([(1.0 + space.h1_norm(u)) * float(t[2])
                         for u, t in zip(us, tail)])
    product_tail = float(products[-1])
    product_ok = product_tail <= PS_PRODUCT_TOL and (
        len(products) < 3 or products[-1] <= products[0] + PS_PRODUCT_TOL)
    energy_spread = float(js.max() - js.min())
    energy_ok = energy_spread <= PS_ENERGY_TOL * (1.0 + float(np.abs(js).max()))
    if len(us) >= 2:
        increments = [space.h1_norm(b - a) for a, b in zip(us, us[1:])]
        # late increments are what a Cauchy tail controls
        cauchy_increment = float(max(increments[-3:]))
    else:
        cauchy_increment = 0.0
    cauchy_ok = cauchy_increment <= PS_CAUCHY_TOL
    return PSReport(
        product_tail, product_ok, energy_spread, energy_ok,
        cauchy_increment, cauchy_ok,
        energy_limit=float(js[-1]), slope_limit=float(tail[-1][2]),
        norm_limit=space.h1_norm(us[-1]),
    )
