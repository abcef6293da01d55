"""Independent reference computations for the test suite.

Everything here deliberately avoids the package's solver paths: dense linear
algebra, explicit enumeration, grid search, and scipy ODE integration only.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_triangular
from scipy.optimize import brentq, lsq_linear

import nodalflow as nf


def random_hinge_potential(rng: np.random.Generator, kinks=None,
                           coef_bound: float = 0.5) -> "nf.PiecewisePotential":
    """Random cubic plus hinge terms: j(s) = p(s) - p(0) + sum c_k (|s-b_k| - |b_k|).

    Continuous, j(0) = 0, with derivative jumps 2*c_k at the breakpoints.
    Curvature is bounded by the coefficient bound so difference-quotient
    oracles stay within their advertised tolerance.
    """
    if kinks is None:
        bks = np.sort(rng.uniform(-1.4, 1.4, size=int(rng.integers(1, 3))))
        cs = rng.uniform(0.1, 1.0, size=len(bks)) * rng.choice([-1.0, 1.0], len(bks))
    else:
        bks = np.sort(np.asarray([b for b, _ in kinks], dtype=float))
        cs = np.asarray([c for _, c in kinks], dtype=float)
    poly = rng.uniform(-coef_bound, coef_bound, size=3)  # s, s^2, s^3 coefficients

    def value(s):
        s = np.asarray(s, dtype=float)
        out = poly[0] * s + poly[1] * s**2 + poly[2] * s**3
        for b, c in zip(bks, cs):
            out = out + c * (np.abs(s - b) - abs(b))
        return out

    def make_deriv(side_signs):
        def d(s):
            s = np.asarray(s, dtype=float)
            out = poly[0] + 2 * poly[1] * s + 3 * poly[2] * s**2
            for b, c, sgn in zip(bks, cs, side_signs):
                out = out + c * np.where(s > b, 1.0, np.where(s < b, -1.0, sgn))
            return out
        return d

    pieces_v = tuple(value for _ in range(len(bks) + 1))
    derivs = []
    for i in range(len(bks) + 1):
        # from inside piece i, breakpoint k < i lies left (+1), k >= i right (-1)
        derivs.append(make_deriv([1.0 if k < i else -1.0 for k in range(len(bks))]))
    return nf.PiecewisePotential(tuple(float(b) for b in bks), pieces_v,
                                 tuple(derivs), a1=10.0, q=4.0, mu=2.0,
                                 name="hinge")

# -- ODE shooting for -u'' = lam * u^3 on (0, 1) -------------------------------


def _first_zero(lam: float, s: float, x_max: float) -> float:
    """Location of the first positive zero of the IVP u''=-lam u^3, u(0)=0, u'(0)=s."""

    def rhs(x, y):
        return [y[1], -lam * y[0] ** 3]

    def hit_zero(x, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1.0
    sol = solve_ivp(rhs, (0.0, x_max), [0.0, s], events=hit_zero,
                    rtol=1e-12, atol=1e-14, dense_output=True, max_step=x_max / 50)
    if sol.t_events[0].size == 0:
        return np.inf
    return float(sol.t_events[0][0])


def _shoot_on_interval(lam: float, length: float) -> tuple:
    """Positive solution of -u'' = lam u^3 on (0, length) with zero boundary.

    Returns (dense solution, shooting slope).  The first zero location is
    decreasing in the initial slope, so a bracketed root find applies.
    """
    s_lo, s_hi = 1e-2, 1e2
    while _first_zero(lam, s_lo, 100 * length) < length:
        s_lo *= 0.25
    while _first_zero(lam, s_hi, 100 * length) > length:
        s_hi *= 4.0
    s_star = brentq(lambda s: _first_zero(lam, s, 100 * length) - length,
                    s_lo, s_hi, xtol=1e-13, rtol=1e-15)

    def rhs(x, y):
        return [y[1], -lam * y[0] ** 3]

    sol = solve_ivp(rhs, (0.0, length), [0.0, s_star], rtol=1e-12, atol=1e-14,
                    dense_output=True, max_step=length / 200)
    return sol, s_star


def shooting_positive(lam: float, xs: np.ndarray) -> tuple[np.ndarray, float]:
    """Values of the positive solution at xs in (0,1), plus its energy
    J = int(u'^2/2 - lam u^4/4)."""
    sol, _ = _shoot_on_interval(lam, 1.0)
    grid = np.linspace(0.0, 1.0, 4001)
    y = sol.sol(grid)
    integrand = 0.5 * y[1] ** 2 - 0.25 * lam * y[0] ** 4
    energy = float(np.trapezoid(integrand, grid))
    return sol.sol(xs)[0], energy


def shooting_sign_changing(lam: float, xs: np.ndarray) -> tuple[np.ndarray, float]:
    """One-node sign-changing solution: a positive lobe on (0, 1/2) extended
    odd about x = 1/2.  Returns nodal values at xs and the total energy."""
    sol, _ = _shoot_on_interval(lam, 0.5)
    grid = np.linspace(0.0, 0.5, 4001)
    y = sol.sol(grid)
    integrand = 0.5 * y[1] ** 2 - 0.25 * lam * y[0] ** 4
    energy = 2.0 * float(np.trapezoid(integrand, grid))

    vals = np.empty_like(xs)
    left = xs <= 0.5
    vals[left] = sol.sol(xs[left])[0]
    vals[~left] = -sol.sol(1.0 - xs[~left])[0]
    return vals, energy


# -- damped Newton on the discrete system --------------------------------------


def newton_discrete(space, potential, lam: float, u0: np.ndarray,
                    tol: float = 1e-11, max_iter: int = 200) -> np.ndarray | None:
    """Solve A u = lam M j'(u) by damped Newton with dense factorizations."""
    A = space.A.toarray()
    M = space.M_diag
    u = u0.copy()

    def residual(v):
        return A @ v - lam * M * potential.derivative(v)

    r = residual(u)
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol:
            return u
        h = 1e-6 * (1.0 + np.abs(u))
        curv = (potential.derivative(u + h) - potential.derivative(u - h)) / (2 * h)
        jac = A - lam * np.diag(M * curv)
        step = np.linalg.solve(jac, r)
        gamma, improved = 1.0, None
        for _ in range(40):
            trial = u - gamma * step
            rt = residual(trial)
            if np.linalg.norm(rt) < np.linalg.norm(r):
                improved = (trial, rt)
                break
            gamma *= 0.5
        if improved is None:
            return None
        u, r = improved
    return u if np.linalg.norm(r) <= tol else None


# -- exhaustive cone projection (tiny instances) --------------------------------


def enum_project_cone(A: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, float]:
    """min_{v>=0} (v-z)'A(v-z) by enumerating all active sets; n <= ~12."""
    n = len(z)
    best = None
    for pattern in itertools.product([False, True], repeat=n):
        active = np.asarray(pattern)
        v = np.zeros(n)
        idx = np.flatnonzero(~active)
        if idx.size:
            v[idx] = np.linalg.solve(A[np.ix_(idx, idx)], (A @ z)[idx])
        r = A @ (v - z)
        if np.min(v) < -1e-10 or np.min(r[active], initial=0.0) < -1e-10:
            continue
        val = float((v - z) @ (A @ (v - z)))
        if best is None or val < best[1]:
            best = (v, val)
    assert best is not None
    return best[0], float(np.sqrt(max(best[1], 0.0)))


def enum_dist_batch(A: np.ndarray, Z: np.ndarray, sign: int) -> np.ndarray:
    """Distances dist(z, sign*P) for a batch of fields, by active-set enumeration."""
    n = Z.shape[1]
    W = sign * Z
    best = np.full(Z.shape[0], np.inf)
    AZ = W @ A.T
    for pattern in itertools.product([False, True], repeat=n):
        active = np.asarray(pattern)
        idx = np.flatnonzero(~active)
        V = np.zeros_like(W)
        if idx.size:
            sub = np.linalg.inv(A[np.ix_(idx, idx)])
            V[:, idx] = AZ[:, idx] @ sub.T
        R = (V - W) @ A.T
        feas = (V.min(axis=1) >= -1e-10)
        if active.any():
            feas &= (R[:, active].min(axis=1) >= -1e-10)
        vals = np.einsum("ij,ij->i", V - W, R)
        np.minimum(best, np.where(feas, vals, np.inf), out=best)
    return np.sqrt(np.maximum(best, 0.0))


# -- box-grid slope oracle -------------------------------------------------------


def box_grid_slope(space, box, points: int = 21, rounds: int = 12) -> float:
    """Zooming exhaustive search for min over the selection box of the dual
    norm of Au - lam*M*w, evaluated with dense solves."""
    A = space.A.toarray()
    lo, hi = box.lo.copy(), box.hi.copy()
    center = 0.5 * (lo + hi)
    width = hi - lo
    free = width > 0
    best_val, best_w = np.inf, center.copy()
    for _ in range(rounds):
        axes = []
        for i in range(len(lo)):
            if free[i] and width[i] > 0:
                a = max(lo[i], center[i] - width[i] / 2)
                b = min(hi[i], center[i] + width[i] / 2)
                axes.append(np.linspace(a, b, points))
            else:
                axes.append(np.asarray([lo[i]]))
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))
        R = box.base[None, :] - box.lam * box.weights[None, :] * grid
        V = np.linalg.solve(A, R.T).T
        F = np.einsum("ij,ij->i", R, V)
        k = int(np.argmin(F))
        if F[k] < best_val:
            best_val, best_w = float(F[k]), grid[k]
        center = best_w.copy()
        width = width * (2.5 / (points - 1))
    return float(np.sqrt(max(best_val, 0.0)))


# -- normal-cone stationarity oracle ----------------------------------------------


def stationarity_residual(space, box, u: np.ndarray, region) -> float:
    """min over box selections w and t >= 0 of the dual norm of
    Au - lam*M*w + t*A n, with n the unit outward normal of D = region at u
    when its constraint is active (dist(u, sign*P) within 1e-8 of mu), else
    t = 0.  Zero iff 0 lies in the box plus the normal cone N_D(u).

    With A = L L', the dual norm of r is ||L^-1 r||, so this is a bounded
    linear least-squares problem; pinned selections (lo = hi) move to its
    right-hand side and the free ones and t go to BVLS.
    """
    A = space.A.toarray()
    L = np.linalg.cholesky(A)
    free = box.lo < box.hi
    cols = solve_triangular(L, np.diag(-box.lam * box.weights), lower=True)
    rhs = -solve_triangular(L, box.base, lower=True) - cols[:, ~free] @ box.lo[~free]
    cols, lb, ub = cols[:, free], box.lo[free], box.hi[free]
    v, dist = enum_project_cone(A, region.sign * u)
    if dist >= region.mu - 1e-8:
        normal = (u - region.sign * v) / dist
        cols = np.column_stack([cols, L.T @ normal])   # L^-1 A n
        lb, ub = np.append(lb, 0.0), np.append(ub, np.inf)
    x = lsq_linear(cols, rhs, bounds=(lb, ub), method="bvls").x
    return float(np.linalg.norm(cols @ x - rhs))


# -- saddle oracle for the set-relative slope -------------------------------------


def _tau_max_batch(A: np.ndarray, u: np.ndarray, dirs: np.ndarray,
                   member, rounds: int = 45) -> np.ndarray:
    """Per direction e: the largest tau in [0,1] with u - tau*e in D."""
    m = dirs.shape[0]
    lo = np.zeros(m)
    hi = np.ones(m)
    inside = member(u[None, :] - dirs)  # tau = 1
    lo[inside] = 1.0
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        ok = member(u[None, :] - mid[:, None] * dirs)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    lo[inside] = 1.0
    return lo


def saddle_set_slope(space, box, u: np.ndarray, member, rng: np.random.Generator,
                     n_dirs: int = 600, tau_points: int = 40) -> float:
    """Brute-force maximin value of the set-relative slope.

    Maximizes the closed-form dual function D(d) = min over box selections of
    <g(w), d> over the region C = (u - D) cap unit ball, by sampling unit
    directions, bisecting the feasible ray length per direction, and zooming
    around the best direction.  ``member`` tests membership of a batch in D.
    """
    A = space.A.toarray()

    def dual_batch(D):
        t1 = D @ box.base
        t2 = np.maximum(D * box.lo[None, :], D * box.hi[None, :])
        return t1 - box.lam * (t2 @ box.weights)

    def polish_tau(best_d, best_tau):
        # refine the ray length around the best point
        taus = np.linspace(max(0.0, best_tau - 0.1), min(1.0, best_tau + 0.1), 400)
        cand = taus[:, None] * best_d[None, :]
        ok = member(u[None, :] - cand)
        vals = np.where(ok, dual_batch(cand), -np.inf)
        k = int(np.argmax(vals))
        return float(vals[k]), taus[k]

    def normalize(D):
        norms = np.sqrt(np.einsum("ij,jk,ik->i", D, A, D))
        norms[norms < 1e-14] = 1.0
        return D / norms[:, None]

    best_val, best_dir, best_tau = 0.0, None, 0.0  # d = 0 is always feasible
    center = None
    for sigma in (None, 0.5, 0.15, 0.05, 0.015, 0.005, 0.0015):
        if sigma is None:
            dirs = normalize(rng.normal(size=(n_dirs, len(u))))
        else:
            dirs = normalize(center[None, :] + sigma * rng.normal(size=(n_dirs, len(u))))
        taus = _tau_max_batch(A, u, dirs, member)
        grid = np.linspace(0.0, 1.0, tau_points)
        for t in grid[1:]:
            cand = (t * taus)[:, None] * dirs
            vals = dual_batch(cand)
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val, best_dir, best_tau = float(vals[k]), dirs[k], t * taus[k]
        if best_dir is None:
            break
        center = best_dir
        val, tau = polish_tau(best_dir, best_tau)
        if val > best_val:
            best_val, best_tau = val, tau
    return max(best_val, 0.0)


# -- generalized directional derivative oracle -------------------------------------


def diff_quotient_j0(potential, s: float, h: float) -> float:
    """limsup difference-quotient sampler for j0(s; h).

    For each base point near s the t-ladder probes the limit t -> 0 (the
    smallest t is the limit proxy; larger t only confirm stability); the sup
    over base points realizes the limsup in the s variable.
    """
    best = -np.inf
    for ds in np.linspace(-1e-4, 1e-4, 21):
        quotients = []
        for t in (1e-3, 1e-4, 1e-5, 1e-6):
            a = float(potential.value(np.asarray([s + ds + t * h]))[0])
            b = float(potential.value(np.asarray([s + ds]))[0])
            quotients.append((a - b) / t)
        best = max(best, quotients[-1])
    return best
