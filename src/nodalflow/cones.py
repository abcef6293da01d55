"""Cone geometry: metric projection onto the nonnegative cone, distance
neighborhoods, region classification, and the invariance (Schauder) checker.

All distances and projections live in the energy inner product u'Av, so the
projection onto P = {u >= 0 nodewise} is an obstacle-type QP, not a nodal
truncation.  On a 1D grid it is solved exactly: w = v - z is the least concave
majorant of the obstacle, one O(n) hull pass.  On a 2D grid it is solved by a
primal-dual active-set iteration; in floating point its active sets can cycle
(exact-arithmetic finite termination does not carry over), so an active set
that repeats ends the iteration.  Every result carries an explicit KKT
residual and is rejected when that residual is above tolerance.

A distance mostly enters a comparison, and bounds on it decide most
comparisons without a projection.  A region label asks whether a distance is
at most mu0.  The invariance checker compares image distances with the fit's
running maximum of C and with d/3 + C d^(q-1), takes the worst image ratio as
a maximum by branch and bound, and accepts a sample when its distance d is
above 1e-12; the frame scan takes the least distance over its directions by
branch and bound too.
Each distance is read in three tiers (see _ConeDistance): free bounds from
the field's negative part, dual bounds from one Riesz solve, and only then the
projection.  A comparison that a tier's bounds, widened for rounding, decide
is decided there, so every result is the one the projected distances give,
to the bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .energy import subdifferential_box
from .mesh import DiscreteSpace


# Relative slack on the distance bounds, in units of eps * space.condition:
# sqrt(w'Aw) of a smooth w loses about that much relative accuracy to
# cancellation, in a projected distance and in the bounds alike, so their
# rounding cannot decide a comparison the projected distance would not.  The
# dual lower bound takes twice it: its Riesz solve y = A^-1 g perturbs g.y by
# a relative eps * cond(A) times a small constant, on top of the projected
# distance's own rounding.
SCREEN_ROUNDING = 4.0

# Multiples of t0 at which the dual tier tries the feasible point v_t: the
# best multiple is ~0.8 on 2D grids and ~1.2 on 1D grids
DUAL_STEPS = (0.5, 0.7071, 1.0, 1.4142, 2.0)

KKT_TOL = 1e-9            # KKT residual a projection may leave, relative to max(1, |z|_inf)
ACTIVE_SET_MAX_ITER = 80  # 2D active-set iterations before a projection fails

_EPS = float(np.finfo(float).eps)


class ProjectionError(RuntimeError):
    """A projection failed its KKT certificate, on either geometry (the 1D
    concave majorant or the 2D active set), or the 2D active set did not
    settle within ACTIVE_SET_MAX_ITER iterations."""


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
                 au: np.ndarray | None = None) -> ProjectionResult:
    """A-metric projection onto P (sign=+1) or -P (sign=-1).

    Solves min_{v >= 0} (v-z)'A(v-z) with z = sign*u; the multiplier is
    r = A(v-z) with complementarity r_i v_i = 0.  ``au``, when given, is A u.

    A field z <= 0 whose r = A(-z) has no negative entry lies in the A-polar
    cone {y : Ay <= 0} of P, so by Moreau its projection is v = 0, every node
    active, with KKT residual 0 and distance |u|_A: the bits the certificate
    gives for v = 0, from one product with A, or none when ``au`` is given.
    Only a z <= 0 can pass the test, since A^-1 >= 0.  Otherwise 1D grids take
    the concave majorant; 2D grids the active set, where ACTIVE_SET_MAX_ITER
    applies.
    """
    u = space.check_field(u)
    z = sign * u
    n = space.dim
    if np.all(z >= 0.0):
        return ProjectionResult(u.copy(), np.zeros(n), 0.0, 0.0,
                                np.zeros(n, dtype=bool), 0)
    if np.all(z <= 0.0):
        w = -z
        r = space.A @ w if au is None else -sign * au
        if r.min() >= 0.0:
            proj = sign * np.zeros(n)
            return ProjectionResult(proj, u - proj, float(np.sqrt(max(w @ r, 0.0))), 0.0,
                                    np.ones(n, dtype=bool), 1)
    if space.grid.dimension == 1:
        v, active = _concave_majorant(z)
        return _certify(space, u, sign, v, active, 1)
    return _active_set(space, u, sign)


def _concave_majorant(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact 1D projection: (v, active) with v = w + z.

    With Dirichlet ends and a uniform grid, A(v-z) >= 0 says w = v - z is
    concave on the padded nodes 0..n+1, and v >= 0 says w >= -z.  So w is the
    least concave majorant of (0, max(-z, 0), 0), and the contact nodes, the
    interior hull vertices, are the active set.  Only nodes with z < 0 can be
    vertices (w > 0 inside unless z >= 0 everywhere), and no node strictly
    below the chord of its two neighbours can be one.
    """
    n = len(z)
    g = np.concatenate(([0.0], np.maximum(-z, 0.0), [0.0]))
    bend = g[:-2] - 2.0 * g[1:-1] + g[2:]
    if np.all(bend <= 0.0):
        # the obstacle is its own majorant, so every node is in contact
        return np.zeros(n), np.ones(n, dtype=bool)
    nodes = np.flatnonzero((g[1:-1] > 0.0) & (bend <= 0.0)) + 1
    hx, hy = _upper_hull(nodes.tolist(), g[nodes].tolist(), n + 1)
    w = np.interp(np.arange(1, n + 1), hx, hy)
    active = np.zeros(n, dtype=bool)
    active[np.asarray(hx[1:-1]) - 1] = True
    return w + z, active


def _upper_hull(xs: list, ys: list, end: int) -> tuple[list, list]:
    """Monotone-chain upper hull of (0, 0), the points (xs, ys) with
    0 < xs ascending < end, and (end, 0).  A point is dropped when it lies
    strictly below the chord of its neighbours on the hull."""
    hx, hy = [0], [0.0]
    for x, y in zip(xs + [end], ys + [0.0]):
        while len(hx) > 1 and (hy[-1] - hy[-2]) * (x - hx[-2]) < (y - hy[-2]) * (hx[-1] - hx[-2]):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return hx, hy


def _active_set(space: DiscreteSpace, u: np.ndarray, sign: int) -> ProjectionResult:
    """Primal-dual active-set projection (Hintermueller-Ito-Kunisch) on any grid.

    The iteration maps each active set to the next deterministically, so an
    active set seen before means a cycle: its iterate is returned if the KKT
    certificate passes.
    """
    z = sign * u
    n = space.dim
    active = z <= 0.0
    seen = {active.tobytes()}
    v = np.zeros(n)
    Az = space.A @ z
    for it in range(1, ACTIVE_SET_MAX_ITER + 1):
        inactive = ~active
        v.fill(0.0)
        if inactive.any():
            idx = np.flatnonzero(inactive)
            v[idx] = space.solve_reduced(Az[idx], idx)
        new_active = (v - space.A @ (v - z)) < 0.0
        if np.array_equal(new_active, active):
            return _certify(space, u, sign, v, active, it)
        if new_active.tobytes() in seen:
            return _certify(space, u, sign, v, active, it,
                            f"active set cycled after {it} iterations; ")
        seen.add(new_active.tobytes())
        active = new_active
    raise ProjectionError(f"active set did not settle after {ACTIVE_SET_MAX_ITER} iterations")


def _certify(space: DiscreteSpace, u: np.ndarray, sign: int, v: np.ndarray,
             active: np.ndarray, iterations: int, context: str = "") -> ProjectionResult:
    """Clamp v on the active block, then measure the KKT residual honestly.

    Raises ProjectionError when the residual is above KKT_TOL * max(1, |z|_inf).
    """
    z = sign * u
    v[active] = 0.0
    w = v - z
    r = space.A @ w
    kkt = max(
        float(-min(v.min(initial=0.0), 0.0)),
        float(-min(r[active].min(initial=0.0), 0.0)) if active.any() else 0.0,
        float(np.max(np.abs(v * r))) if len(v) else 0.0,
    )
    if kkt > KKT_TOL * max(1.0, float(np.max(np.abs(z)))):
        raise ProjectionError(f"{context}KKT residual {kkt:.3e} above tolerance {KKT_TOL:.1e}")
    proj = sign * v
    # u - proj = -sign * w, so its energy is w'r, to the bit
    dist = float(np.sqrt(max(w @ r, 0.0)))
    return ProjectionResult(proj, u - proj, dist, kkt, active, iterations)


class _ConeDistance:
    """dist(u, sign*P) in three tiers, each computed when first read: two
    bracketing pairs of bounds, each inside the last, then the projected
    distance.

    With n = max(-sign*u, 0):

    - free: sign*u + n lies in P, so dist <= |n|_A; and n is the M-nearest
      offset to P, so by the Poincare inequality |w|_A >= sqrt(lambda1)*|w|_M,
      dist >= sqrt(lambda1)*|n|_M.
    - dual: the polar cone of P in the A product is {y : Ay <= 0}, so for any
      g >= 0, dist >= (-sign*u).g / sqrt(g'A^-1 g) (Moreau).  With g = M n and
      y = A^-1 g (one Riesz solve) this reads |n|_M^2 / sqrt(g.y), never below
      the free lower bound.  Each v_t = max(sign*u + t*y, 0) lies in P, so
      dist <= |v_t - sign*u|_A = |max(t*y, n)|_A; t runs over DUAL_STEPS
      times t0 = |n|_M^2 / g.y, the multiple of y whose norm is the lower
      bound, and t = 0 is the free upper bound.
    - exact: project_cone.

    Each bound is widened for rounding (see SCREEN_ROUNDING), so it also
    brackets the projected distance as computed, and a comparison that holds
    for a bound holds for the projected distance.

    The free lower bound pays: it decides 1,426 comparisons of a 1D n=127
    solve and 1,214 of a 39x19 solve (power:4, seed 1), each otherwise a
    Riesz solve (~6 us at n=127, ~38 us at 39x19).  A flow state in a cone is
    labelled from its projected distances instead (flow.make_state).
    """

    def __init__(self, space: DiscreteSpace, u: np.ndarray, sign: int):
        self.space, self.u, self.sign = space, u, sign
        self.neg = neg = np.maximum(-sign * u, 0.0)
        if not neg.any():
            # u lies in sign*P, and project_cone returns distance 0.0 for it
            self.lower = self.upper = self.dual_lower = self.dual_upper = self.exact = 0.0
            return
        self.margin = SCREEN_ROUNDING * _EPS * space.condition
        self.norm_m2 = neg @ (space.M_diag * neg)
        self.lower = float(np.sqrt(space.lambda1 * self.norm_m2) * (1.0 - self.margin))

    @cached_property
    def upper(self) -> float:
        return self._norm_a(self.neg)

    @cached_property
    def _riesz(self) -> tuple[float, np.ndarray]:
        """(g.y, y) with g = M n and y = A^-1 g; g.y is nan where it
        underflows to 0, and max and min below then keep the free bounds."""
        g = self.space.M_diag * self.neg
        y = self.space.solve(g)
        gy = float(g @ y)
        return (gy if gy > 0.0 else np.nan), y

    @cached_property
    def dual_lower(self) -> float:
        gy = self._riesz[0]
        return max(self.lower, float(self.norm_m2 / np.sqrt(gy)) * (1.0 - 2.0 * self.margin))

    @cached_property
    def dual_upper(self) -> float:
        gy, y = self._riesz
        t0 = self.norm_m2 / gy
        return min([self.upper] + [self._norm_a(np.maximum(step * t0 * y, self.neg))
                                   for step in DUAL_STEPS])

    def _norm_a(self, w: np.ndarray) -> float:
        return float(np.sqrt(w @ (self.space.A @ w)) * (1.0 + self.margin))

    @cached_property
    def exact(self) -> float:
        return project_cone(self.space, self.u, self.sign).distance

    def within(self, mu: float) -> bool:
        """Whether dist <= mu, projecting only when the free and the dual
        bounds both straddle mu."""
        if self.lower > mu:
            return False
        if self.upper <= mu:
            return True
        if self.dual_lower > mu:
            return False
        return self.dual_upper <= mu or self.exact <= mu


def min_dist_to_cones(space: DiscreteSpace, fields: list[np.ndarray]) -> float:
    """min over the fields of dist(u, P) and dist(u, -P), by branch and bound:
    in order of dual lower bound, a field is projected only while that bound
    is below the least distance projected so far."""
    best = np.inf
    dists = [_ConeDistance(space, u, sign) for u in fields for sign in (1, -1)]
    for dist in sorted(dists, key=lambda d: d.dual_lower):
        if dist.dual_lower >= best:
            break
        best = min(best, dist.exact)
    return best


def _worst_ratio(pairs: list[tuple[_ConeDistance, _ConeDistance]],
                 mu0: float) -> tuple[float, float]:
    """(max over the (image, sample) pairs of dist(image)/mu0, the sample's
    distance) by branch and bound: in descending order of free upper bound,
    an image is projected only while its upper bounds can still beat the best
    ratio so far, and a tie goes to the first pair in the list.  (0.0, 0.0)
    where every image lies in the cone."""
    # best is (ratio, -index), so a later pair loses a tie, and a ratio of 0
    # never beats the start
    best, witness = (0.0, 0), None
    for i, (img, d) in sorted(enumerate(pairs), key=lambda p: -p[1][0].upper):
        if img.upper / mu0 < best[0]:
            break
        if (img.dual_upper / mu0, -i) > best and (img.exact / mu0, -i) > best:
            best, witness = (img.exact / mu0, -i), d
    return best[0], 0.0 if witness is None else witness.exact


def region_of(space: DiscreteSpace, u: np.ndarray, mu0: float,
              dists: tuple[float, float] | None = None) -> RegionLabel:
    """Which of D+(mu0) and D-(mu0) hold u; the label that the projected
    distances give.  It reads them from ``dists``, (dist(u, P), dist(u, -P)),
    when given, and otherwise decides mostly without projecting."""
    if not 0 < mu0 < 1:
        raise ValueError(f"mu0 must lie in (0, 1), got {mu0}")
    if dists is not None:
        near_p, near_m = dists[0] <= mu0, dists[1] <= mu0
    else:
        u = space.check_field(u)
        near_p = _ConeDistance(space, u, 1).within(mu0)
        near_m = _ConeDistance(space, u, -1).within(mu0)
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
        return asdict(self)


def _selection_images(prob, u: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """Riesz images lam*A^-1*M*w for extreme box selections w at u (lo, hi and
    two random corners); one image where the box is a point, since a repeated
    image decides no comparison."""
    box = subdifferential_box(prob, u)
    space = prob.space
    picks = [box.lo]
    if np.any(box.hi - box.lo > 0):
        picks.append(box.hi)
        for _ in range(2):
            mask = rng.integers(0, 2, size=space.dim).astype(bool)
            picks.append(np.where(mask, box.hi, box.lo))
    return [prob.lam * space.solve(space.M_diag * w) for w in picks]


def _boundary_samples(prob, sign: int, distances: np.ndarray, per_distance: int,
                      rng: np.random.Generator) -> list[tuple[np.ndarray, _ConeDistance]]:
    """Fields at prescribed cone distances: u = p + d * unit, p in sign*P, each
    with its distance to sign*P, which is positive.

    Perturbation directions alternate between rough white-noise fields and
    smooth low-eigenmode combinations; the smooth ones carry O(1) amplitude at
    unit energy norm and are the demanding samples for the image inequality.
    """
    space = prob.space
    k_modes = min(8, space.dim)
    modes = [vec for _, vec in space.eigenpairs(k_modes)]
    out = []
    for d in distances:
        accepted = 0
        for k in range(30 * per_distance):
            if accepted == per_distance:
                break
            if k % 3 == 0:
                p = np.abs(rng.normal(size=space.dim))
                p *= rng.uniform(0.2, 2.0) / max(space.h1_norm(p), 1e-12)
            elif k % 3 == 1:
                p = rng.uniform(0.2, 3.0) * modes[0]
            else:
                p = space.zero_field()
            if k % 2 == 0:
                e = sum(c * m for c, m in zip(rng.normal(size=k_modes), modes))
            else:
                e = rng.normal(size=space.dim)
            e /= max(space.h1_norm(e), 1e-12)
            u = sign * p + d * e
            dist = _ConeDistance(space, u, sign)
            if not dist.within(1e-12):
                out.append((u, dist))
                accepted += 1
    return out


# Each checker comparison of an image with its sample (raise C, break the
# inequality) holds only for a large enough image distance, and is monotone in
# the sample's distance d (q > 2, C >= 0).  So the image's upper bounds and the
# bounds on d that favour the comparison stand in for them: an image is
# projected only when both tiers of its bounds let the comparison hold, and
# its sample only when the outcome needs d.  The worst ratio reads the image
# alone (_worst_ratio).


def _may_hold(test, img: _ConeDistance, d: _ConeDistance) -> bool:
    """Whether test(dist(image), dist(sample)) holds for the projected
    distances, for a test that rises with its first argument and falls with
    its second: the free and then the dual bounds that favour it decide where
    they fail it, and only then are both projected."""
    return (test(img.upper, d.lower) and test(img.dual_upper, d.dual_lower)
            and test(img.exact, d.exact))


def _excess(d_img: float, d: float, q: float) -> float:
    """The least C with d_img <= d/3 + C d^(q-1); it falls as d grows."""
    return max(0.0, d_img - d / 3.0) / d ** (q - 1.0)


# Samples per ladder distance in the fit of C, the headroom the fitted C gets
# for fresh samples, the cap on mu_star (mu0 is half the capped value), the
# slack of the worst-ratio test against 0.5, and the fresh samples per sign
# the invariance check draws at mu0
FIT_PER_DISTANCE = 7
FIT_HEADROOM = 1.2
MU_STAR_CAP = 0.9
RATIO_TOL = 1e-6
SCHAUDER_SAMPLES = 100


def _fit_constant(prob, sign: int, rng: np.random.Generator) -> float:
    """Least C with dist(image, sign*P) <= d/3 + C d^(q-1) on a ladder of distances."""
    q = prob.potential.q
    c_fit = 0.0
    ladder = np.linspace(0.1, 1.0, 8)
    for u, d in _boundary_samples(prob, sign, ladder, FIT_PER_DISTANCE, rng):
        for img in _selection_images(prob, u, rng):
            d_img = _ConeDistance(prob.space, img, sign)
            if _may_hold(lambda a, b: _excess(a, b, q) > c_fit, d_img, d):
                c_fit = max(c_fit, _excess(d_img.exact, d.exact, q))
    return c_fit


@dataclass(frozen=True)
class InvarianceFit:
    """The constants (C for +P, C for -P), each with FIT_HEADROOM; mu_star, which
    solves mu/3 + C mu^(q-1) = mu/2 for the larger C (None where both are 0);
    and mu0 = 0.5 * min(MU_STAR_CAP, mu_star), half the cap where mu_star is
    None: the image is then indistinguishable from the cone, and any mu0 < 1 works."""
    c: tuple[float, float]
    mu_star: float | None
    mu0: float


def fit_mu0(prob, rng: np.random.Generator) -> InvarianceFit:
    """Fit C for each sign, + first, on one ladder of boundary samples, and
    choose mu0 from the larger; check_schauder validates these constants."""
    c = tuple(_fit_constant(prob, sign, rng) * FIT_HEADROOM for sign in (1, -1))
    if max(c) <= 0:
        return InvarianceFit(c, None, 0.5 * MU_STAR_CAP)
    mu_star = (1.0 / (6.0 * max(c))) ** (1.0 / (prob.potential.q - 2.0))
    return InvarianceFit(c, mu_star, 0.5 * min(MU_STAR_CAP, mu_star))


def check_schauder(prob, mu0: float, c: tuple[float, float], sample_count: int,
                   rng: np.random.Generator) -> tuple[InvarianceReport, InvarianceReport]:
    """Measure the cone-neighborhood invariance of the map u -> lam*A^-1*M*w.

    For each sign: draws fresh samples u at dist(u, sign*P) = mu0, and reports
    the worst image ratio dist(image, sign*P)/mu0 against 0.5 and whether
    every image keeps dist_img <= d/3 + C d^(q-1), for that sign's C in ``c``
    (as fit_mu0 returns them).
    """
    q = prob.potential.q
    reports = []
    for sign, c_fit in zip((1, -1), c):
        ineq_ok = True
        fresh = _boundary_samples(prob, sign, np.asarray([mu0]), sample_count, rng)
        pairs = []
        for u, d in fresh:
            for img in _selection_images(prob, u, rng):
                d_img = _ConeDistance(prob.space, img, sign)
                pairs.append((d_img, d))
                if ineq_ok and _may_hold(
                        lambda a, b: a > b / 3.0 + c_fit * b ** (q - 1.0) + 1e-9, d_img, d):
                    ineq_ok = False
        worst, witness = _worst_ratio(pairs, mu0)
        reports.append(InvarianceReport(
            sign=sign, mu0=mu0, worst_ratio=worst, fitted_c=c_fit, q=q,
            n_samples=len(fresh), passed=worst <= 0.5 + RATIO_TOL,
            inequality_ok=ineq_ok, witness_distance=witness,
        ))
    return reports[0], reports[1]
