"""Piecewise-smooth scalar potentials j(x, s) and their Clarke intervals.

A potential is a list of smooth pieces separated by breakpoints in s.  At a
breakpoint the subdifferential is the interval spanned by the two one-sided
derivatives; elsewhere it degenerates to the classical derivative.  Potentials
are autonomous in x by default; x-dependence enters only through an optional
positive multiplicative coefficient evaluated at the node coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class ClarkeInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    def support(self, h: float) -> float:
        """max over the interval of xi*h."""
        return max(self.lo * h, self.hi * h)


class PotentialError(ValueError):
    pass


@dataclass(frozen=True)
class PiecewisePotential:
    """j(s) assembled from smooth pieces; piece i covers (breakpoints[i-1], breakpoints[i]].

    ``values[i]`` and ``derivs[i]`` must accept numpy arrays.  ``a1``, ``q``
    and ``mu`` are the declared growth/superlinearity parameters used by the
    hypothesis checker.  ``coefficient`` optionally maps node coordinates to a
    positive multiplier c(x).
    """

    breakpoints: tuple[float, ...]
    values: tuple[Callable, ...]
    derivs: tuple[Callable, ...]
    a1: float
    q: float
    mu: float
    name: str = "custom"
    coefficient: Callable | None = None

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1 or len(self.derivs) != len(self.values):
            raise PotentialError("need one piece per breakpoint gap")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise PotentialError("breakpoints must be strictly increasing")
        if self.a1 <= 0 or self.q <= 2:
            raise PotentialError("growth parameters require a1 > 0 and q > 2")
        # Continuity across breakpoints and j(0) = 0 are structural invariants.
        for i, b in enumerate(self.breakpoints):
            jl = float(self.values[i](np.asarray(b)))
            jr = float(self.values[i + 1](np.asarray(b)))
            if not math.isclose(jl, jr, rel_tol=1e-9, abs_tol=1e-9):
                raise PotentialError(f"discontinuous at breakpoint {b}: {jl} vs {jr}")
        if abs(self._value_scalar(0.0)) > 1e-12:
            raise PotentialError("potential must vanish at s = 0")

    # -- evaluation -------------------------------------------------------

    def _piece_index(self, s: np.ndarray, side: str = "left") -> np.ndarray:
        # side='left' sends a breakpoint to the piece on its left.
        return np.searchsorted(np.asarray(self.breakpoints), s, side=side)

    def _eval_pieces(self, funcs, s: np.ndarray, side: str = "left") -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        if not self.breakpoints:
            # one piece covers every s: the mask loop would select all of s
            out[...] = funcs[0](s)
            return out
        idx = self._piece_index(s, side)
        for i, f in enumerate(funcs):
            mask = idx == i
            if np.any(mask):
                out[mask] = f(s[mask])
        return out

    def _value_scalar(self, s: float) -> float:
        return float(self._eval_pieces(self.values, np.asarray([s]))[0])

    def value(self, s) -> np.ndarray:
        return self._eval_pieces(self.values, np.asarray(s, dtype=float))

    def derivative(self, s) -> np.ndarray:
        """Left-piece derivative convention at breakpoints."""
        return self._eval_pieces(self.derivs, np.asarray(s, dtype=float))

    def derivative_right(self, s) -> np.ndarray:
        """Right-piece convention (one-sided limit from above at breakpoints)."""
        return self._eval_pieces(self.derivs, np.asarray(s, dtype=float), side="right")

    def interval_arrays(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized Clarke intervals (lo, hi); degenerate off the breakpoints."""
        s = np.asarray(s, dtype=float)
        d = self._eval_pieces(self.derivs, s)
        lo, hi = d.copy(), d.copy()
        for b in self.breakpoints:
            at = s == b
            if np.any(at):
                left = float(self._eval_pieces(self.derivs, np.asarray([b]), "left")[0])
                right = float(self._eval_pieces(self.derivs, np.asarray([b]), "right")[0])
                lo[at] = min(left, right)
                hi[at] = max(left, right)
        return lo, hi

    def coefficient_values(self, coords: np.ndarray | None) -> np.ndarray | float:
        if self.coefficient is None or coords is None:
            return 1.0
        c = np.asarray(self.coefficient(coords), dtype=float)
        if np.any(c <= 0):
            raise PotentialError("coefficient field must be positive")
        return c

    # -- algebra (used by the calculus checks) -----------------------------

    def scaled(self, c: float) -> "PiecewisePotential":
        if c <= 0:
            raise PotentialError("only positive scalings preserve the interval calculus")
        return PiecewisePotential(
            self.breakpoints,
            tuple((lambda s, f=f: c * f(s)) for f in self.values),
            tuple((lambda s, f=f: c * f(s)) for f in self.derivs),
            a1=c * self.a1, q=self.q, mu=self.mu,
            name=f"{c}*{self.name}", coefficient=self.coefficient,
        )

    def plus(self, other: "PiecewisePotential") -> "PiecewisePotential":
        bps = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        vals = tuple(
            (lambda s, a=self, b=other: a.value(s) + b.value(s)) for _ in range(len(bps) + 1)
        )

        def make_deriv(k):
            # Inside piece k the sum is smooth; at the piece's left endpoint the
            # one-sided limit from above is required, not the left convention.
            def d(s, a=self, b=other, k=k):
                s = np.asarray(s, dtype=float)
                out = a.derivative(s) + b.derivative(s)
                if k > 0:
                    at = s == bps[k - 1]
                    if np.any(at):
                        out[at] = (a.derivative_right(np.asarray([bps[k - 1]]))[0]
                                   + b.derivative_right(np.asarray([bps[k - 1]]))[0])
                return out
            return d

        return PiecewisePotential(
            bps, vals, tuple(make_deriv(k) for k in range(len(bps) + 1)),
            a1=self.a1 + other.a1, q=max(self.q, other.q), mu=min(self.mu, other.mu),
            name=f"{self.name}+{other.name}",
        )


# -- spec-level operations --------------------------------------------------

def eval_j(p: PiecewisePotential, x, s: float) -> float:
    c = 1.0 if p.coefficient is None or x is None else float(p.coefficient(np.atleast_2d(x))[0])
    return c * p._value_scalar(float(s))


def clarke_interval(p: PiecewisePotential, x, s: float) -> ClarkeInterval:
    lo, hi = p.interval_arrays(np.asarray([float(s)]))
    c = 1.0 if p.coefficient is None or x is None else float(p.coefficient(np.atleast_2d(x))[0])
    return ClarkeInterval(c * float(lo[0]), c * float(hi[0]))


def gen_dir_derivative(p: PiecewisePotential, x, s: float, h: float) -> float:
    """Generalized directional derivative: support function of the interval at h."""
    return clarke_interval(p, x, s).support(float(h))


# -- builtin families --------------------------------------------------------

def power_potential(q: float) -> PiecewisePotential:
    if q <= 2:
        raise PotentialError("power potential requires q > 2")
    mu = min(q, max(2.0, q / 2.0))  # default declared exponent; overridable via the table form
    return PiecewisePotential(
        (), (lambda s: np.abs(s) ** q / q,), (lambda s: np.sign(s) * np.abs(s) ** (q - 1),),
        a1=1.0, q=q, mu=mu, name=f"power:{q:g}",
    )


def abs_potential() -> PiecewisePotential:
    # Fails (H_j)(iii)/(iv); used for subdifferential calculus, not for solving.
    return PiecewisePotential(
        (0.0,), (lambda s: -s, lambda s: s), (lambda s: -np.ones_like(s), lambda s: np.ones_like(s)),
        a1=1.0, q=2.5, mu=2.5, name="abs",
    )


def two_slope_potential(a: float, b: float) -> PiecewisePotential:
    """Cubic derivative with slope a inside |s|<=1 and b outside (kinks at +-1)."""
    if a <= 0 or b <= 0:
        raise PotentialError("two_slope requires positive slopes")
    inner_v = lambda s: a * s**4 / 4
    outer_v = lambda s: a / 4 + b * (s**4 - 1) / 4
    inner_d = lambda s: a * s**3
    outer_d = lambda s: b * s**3
    return PiecewisePotential(
        (-1.0, 1.0), (outer_v, inner_v, outer_v), (outer_d, inner_d, outer_d),
        a1=max(a, b), q=4.0, mu=2.0, name=f"two_slope:{a:g},{b:g}",
    )


def capped_power_potential(q: float, cap: float) -> PiecewisePotential:
    """|s|^q/q truncated at the value level cap; derivative jumps to zero there."""
    if q <= 2 or cap <= 0:
        raise PotentialError("capped_power requires q > 2 and cap > 0")
    s0 = (q * cap) ** (1.0 / q)
    plateau_v = lambda s: np.full_like(np.asarray(s, dtype=float), cap)
    inner_v = lambda s: np.abs(s) ** q / q
    zero_d = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    inner_d = lambda s: np.sign(s) * np.abs(s) ** (q - 1)
    return PiecewisePotential(
        (-s0, s0), (plateau_v, inner_v, plateau_v), (zero_d, inner_d, zero_d),
        a1=max(1.0, s0 ** (q - 1)), q=q, mu=2.0, name=f"capped_power:{q:g},{cap:g}",
    )


def polynomial_potential(breakpoints: Sequence[float], coefficients: Sequence[Sequence[float]],
                         a1: float, q: float, mu: float,
                         name: str = "table") -> PiecewisePotential:
    """Piecewise polynomial table; coefficients per piece in ascending powers."""
    vals, ders = [], []
    for coeffs in coefficients:
        c = np.asarray(coeffs, dtype=float)
        if c.size == 0:
            raise PotentialError("a coefficient piece must not be empty")
        dc = c[1:] * np.arange(1, len(c))
        vals.append(lambda s, c=c: np.polynomial.polynomial.polyval(s, c))
        ders.append(lambda s, dc=dc: np.polynomial.polynomial.polyval(s, dc)
                    if len(dc) else np.zeros_like(np.asarray(s, dtype=float)))
    return PiecewisePotential(tuple(float(b) for b in breakpoints), tuple(vals), tuple(ders),
                              a1=a1, q=q, mu=mu, name=name)


# -- hypothesis checking ------------------------------------------------------

HYP_S_MAX = 5.0                     # (ii), (v): uniform draws in [-HYP_S_MAX, HYP_S_MAX]
HYP_SAMPLES = 400                   # (ii), (v): that many, plus the breakpoints
HYP_LADDER = (10.0, 100.0, 1000.0)  # (iii): |z| of the superlinearity ladder
HYP_DYADIC_DEPTH = 24               # (iv): z = 2^-k for k below this
HYP_SMALL_QUOTIENT = 1e-2           # (iv): bound on the last quotient 2j(z)/z^2


@dataclass
class HypothesisCheck:
    passed: bool
    worst: float
    witness: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {"passed": bool(self.passed), "worst": float(self.worst),
                "witness": None if self.witness is None else float(self.witness),
                "note": self.note}


@dataclass
class HypothesisReport:
    lipschitz_zero: HypothesisCheck
    growth: HypothesisCheck
    superlinear: HypothesisCheck
    superquadratic_origin: HypothesisCheck
    sign_condition: HypothesisCheck
    interpretation: str = (
        "superlinearity read as a limit in |z| -> infinity, checked on a finite "
        "ladder with a monotonicity flag; inf over the subdifferential interval"
    )

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in (self.lipschitz_zero, self.growth, self.superlinear,
                                      self.superquadratic_origin, self.sign_condition))

    def to_dict(self) -> dict:
        return {
            "i_lipschitz_zero": self.lipschitz_zero.to_dict(),
            "ii_growth": self.growth.to_dict(),
            "iii_superlinear": self.superlinear.to_dict(),
            "iv_superquadratic_origin": self.superquadratic_origin.to_dict(),
            "v_sign_condition": self.sign_condition.to_dict(),
            "all_passed": self.all_passed,
            "interpretation": self.interpretation,
        }


def check_hypotheses(p: PiecewisePotential, seed: int = 0) -> HypothesisReport:
    """Sampled verification of the structural conditions on j, at the HYP_*
    sampling plan; ``seed`` draws the samples of (ii) and (v).

    (i) continuity across breakpoints plus j(0)=0; (ii) |xi| <= a1(1+|s|^{q-1});
    (iii) positive superlinearity quotient on the large-|z| ladder;
    (iv) 2j(z)/z^2 -> 0 along a dyadic sequence; (v) z*xi >= 0.
    """
    rng = np.random.default_rng(seed)
    s = rng.uniform(-HYP_S_MAX, HYP_S_MAX, HYP_SAMPLES)
    s = np.concatenate([s, np.asarray(p.breakpoints, dtype=float)])

    # (i): j(0) = 0 and no jump across breakpoints (construction enforces these;
    # re-measure here so the report stands on its own).
    gap = 0.0
    for i, b in enumerate(p.breakpoints):
        gap = max(gap, abs(float(p.values[i](np.asarray(b))) - float(p.values[i + 1](np.asarray(b)))))
    worst_i = max(gap, abs(p._value_scalar(0.0)))
    check_i = HypothesisCheck(worst_i <= 1e-9, worst_i)

    lo, hi = p.interval_arrays(s)
    bound = p.a1 * (1.0 + np.abs(s) ** (p.q - 1.0))
    excess = np.maximum(np.abs(lo), np.abs(hi)) - bound
    k = int(np.argmax(excess))
    check_ii = HypothesisCheck(excess[k] <= 1e-9 * (1 + bound[k]), float(excess[k]), float(s[k]))

    # (iii): quotient (inf_{xi} xi*z - 2 j(z)) / |z|^mu on the ladder, both signs.
    quotients, zs = [], []
    for z0 in HYP_LADDER:
        for z in (z0, -z0):
            lo_z, hi_z = p.interval_arrays(np.asarray([z]))
            inf_prod = min(lo_z[0] * z, hi_z[0] * z)
            quotients.append((inf_prod - 2.0 * p._value_scalar(z)) / abs(z) ** p.mu)
            zs.append(z)
    quotients = np.asarray(quotients)
    worst_q = float(np.min(quotients))
    monotone = bool(np.all(np.diff(quotients[::2]) >= -1e-9 * np.abs(quotients[::2][:-1])))
    check_iii = HypothesisCheck(
        worst_q > 0.0, worst_q, float(zs[int(np.argmin(quotients))]),
        note=f"ladder quotient monotone: {monotone}",
    )

    # (iv): dyadic z -> 0, both signs; require the tail to shrink below tolerance.
    z = 2.0 ** -np.arange(HYP_DYADIC_DEPTH, dtype=float)
    quot = np.maximum(np.abs(2 * p.value(z) / z**2), np.abs(2 * p.value(-z) / z**2))
    tail = float(quot[-1])
    shrinking = tail <= HYP_SMALL_QUOTIENT and tail <= 0.5 * float(quot[0]) + 1e-12
    check_iv = HypothesisCheck(shrinking, tail, float(z[-1]))

    neg = np.minimum(lo * s, hi * s)
    k = int(np.argmin(neg))
    check_v = HypothesisCheck(neg[k] >= -1e-12 * (1 + abs(s[k])), float(neg[k]), float(s[k]))

    return HypothesisReport(check_i, check_ii, check_iii, check_iv, check_v)
