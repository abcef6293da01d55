import numpy as np
import pytest

import nodalflow as nf
from nodalflow.potential import PotentialError
from oracles import diff_quotient_j0


def kinked_cubic():
    # j(s) = max(0, s^2 - 1) * s: flat inside |s| <= 1, cubic outside
    return nf.polynomial_potential(
        (-1.0, 1.0),
        [[0.0, -1.0, 0.0, 1.0], [0.0], [0.0, -1.0, 0.0, 1.0]],
        a1=4.0, q=4.0, mu=2.5, name="capped_cubic")


def test_eval_examples():
    p4 = nf.power_potential(4)
    assert nf.eval_j(p4, None, 2.0) == pytest.approx(4.0)
    assert nf.eval_j(nf.abs_potential(), None, -3.0) == pytest.approx(3.0)
    two_sided = nf.polynomial_potential(
        (0.0,), [[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]], a1=4.0, q=3.0, mu=2.5)
    assert nf.eval_j(two_sided, None, 1.0) == pytest.approx(1.0)
    assert nf.eval_j(two_sided, None, -1.0) == pytest.approx(2.0)


def test_construction_invariants():
    with pytest.raises(PotentialError):
        # discontinuous across the breakpoint
        nf.polynomial_potential((1.0,), [[0.0, 1.0], [5.0, 1.0]], a1=1.0, q=3.0, mu=2.0)
    with pytest.raises(PotentialError):
        # j(0) != 0
        nf.polynomial_potential((), [[1.0, 0.0, 1.0]], a1=1.0, q=3.0, mu=2.0)
    with pytest.raises(PotentialError):
        nf.power_potential(2.0)


def test_clarke_interval_examples():
    assert nf.clarke_interval(nf.abs_potential(), None, 0.0) == nf.ClarkeInterval(-1.0, 1.0)
    smooth = nf.clarke_interval(nf.power_potential(4), None, 2.0)
    assert smooth.lo == smooth.hi == pytest.approx(8.0)
    p = kinked_cubic()
    iv = nf.clarke_interval(p, None, 1.0)
    assert (iv.lo, iv.hi) == pytest.approx((0.0, 2.0))
    iv_neg = nf.clarke_interval(p, None, -1.0)
    assert (iv_neg.lo, iv_neg.hi) == pytest.approx((0.0, 2.0))


def test_one_sided_derivative_oracle():
    # interval endpoints at the kink match one-sided finite differences
    p = kinked_cubic()
    step = 1e-7
    for s0 in (-1.0, 1.0):
        left = (float(p.value(s0)) - float(p.value(s0 - step))) / step
        right = (float(p.value(s0 + step)) - float(p.value(s0))) / step
        iv = nf.clarke_interval(p, None, s0)
        assert iv.lo == pytest.approx(min(left, right), abs=5e-6)
        assert iv.hi == pytest.approx(max(left, right), abs=5e-6)


def test_gen_dir_derivative_examples():
    pa = nf.abs_potential()
    assert nf.gen_dir_derivative(pa, None, 0.0, 1.0) == 1.0
    assert nf.gen_dir_derivative(pa, None, 0.0, -1.0) == 1.0
    assert nf.gen_dir_derivative(nf.power_potential(4), None, 1.0, -2.0) == pytest.approx(-2.0)
    p = kinked_cubic()
    for h in (-2.0, -1.0, 0.5, 3.0):
        iv = nf.clarke_interval(p, None, 1.0)
        assert nf.gen_dir_derivative(p, None, 1.0, h) == pytest.approx(
            max(iv.lo * h, iv.hi * h))


def test_gen_dir_derivative_against_quotient_oracle():
    # the oracle's s-grid spans 1e-4, so sample where |j''| * 1e-4 stays below
    # the 1e-3 comparison tolerance
    p = kinked_cubic()
    for s in (-1.0, 1.0, 0.3, 1.4):
        for h in (1.0, -1.0):
            oracle = diff_quotient_j0(p, s, h)
            assert nf.gen_dir_derivative(p, None, s, h) == pytest.approx(oracle, abs=1e-3)


def test_support_function_convex_homogeneous(rng):
    p = kinked_cubic()
    for _ in range(50):
        s = float(rng.uniform(-2.5, 2.5))
        if rng.uniform() < 0.3:
            s = float(rng.choice([-1.0, 1.0]))
        h1, h2 = rng.normal(), rng.normal()
        c = float(rng.uniform(0.1, 4.0))
        j0 = lambda h: nf.gen_dir_derivative(p, None, s, h)
        assert j0(c * h1) == pytest.approx(c * j0(h1), rel=1e-12, abs=1e-12)
        assert j0(h1 + h2) <= j0(h1) + j0(h2) + 1e-12


def test_scaling_homogeneity(rng):
    base = kinked_cubic()
    for _ in range(30):
        c = float(rng.uniform(0.2, 5.0))
        scaled = base.scaled(c)
        s = float(rng.choice([-1.0, 1.0, rng.uniform(-2, 2)]))
        iv = nf.clarke_interval(base, None, s)
        ivc = nf.clarke_interval(scaled, None, s)
        assert ivc.lo == pytest.approx(c * iv.lo, rel=1e-12, abs=1e-12)
        assert ivc.hi == pytest.approx(c * iv.hi, rel=1e-12, abs=1e-12)


def test_sum_rule_equality(rng):
    a = kinked_cubic()
    b = nf.abs_potential()
    total = a.plus(b)
    for _ in range(30):
        s = float(rng.choice([-1.0, 0.0, 1.0, rng.uniform(-2, 2)]))
        iva, ivb = nf.clarke_interval(a, None, s), nf.clarke_interval(b, None, s)
        ivt = nf.clarke_interval(total, None, s)
        assert ivt.lo == pytest.approx(iva.lo + ivb.lo, abs=1e-11)
        assert ivt.hi == pytest.approx(iva.hi + ivb.hi, abs=1e-11)


def test_hypothesis_checker_quartic():
    rep = nf.check_hypotheses(nf.power_potential(4))
    assert rep.all_passed
    # sign condition and superlinearity hold in closed form: xi*z - 2j = z^4/2
    assert rep.superlinear.worst > 0


def test_hypothesis_checker_detects_quadratic():
    quad = nf.polynomial_potential((), [[0.0, 0.0, 0.5]], a1=2.0, q=3.0, mu=2.5)
    rep = nf.check_hypotheses(quad)
    assert not rep.superquadratic_origin.passed
    assert rep.superquadratic_origin.worst == pytest.approx(1.0, rel=1e-6)


def test_hypothesis_checker_cubic_sign():
    rep = nf.check_hypotheses(nf.power_potential(3))
    assert rep.sign_condition.passed
    assert rep.lipschitz_zero.passed


def test_hypothesis_checker_capped_power():
    rep = nf.check_hypotheses(nf.capped_power_potential(4.0, 10.0))
    assert not rep.superlinear.passed
    assert rep.sign_condition.passed


def test_two_slope_passes_and_is_kinked():
    p = nf.two_slope_potential(1.0, 2.0)
    assert nf.check_hypotheses(p).all_passed
    iv = nf.clarke_interval(p, None, 1.0)
    assert (iv.lo, iv.hi) == (1.0, 2.0)
    iv = nf.clarke_interval(p, None, -1.0)
    assert (iv.lo, iv.hi) == (-2.0, -1.0)


def test_coefficient_field_scales_intervals():
    coef = lambda coords: 1.0 + coords[:, 0]
    p = nf.PiecewisePotential(
        (0.0,), (lambda s: -s, lambda s: s),
        (lambda s: -np.ones_like(s), lambda s: np.ones_like(s)),
        a1=1.0, q=2.5, mu=2.5, name="abs_x", coefficient=coef)
    iv = nf.clarke_interval(p, np.array([0.5]), 0.0)
    assert (iv.lo, iv.hi) == (-1.5, 1.5)
    assert nf.eval_j(p, np.array([0.5]), 2.0) == pytest.approx(3.0)


def mask_loop(p, funcs, s, side="left"):
    """The piecewise evaluation: each piece on the entries that fall in it."""
    s = np.asarray(s, dtype=float)
    idx = np.searchsorted(np.asarray(p.breakpoints), s, side=side)
    out = np.empty_like(s)
    for i, f in enumerate(funcs):
        mask = idx == i
        if np.any(mask):
            out[mask] = f(s[mask])
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_one_piece_path_matches_the_mask_loop(monkeypatch):
    p3, p4 = nf.power_potential(3), nf.power_potential(4)
    one_piece = [p3, p4, p3.scaled(2.5), p4.scaled(0.3), p3.plus(p4), p4.plus(p4.scaled(2.0))]
    inputs = [np.array([-2.5, -1.0, -0.0, 0.0, 1e-300, 0.7, 3.0, -1e-3]),
              np.linspace(-4.0, 4.0, 41), np.zeros(5), np.asarray(-1.25),
              np.asarray(0.0), np.empty(0)]
    lookups = []
    real = nf.PiecewisePotential._piece_index
    monkeypatch.setattr(nf.PiecewisePotential, "_piece_index",
                        lambda self, s, side="left": lookups.append(1) or real(self, s, side))
    for p in one_piece:
        assert p.breakpoints == ()
        for s in inputs:
            assert same_bits(p.value(s), mask_loop(p, p.values, s))
            assert same_bits(p.derivative(s), mask_loop(p, p.derivs, s))
            assert same_bits(p.derivative_right(s), mask_loop(p, p.derivs, s, "right"))
            lo, hi = p.interval_arrays(s)
            d = mask_loop(p, p.derivs, s)
            assert same_bits(lo, d) and same_bits(hi, d)
    # the direct path never looks up a piece; a kinked potential still does
    assert not lookups
    two = nf.two_slope_potential(1, 2)
    s = np.array([-2.0, -1.0, 0.5, 1.0, 1.5])
    assert same_bits(two.value(s), mask_loop(two, two.values, s)) and lookups
