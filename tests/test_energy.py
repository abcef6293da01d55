import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodalflow as nf
from nodalflow.mesh import MeshError
from oracles import box_grid_slope, enum_dist_batch, saddle_set_slope, stationarity_residual


def tiny_problem(n=4, lam=1.3, kink_node=2, seed=0):
    rng = np.random.default_rng(seed)
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, n))
    pot = nf.abs_potential().plus(nf.power_potential(4))
    prob = nf.EnergyProblem(space, pot, lam)
    u = rng.normal(size=n)
    u[kink_node] = 0.0  # activates the |s| kink at that node
    return space, prob, u


def engineered_boundary_stationary(n=4, mu=0.4, factor=1.6, eps=0.05):
    """u on the boundary of D+(mu) whose whole subgradient box points along the
    outward normal: m(u) > 0 while m_D(u) = 0."""
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, n))
    lam1, phi1 = space.eigenpairs(1)[0]
    u = -mu * phi1 / np.sqrt(lam1)
    c = lam1 * factor
    s0 = float(u[1])
    pot = nf.PiecewisePotential(
        (s0,),
        (lambda s: c * s**2 / 2 + eps * (s - s0), lambda s: c * s**2 / 2),
        (lambda s: c * s + eps, lambda s: c * s),
        a1=c + eps, q=3.0, mu=2.5, name="outward")
    return space, nf.EnergyProblem(space, pot, 1.0), u


def test_energy_zero_field(quartic_63, space_63):
    assert nf.energy(quartic_63, space_63.zero_field()) == 0.0


def test_energy_spike_hand_quadrature():
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, 3))
    prob = nf.EnergyProblem(space, nf.power_potential(4), 1.0)
    u = np.array([0.0, 1.0, 0.0])
    h = 0.25
    expected = 0.5 * (2.0 / h) - h / 4.0
    assert nf.energy(prob, u) == pytest.approx(expected, rel=1e-14)


def test_energy_scaling_decomposition(quartic_63, rng):
    u = rng.normal(size=63)
    space = quartic_63.space
    quad = 0.5 * space.h1_norm(u) ** 2
    quart = quad - nf.energy(quartic_63, u)
    for t in (0.5, 2.0, 3.7):
        assert nf.energy(quartic_63, t * u) == pytest.approx(
            t**2 * quad - t**4 * quart, rel=1e-12)


def test_box_smooth_degenerate(quartic_63, rng):
    u = rng.normal(size=63)
    box = nf.subdifferential_box(quartic_63, u)
    assert np.array_equal(box.lo, box.hi)
    assert np.allclose(box.lo, u**3)
    assert np.allclose(box.base, quartic_63.space.A @ u)


def test_box_abs_at_zero(space_63):
    prob = nf.EnergyProblem(space_63, nf.abs_potential(), 1.0)
    box = nf.subdifferential_box(prob, space_63.zero_field())
    assert np.all(box.lo == -1.0) and np.all(box.hi == 1.0)


def test_box_matches_pointwise_intervals(space_63, rng):
    pot = nf.two_slope_potential(1.0, 2.0)
    prob = nf.EnergyProblem(space_63, pot, 1.0)
    u = rng.choice([-1.0, 1.0, 0.3, -2.0], size=63)
    box = nf.subdifferential_box(prob, u)
    for i in (0, 5, 40):
        iv = nf.clarke_interval(pot, None, float(u[i]))
        assert (box.lo[i], box.hi[i]) == (iv.lo, iv.hi)


def test_slope_smooth_direct(quartic_63, rng):
    u = rng.normal(size=63)
    res = nf.slope(quartic_63, u)
    space = quartic_63.space
    g = space.A @ u - space.M_diag * u**3
    assert res.iterations == 0
    assert res.value == pytest.approx(space.dual_norm(g), rel=1e-12)


def test_slope_zero_at_origin_abs_small_lambda(space_63):
    prob = nf.EnergyProblem(space_63, nf.abs_potential(), 0.05)
    res = nf.slope(prob, space_63.zero_field())
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.abs(res.selection) <= 1.0)


def test_slope_qp_matches_grid_oracle():
    for seed in range(5):
        space, prob, u = tiny_problem(seed=seed)
        res = nf.slope(prob, u)
        oracle = box_grid_slope(space, nf.subdifferential_box(prob, u))
        assert res.value == pytest.approx(oracle, abs=1e-6)


def test_slope_positive_off_critical(quartic_63, rng):
    for _ in range(20):
        u = rng.normal(size=63)
        space = quartic_63.space
        if space.dual_norm(space.A @ u - space.M_diag * u**3) > 1e-8:
            assert nf.slope(quartic_63, u).value > 0


def test_box_support_dominates_directional_derivative(rng):
    # max over the box of <x*, d> bounds the difference-quotient derivative
    space, prob, u = tiny_problem(seed=3)
    box = nf.subdifferential_box(prob, u)
    for _ in range(10):
        d = rng.normal(size=4)
        t = 1e-6
        quotient = (nf.energy(prob, u + t * d) - nf.energy(prob, u)) / t
        # each selection w_i sits at lo_i or hi_i, whichever gives less of w_i d_i
        support = box.base @ d - box.lam * box.weights @ np.minimum(box.lo * d, box.hi * d)
        assert support >= quotient - 1e-3


def test_slope_on_set_whole_space_reduces(quartic_63, rng):
    u = rng.normal(size=63)
    res = nf.slope_on_set(quartic_63, u, None)
    assert res.value == pytest.approx(nf.slope(quartic_63, u).value, rel=1e-10)


def test_slope_on_set_interior_equals_slope():
    space, prob, u = tiny_problem(seed=5)
    lam1, phi1 = space.eigenpairs(1)[0]
    deep = 4.0 * phi1  # far inside D+(mu) relative to the unit ball
    region = nf.ConeNeighborhood(1, 0.5)
    msd = nf.slope_on_set(prob, deep, region)
    m = nf.slope(prob, deep).value
    assert msd.value == pytest.approx(m, rel=1e-6, abs=1e-8)


def test_slope_on_set_boundary_stationary():
    space, prob, u = engineered_boundary_stationary()
    region = nf.ConeNeighborhood(1, 0.4)
    m = nf.slope(prob, u).value
    msd = nf.slope_on_set(prob, u, region)
    crit = stationarity_residual(space, nf.subdifferential_box(prob, u), u, region)
    assert m > 0.1
    assert msd.value <= 1e-7
    assert crit <= 1e-6


def test_slope_on_set_matches_saddle_oracle(rng):
    for seed in range(4):
        space, prob, u = tiny_problem(n=3, seed=10 + seed)
        mu = 0.5
        pr = nf.project_cone(space, u, 1)
        if pr.distance > mu:
            u = pr.projection + (0.95 * mu / pr.distance) * pr.residual
        region = nf.ConeNeighborhood(1, mu)
        value = nf.slope_on_set(prob, u, region).value
        box = nf.subdifferential_box(prob, u)
        A = space.A.toarray()
        member = lambda Z: enum_dist_batch(A, Z, 1) <= mu + 1e-12
        oracle = saddle_set_slope(space, box, u, member,
                                  np.random.default_rng(99 + seed))
        assert value == pytest.approx(oracle, abs=1e-4)
        # the feasible directions live in the unit ball, so m_D never exceeds m
        assert value <= nf.slope(prob, u).value + 1e-8


def test_slope_on_set_intersection(space_63):
    prob = nf.EnergyProblem(space_63, nf.abs_potential(), 0.05)
    u = space_63.zero_field()
    region = (nf.ConeNeighborhood(1, 0.3), nf.ConeNeighborhood(-1, 0.3))
    res = nf.slope_on_set(prob, u, region)
    assert res.value <= 1e-8  # 0 is critical, hence D-stationary


def test_lemma_3_1_cross_validation(quartic_127):
    # flow endpoints inside the cone neighborhoods: set-stationarity at
    # tolerance implies plain stationarity at 10x tolerance
    space = quartic_127.space
    mu0 = 0.3
    cfg = nf.FlowConfig(mu0=mu0, tol_m=1e-6, t_max=40.0)
    phi1 = space.eigenpairs(1)[0][1]
    for sign in (1, -1):
        traj = nf.integrate_flow(quartic_127, sign * 0.9 * phi1, cfg)
        u_end = traj.final.u
        msd = nf.slope_on_set(quartic_127, u_end, nf.ConeNeighborhood(sign, mu0))
        if msd.value <= 1e-6:
            assert nf.slope(quartic_127, u_end).value <= 1e-5


def test_ps_monitor_constant_critical(space_63):
    zero = space_63.zero_field()
    history = [(zero, 0.0, 0.0)] * 6
    rep = nf.ps_monitor(space_63, history)
    assert rep.passed


def test_ps_monitor_flags_divergence(space_63):
    phi1 = space_63.eigenpairs(1)[0][1]
    history = [(n * phi1, -float(n), 1.0) for n in range(1, 12)]
    rep = nf.ps_monitor(space_63, history)
    assert not rep.passed
    assert not rep.product_ok
    assert not rep.cauchy_ok


def test_ps_monitor_converged_flow_tail(quartic_63):
    space = quartic_63.space
    phi2 = space.eigenpairs(2)[1][1]
    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=40.0)
    traj = nf.integrate_flow(quartic_63, 2.0 * phi2, cfg)
    assert traj.termination is nf.Termination.SLOPE_BELOW_TOL
    history = [(s.u, s.j, s.m) for s in traj.states]
    rep = nf.ps_monitor(space, history)
    assert rep.passed


KINKED_PROBLEMS = {
    dim: nf.EnergyProblem(nf.build_space(spec),
                          nf.abs_potential().plus(nf.power_potential(4)), 1.3)
    for dim, spec in ((1, nf.GridSpec.interval(0.0, 1.0, 15)),
                      (2, nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (5, 4))))
}


@settings(max_examples=30)
@given(dim=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 3.0), zeros=st.floats(0.0, 0.5))
def test_precomputed_au_gives_the_same_bits(dim, seed, scale, zeros):
    prob = KINKED_PROBLEMS[dim]
    rng = np.random.default_rng(seed)
    u = scale * rng.normal(size=prob.space.dim)
    u[rng.random(prob.space.dim) < zeros] = 0.0   # kinks of the abs term
    au = prob.space.A @ u
    assert nf.energy(prob, u, au) == nf.energy(prob, u)
    given_box, box = nf.subdifferential_box(prob, u, au), nf.subdifferential_box(prob, u)
    for name in ("base", "lo", "hi"):
        assert getattr(given_box, name).tobytes() == getattr(box, name).tobytes()
    given_res, res = nf.slope(prob, u, au=au), nf.slope(prob, u)
    assert given_res.value == res.value and given_res.iterations == res.iterations
    for name in ("selection", "certificate", "riesz"):
        assert getattr(given_res, name).tobytes() == getattr(res, name).tobytes()


def test_energies_checks_the_block_once(quartic_63, space_63, monkeypatch):
    u = np.linspace(-1.0, 1.0, 63)
    for bad in (u, np.zeros((2, 64)), np.zeros((2, 3, 63))):
        with pytest.raises(MeshError):
            nf.energies(quartic_63, bad)
    expected = nf.energy(quartic_63, u)

    def per_row(field):
        raise AssertionError("energies checked a row")

    monkeypatch.setattr(space_63, "check_field", per_row)
    js = nf.energies(quartic_63, u[None, :])
    assert js.shape == (1,) and js[0] == expected


def _coefficient_potential():
    # the abs potential scaled by c(x) = 1 + x, as in test_potential.py
    return nf.PiecewisePotential(
        (0.0,), (lambda s: -s, lambda s: s),
        (lambda s: -np.ones_like(s), lambda s: np.ones_like(s)),
        a1=1.0, q=2.5, mu=2.5, name="abs_x", coefficient=lambda x: 1.0 + x[:, 0])


BLOCK_SPACES = {1: nf.build_space(nf.GridSpec.interval(0.0, 1.0, 127)),
                2: nf.build_space(nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (39, 19)))}
BLOCK_POTENTIALS = {"power:4": nf.power_potential(4),
                    "two_slope:1,2": nf.two_slope_potential(1.0, 2.0),
                    "abs_x": _coefficient_potential()}


@settings(max_examples=40)
@given(dim=st.sampled_from([1, 2]), name=st.sampled_from(sorted(BLOCK_POTENTIALS)),
       rows=st.sampled_from([1, 7, 64]), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 3.0), kinks=st.floats(0.0, 0.5))
def test_energies_give_the_bits_of_energy(dim, name, rows, seed, scale, kinks):
    pot = BLOCK_POTENTIALS[name]
    prob = nf.EnergyProblem(BLOCK_SPACES[dim], pot, 1.3)
    rng = np.random.default_rng(seed)
    block = scale * rng.normal(size=(rows, prob.space.dim))
    # some nodes exactly on a breakpoint (on 0 for the one-piece power)
    at = rng.random(block.shape) < kinks
    block[at] = rng.choice(pot.breakpoints or (0.0,), size=int(at.sum()))
    assert np.array_equal(nf.energies(prob, block),
                          [nf.energy(prob, u) for u in block])
