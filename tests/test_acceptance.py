"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import os

import numpy as np
import pytest

import nodalflow as nf
from nodalflow.cli import main
from oracles import (box_grid_slope, enum_dist_batch, random_hinge_potential,
                     diff_quotient_j0, saddle_set_slope, shooting_sign_changing)


def _report(num, name, detail=""):
    print(f"\nACCEPTANCE {num} [{name}]: PASS {detail}")


# -- shared full-pipeline runs (criteria 6, 7, 8) --------------------------------


def _solve_config(tmp, name, potential, lam, n=127, seed=11):
    cfg = {
        "grid": {"dimension": 1, "bounds": [0.0, 1.0], "n": n},
        "potential": potential,
        "lambda": lam,
        "mu0": "auto",
        "seed": seed,
        "output_dir": str(tmp / f"{name}_out"),
    }
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path), str(tmp / f"{name}_out")


@pytest.fixture(scope="module")
def solve_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    runs = {}
    for name, potential, lam, n, seed in (("bench", "power:4", 1.0, 127, 11),
                                          ("bench16", "power:4", 16.0, 127, 11),
                                          ("two_slope", "two_slope:1,2", 1.0, 127, 11),
                                          ("bench1023", "power:4", 1.0, 1023, 1)):
        path, out = _solve_config(tmp, name, potential, lam, n, seed)
        code = main(["solve", "--config", path, "--out", out])
        runs[name] = {
            "exit": code,
            "out": out,
            "report": json.load(open(os.path.join(out, "minimax_report.json"))),
            "invariance": json.load(open(os.path.join(out, "invariance_report.json"))),
            "hypotheses": json.load(open(os.path.join(out, "hypothesis_report.json"))),
            "space": nf.build_space(nf.GridSpec.interval(0.0, 1.0, n)),
        }
        with open(os.path.join(out, "solution.csv")) as fh:
            runs[name]["u"] = nf.field_from_csv(runs[name]["space"], fh.read())
    runs["space"] = runs["bench"]["space"]
    return runs


def test_acceptance_1_clarke_calculus(rng):
    pa = nf.abs_potential()
    iv = nf.clarke_interval(pa, None, 0.0)
    assert (iv.lo, iv.hi) == (-1.0, 1.0)

    checked = 0
    while checked < 500:
        p = random_hinge_potential(rng)
        s = float(rng.choice(list(p.breakpoints) + [rng.uniform(-1.4, 1.4)]))
        c = float(rng.uniform(0.2, 4.0))
        iv = nf.clarke_interval(p, None, s)
        ivc = nf.clarke_interval(p.scaled(c), None, s)
        assert ivc.lo == pytest.approx(c * iv.lo, rel=1e-12, abs=1e-12)
        assert ivc.hi == pytest.approx(c * iv.hi, rel=1e-12, abs=1e-12)
        q = random_hinge_potential(rng)
        ivq = nf.clarke_interval(q, None, s)
        tot = nf.clarke_interval(p.plus(q), None, s)
        # equality of the sum rule in the scalar piecewise case
        assert tot.lo == pytest.approx(iv.lo + ivq.lo, abs=1e-10)
        assert tot.hi == pytest.approx(iv.hi + ivq.hi, abs=1e-10)
        checked += 1

    for _ in range(200):
        p = random_hinge_potential(rng)
        s = float(rng.choice(list(p.breakpoints) + [rng.uniform(-1.4, 1.4)]))
        h = float(rng.choice([-1.0, 1.0]))
        oracle = diff_quotient_j0(p, s, h)
        assert nf.gen_dir_derivative(p, None, s, h) == pytest.approx(oracle, abs=1e-3)
    _report(1, "Clarke calculus suite",
            "500 homogeneity/sum-rule samples, 200 quotient-oracle samples")


def _engineered_instance(rng):
    # u on the boundary of D^sign(mu) with the subgradient box aligned to the
    # outward normal: m(u) > 0 but m_D(u) = 0.  The derivative kink sits at the
    # extreme node value so the epsilon piece carries no other node.
    n = 4
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, n))
    lam1, phi1 = space.eigenpairs(1)[0]
    sign = int(rng.choice([1, -1]))
    mu = float(rng.uniform(0.25, 0.6))
    u = -sign * mu * phi1 / np.sqrt(lam1)
    c = lam1 * float(rng.uniform(1.3, 2.0))
    eps = float(rng.uniform(0.02, 0.08))
    if sign > 0:
        s0 = float(np.min(u))   # u < 0; no node lies strictly below s0
        vals = (lambda s: c * s**2 / 2 + eps * (s - s0), lambda s: c * s**2 / 2)
        ders = (lambda s: c * s + eps, lambda s: c * s + np.zeros_like(s))
    else:
        s0 = float(np.max(u))   # u > 0; no node lies strictly above s0
        vals = (lambda s: c * s**2 / 2, lambda s: c * s**2 / 2 + eps * (s - s0))
        ders = (lambda s: c * s + np.zeros_like(s), lambda s: c * s + eps)
    pot = nf.PiecewisePotential((s0,), vals, ders, a1=c + eps, q=3.0, mu=2.5,
                                name="outward")
    prob = nf.EnergyProblem(space, pot, 1.0)
    return space, prob, u, nf.ConeNeighborhood(sign, mu), True


def _random_instance(rng):
    n = int(rng.integers(3, 5))
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, n))
    lam = float(rng.uniform(0.3, 2.0))
    mu = float(rng.uniform(0.25, 0.7))
    sign = int(rng.choice([1, -1]))
    u = rng.normal(size=n)
    pr = nf.project_cone(space, u, sign)
    if pr.distance > 0.95 * mu:
        u = pr.projection + (0.9 * mu / pr.distance) * pr.residual
    # kinks exactly at one or two node values keep the box interval-valued
    nodes = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
    kinks = [(float(u[i]), float(rng.uniform(0.1, 0.8) * rng.choice([-1, 1])))
             for i in sorted(set(nodes), key=lambda i: u[i])]
    kinks.sort(key=lambda t: t[0])
    if len(kinks) == 2 and abs(kinks[0][0] - kinks[1][0]) < 1e-9:
        kinks = kinks[:1]
    pot = random_hinge_potential(rng, kinks=kinks)
    prob = nf.EnergyProblem(space, pot, lam)
    return space, prob, u, nf.ConeNeighborhood(sign, mu), False


def test_acceptance_2_slope_oracles(rng):
    agree = 0
    for trial in range(50):
        if trial % 5 == 4:
            space, prob, u, region, stationary = _engineered_instance(rng)
        else:
            space, prob, u, region, stationary = _random_instance(rng)

        res = nf.slope(prob, u)
        grid_val = box_grid_slope(space, nf.subdifferential_box(prob, u))
        assert res.value == pytest.approx(grid_val, abs=1e-6)

        box = nf.subdifferential_box(prob, u)
        A = space.A.toarray()
        member = lambda Z: enum_dist_batch(A, Z, region.sign) <= region.mu + 1e-12
        oracle = saddle_set_slope(space, box, u, member,
                                  np.random.default_rng(1000 + trial))
        msd = nf.slope_on_set(prob, u, region)
        assert msd.value == pytest.approx(oracle, abs=1e-4)

        crit = nf.stationarity_residual(prob, u, region)
        scale = max(1.0, res.value)
        flag_minimax = msd.value <= 1e-5 * scale
        flag_criterion = crit <= 1e-5 * scale
        assert flag_minimax == flag_criterion
        if stationary:
            assert flag_minimax and res.value > 1e-3
        agree += 1
    assert agree == 50
    _report(2, "slope oracle equivalence",
            "50 instances: QP vs grid 1e-6, minimax vs saddle 1e-4, criterion agreement")


def test_acceptance_3_projection_suite(space_63, rng):
    lam1, phi1 = space_63.eigenpairs(1)[0]
    pr = nf.project_cone(space_63, -phi1)
    assert np.max(np.abs(pr.projection)) == 0.0
    assert pr.distance == pytest.approx(np.sqrt(lam1), abs=1e-8)

    prev = None
    for k in range(1000):
        u = rng.normal(size=63) * rng.uniform(0.2, 4.0)
        pr = nf.project_cone(space_63, u)
        moreau = abs(space_63.h1_inner(pr.residual, pr.projection))
        assert moreau <= 1e-8 * max(space_63.h1_norm(u) ** 2, 1e-12)
        if prev is not None:
            assert (space_63.h1_norm(pr.projection - prev[1])
                    <= space_63.h1_norm(u - prev[0]) + 1e-10)
        prev = (u, pr.projection)
    _report(3, "projection suite", "1000 fields: Moreau 1e-8, 1-Lipschitz")


def test_acceptance_4_schauder_check(quartic_127):
    fit = nf.fit_mu0(quartic_127, np.random.default_rng(1))
    mu0 = fit.mu0
    rep_p, rep_m = nf.check_schauder(quartic_127, mu0, fit.c, 250,
                                     np.random.default_rng(2))
    n_samples = rep_p.n_samples + rep_m.n_samples
    assert n_samples >= 500
    for rep in (rep_p, rep_m):
        assert rep.worst_ratio <= 0.5 + 1e-6
        assert rep.inequality_ok
        assert rep.passed
    _report(4, "Schauder/(H1) check",
            f"mu0={mu0:.3g}, {n_samples} boundary samples, "
            f"worst ratio {max(rep_p.worst_ratio, rep_m.worst_ratio):.2e}")


def test_acceptance_5_flow_invariance(quartic_127, rng):
    space = quartic_127.space
    mu0 = nf.fit_mu0(quartic_127, np.random.default_rng(1)).mu0
    cfg = nf.FlowConfig(mu0=mu0, tol_m=1e-6, t_max=40.0)
    worst_excess = -np.inf
    for sign in (1, -1):
        count = 0
        while count < 100:
            p = np.abs(rng.normal(size=127))
            p *= rng.uniform(0.2, 2.5) / space.h1_norm(p)
            e = rng.normal(size=127)
            e /= space.h1_norm(e)
            u0 = sign * p + rng.uniform(0.0, 0.95 * mu0) * e
            if nf.project_cone(space, u0, sign).distance > mu0:
                continue
            count += 1
            traj = nf.integrate_flow(quartic_127, u0, cfg)
            norm0 = space.h1_norm(u0)
            for a, b in zip(traj.states, traj.states[1:]):
                assert b.j <= a.j
            for s in traj.states:
                d = s.d_plus if sign > 0 else s.d_minus
                worst_excess = max(worst_excess, d - mu0)
                assert d <= mu0 + 1e-7
                assert space.h1_norm(s.u) <= (norm0 + 1.0) * np.exp(2 * s.t) + 1e-9
    _report(5, "flow invariance",
            f"200 cone trajectories, worst distance excess {worst_excess:.2e}")


def test_acceptance_6_sign_changing_solve(solve_runs):
    bench = solve_runs["bench"]
    space = solve_runs["space"]
    assert bench["exit"] == 0
    rep = bench["report"]
    assert rep["converged"] and rep["label"] == "sign_changing"
    u = bench["u"]
    assert nf.sign_changes(u) == 1
    assert rep["candidate_slope"] <= 1e-6
    mu0 = bench["invariance"]["mu0"]
    for sign in (1, -1):
        assert nf.project_cone(space, u, sign).distance > mu0

    prob = nf.EnergyProblem(space, nf.power_potential(4), 1.0)
    xs = space.grid.coords().ravel()
    u_oracle, j_oracle = shooting_sign_changing(1.0, xs)
    j_star = nf.energy(prob, u)
    assert j_star == pytest.approx(j_oracle, rel=0.01)
    assert rep["r_final"] >= rep["beta"]

    bench16 = solve_runs["bench16"]
    assert bench16["exit"] == 0
    u16 = bench16["u"]
    scale = np.max(np.abs(u / 4.0))
    rel = np.max(np.abs(u16 - u / 4.0)) / scale
    assert rel <= 1e-4

    # n = 1023: the energy error is O(h^2), so the bound is perfbench's n = 127
    # tolerance 5e-4 scaled by h^2
    fine = solve_runs["bench1023"]
    assert fine["exit"] == 0
    assert fine["report"]["converged"] and fine["report"]["candidate_slope"] <= 1e-6
    assert nf.sign_changes(fine["u"]) == 1
    fine_space = fine["space"]
    _, j_fine_oracle = shooting_sign_changing(1.0, fine_space.grid.coords().ravel())
    j_fine = nf.energy(nf.EnergyProblem(fine_space, nf.power_potential(4), 1.0), fine["u"])
    fine_err = abs(j_fine - j_fine_oracle) / j_fine_oracle
    assert fine_err <= 5e-4 * (128.0 / 1024.0) ** 2
    _report(6, "sign-changing solve",
            f"J={j_star:.4f} vs oracle {j_oracle:.4f} "
            f"({abs(j_star - j_oracle) / j_oracle:.2e} rel), scaling {rel:.2e}, "
            f"n=1023 {fine_err:.2e} rel")


def test_acceptance_7_nonsmooth_solve(solve_runs, rng):
    run = solve_runs["two_slope"]
    assert run["exit"] == 0
    assert run["hypotheses"]["all_passed"]
    rep = run["report"]
    assert rep["converged"] and rep["label"] == "sign_changing"
    assert rep["candidate_slope"] <= 1e-5
    u = run["u"]
    assert nf.sign_changes(u) == 1
    inv = run["invariance"]
    assert inv["plus"]["passed"] and inv["minus"]["passed"]

    # fresh invariance monitors on the nonsmooth problem
    space = solve_runs["space"]
    prob = nf.EnergyProblem(space, nf.two_slope_potential(1.0, 2.0), 1.0)
    mu0 = inv["mu0"]
    cfg = nf.FlowConfig(mu0=mu0, tol_m=1e-6, t_max=30.0)
    for sign in (1, -1):
        for _ in range(5):
            p = np.abs(rng.normal(size=127))
            p *= rng.uniform(0.3, 2.0) / space.h1_norm(p)
            traj = nf.integrate_flow(prob, sign * p, cfg)
            verdict = nf.monitor_invariance(traj, mu0)
            assert verdict.passed, verdict.violations
    _report(7, "nonsmooth solve",
            f"two-slope converged, slope {rep['candidate_slope']:.2e}, monitors clean")


def test_acceptance_8_linking_bounds(solve_runs):
    for name in ("bench", "bench16", "two_slope"):
        rep = solve_runs[name]["report"]
        assert rep["converged"]
        assert rep["alpha"] < rep["beta"]
        assert rep["beta"] <= rep["r_final"] + rep["mesh_tolerance"]
        # the certified energy lies in [beta, r_final + mesh tol]
        assert rep["level_bracket"] == [rep["beta"], rep["r_final"] + rep["mesh_tolerance"]]
        assert rep["level_consistent"] is True
    _report(8, "linking bounds",
            "alpha < beta <= J(candidate) <= r_final + mesh tol on all runs")


def test_acceptance_9_determinism_and_resume(tmp_path):
    cfg = {
        "grid": {"dimension": 1, "bounds": [0.0, 1.0], "n": 63},
        "potential": "power:4",
        "lambda": 1.0,
        "mu0": 0.3,
        "flow": {"checkpoint_every": 10, "t_max": 30.0},
        "seed": 4,
        "output_dir": str(tmp_path / "unused"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["solve", "--config", str(path), "--out", out_a]) == 0
    assert main(["solve", "--config", str(path), "--out", out_b]) == 0
    for name in ("solution.csv", "minimax_report.json", "frame.json",
                 "hypothesis_report.json", "invariance_report.json"):
        with open(os.path.join(out_a, name)) as fa, \
             open(os.path.join(out_b, name)) as fb:
            assert fa.read() == fb.read(), name

    out_full = str(tmp_path / "full")
    assert main(["flow", "--config", str(path), "--start", "2.5*phi2",
                 "--out", out_full]) == 0
    cut = dict(cfg)
    cut["flow"] = dict(cfg["flow"], max_steps=12)
    cut_path = tmp_path / "cut.json"
    cut_path.write_text(json.dumps(cut))
    out_cut = str(tmp_path / "cut")
    assert main(["flow", "--config", str(cut_path), "--start", "2.5*phi2",
                 "--out", out_cut]) == 0
    out_res = str(tmp_path / "res")
    assert main(["flow", "--config", str(path), "--resume",
                 os.path.join(out_cut, "checkpoint.json"), "--out", out_res]) == 0
    for name in ("trajectory.csv", "solution.csv"):
        with open(os.path.join(out_full, name)) as fa, \
             open(os.path.join(out_res, name)) as fb:
            assert fa.read() == fb.read(), name
    _report(9, "determinism and resume", "byte-identical artifacts")
