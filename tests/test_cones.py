import numpy as np
import pytest

import nodalflow as nf
from oracles import enum_project_cone


def test_projection_of_nonnegative_is_identity(space_63, rng):
    u = np.abs(rng.normal(size=63))
    pr = nf.project_cone(space_63, u)
    assert np.array_equal(pr.projection, u)
    assert pr.distance == 0.0


def test_projection_of_negative_eigenfield(space_63):
    lam1, phi1 = space_63.eigenpairs(1)[0]
    pr = nf.project_cone(space_63, -phi1)
    assert np.max(np.abs(pr.projection)) == 0.0
    assert pr.distance == pytest.approx(np.sqrt(lam1), abs=1e-8)
    assert pr.kkt_residual <= 1e-9


def test_projection_matches_enumeration_oracle(rng):
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, 4))
    A = space.A.toarray()
    for _ in range(25):
        u = rng.normal(size=4) * rng.uniform(0.5, 3.0)
        pr = nf.project_cone(space, u)
        v_oracle, dist_oracle = enum_project_cone(A, u)
        assert np.allclose(pr.projection, v_oracle, atol=1e-9)
        assert pr.distance == pytest.approx(dist_oracle, abs=1e-9)


def test_moreau_orthogonality_and_lipschitz(space_63, rng):
    prev = None
    for _ in range(60):
        u = rng.normal(size=63) * rng.uniform(0.2, 4.0)
        pr = nf.project_cone(space_63, u)
        inner = abs(space_63.h1_inner(pr.residual, pr.projection))
        assert inner <= 1e-8 * max(space_63.h1_norm(u) ** 2, 1e-12)
        # polar inequality against sampled cone elements
        w = np.abs(rng.normal(size=63))
        assert space_63.h1_inner(pr.residual, w) <= 1e-8 * space_63.h1_norm(w)
        if prev is not None:
            lhs = space_63.h1_norm(pr.projection - prev[1])
            rhs = space_63.h1_norm(u - prev[0])
            assert lhs <= rhs + 1e-10
        prev = (u, pr.projection)


def test_distance_zero_iff_nonnegative(space_63, rng):
    u = np.abs(rng.normal(size=63))
    assert nf.project_cone(space_63, u).distance == 0.0
    u[10] = -0.3
    assert nf.project_cone(space_63, u).distance > 0.0


def test_dist_to_cones_examples(space_63):
    lam1, phi1 = space_63.eigenpairs(1)[0]
    _, phi2 = space_63.eigenpairs(2)[1]
    assert nf.dist_to_cones(space_63, space_63.zero_field()) == (0.0, 0.0)
    d = nf.dist_to_cones(space_63, phi1)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(np.sqrt(lam1), abs=1e-8)
    dp, dm = nf.dist_to_cones(space_63, phi2)
    assert dp > 0.5 and dm > 0.5


def test_region_labels(space_63):
    phi1 = space_63.eigenpairs(1)[0][1]
    phi2 = space_63.eigenpairs(2)[1][1]
    assert nf.region_of(space_63, space_63.zero_field(), 0.1) is nf.RegionLabel.OVERLAP
    assert nf.region_of(space_63, 3.0 * phi1, 0.1) is nf.RegionLabel.POSITIVE
    assert nf.region_of(space_63, -3.0 * phi1, 0.1) is nf.RegionLabel.NEGATIVE
    assert nf.region_of(space_63, 2.0 * phi2, 0.1) is nf.RegionLabel.SIGN_CHANGING
    with pytest.raises(ValueError):
        nf.region_of(space_63, phi1, 1.5)


def test_region_monotone_in_mu(space_63, rng):
    for _ in range(20):
        u = rng.normal(size=63) * 0.05
        if nf.region_of(space_63, u, 0.2) is nf.RegionLabel.OVERLAP:
            assert nf.region_of(space_63, u, 0.5) is nf.RegionLabel.OVERLAP


def test_schauder_small_lambda_ratio_shrinks(space_63, rng):
    # the image scales with lambda, so its cone distance vanishes as lambda -> 0
    big = nf.EnergyProblem(space_63, nf.power_potential(4), 1.0)
    small = nf.EnergyProblem(space_63, nf.power_potential(4), 1e-4)
    rep_b, _ = nf.check_schauder(big, 0.4, 30, np.random.default_rng(5))
    rep_s, _ = nf.check_schauder(small, 0.4, 30, np.random.default_rng(5))
    assert rep_s.worst_ratio <= max(rep_b.worst_ratio, 1e-12)
    assert rep_s.worst_ratio <= 1e-4


def test_schauder_interior_eigenfield_image(quartic_63, space_63):
    # u = nu*phi1 lies inside the cone: the image lam*A^-1*M*u^3 has sign nu
    phi1 = space_63.eigenpairs(1)[0][1]
    for sign in (1, -1):
        u = sign * 1.5 * phi1
        img = quartic_63.lam * space_63.solve(space_63.M_diag * u**3)
        assert nf.project_cone(space_63, img, sign).distance <= 1e-10


def test_schauder_benchmark_passes(quartic_63, rng):
    mu0 = nf.fit_mu0(quartic_63, np.random.default_rng(1))
    assert 0 < mu0 < 1
    rep_p, rep_m = nf.check_schauder(quartic_63, mu0, 60, rng)
    for rep in (rep_p, rep_m):
        assert rep.passed
        assert rep.worst_ratio <= 0.5 + 1e-6
        assert rep.inequality_ok
    text = rep_p.to_json()
    assert '"worst_ratio"' in text


def test_kkt_certificate_on_random_fields(space_63, rng):
    for _ in range(50):
        u = rng.normal(size=63) * rng.uniform(0.1, 5.0)
        pr = nf.project_cone(space_63, u)
        assert pr.kkt_residual <= 1e-9 * max(1.0, np.max(np.abs(u)))


def test_kkt_certificate_on_2d_grid(rng):
    space = nf.build_space(nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (23, 11)))
    phi2 = space.eigenpairs(2)[1][1]
    fields = [2.0 * phi2] + [rng.normal(size=space.dim) * rng.uniform(0.1, 5.0)
                             for _ in range(10)]
    for u in fields:
        for sign in (1, -1):
            pr = nf.project_cone(space, u, sign)
            assert pr.kkt_residual <= 1e-9 * max(1.0, np.max(np.abs(u)))
            assert np.all(sign * pr.projection >= 0.0)
            inner = abs(space.h1_inner(pr.residual, pr.projection))
            assert inner <= 1e-8 * max(space.h1_norm(u) ** 2, 1e-12)
