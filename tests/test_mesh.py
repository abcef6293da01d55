import numpy as np
import pytest

import nodalflow as nf
from nodalflow.mesh import MeshError


def closed_form_eigenvalue(k, h, length=1.0):
    return (4.0 / h**2) * np.sin(k * np.pi * h / (2.0 * length)) ** 2


def test_grid_arithmetic():
    spec = nf.GridSpec.interval(0.0, 1.0, 3)
    assert spec.spacing == (0.25,)
    assert np.allclose(spec.coords().ravel(), [0.25, 0.5, 0.75])


def test_invalid_specs():
    with pytest.raises(MeshError):
        nf.GridSpec.interval(0.0, 1.0, 1)
    with pytest.raises(MeshError):
        nf.GridSpec.interval(1.0, 1.0, 8)
    with pytest.raises(MeshError):
        nf.GridSpec(3, ((0.0, 1.0),) * 3, (4, 4, 4))


def test_eigenvalues_match_closed_form_1d():
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, 3))
    pairs = space.eigenpairs(3)
    for k, (lam, _) in enumerate(pairs, start=1):
        assert lam == pytest.approx(closed_form_eigenvalue(k, 0.25), rel=1e-12)
    assert pairs[0][0] == pytest.approx(9.3726, abs=5e-5)


def test_eigenvalue_refinement_ladder():
    # lambda_1(h) increases toward pi^2 with observed order 2
    errors = []
    for n in (15, 31, 63, 127):
        space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, n))
        lam1 = space.eigenpairs(1)[0][0]
        assert lam1 < np.pi**2
        errors.append(np.pi**2 - lam1)
    errors = np.asarray(errors)
    assert np.all(np.diff(errors) < 0)
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all(np.abs(orders - 2.0) < 0.1)


def test_first_eigenfield_properties(space_63):
    pairs = space_63.eigenpairs(2)
    (lam1, phi1), (_, phi2) = pairs
    assert np.all(phi1 > 0)
    assert space_63.l2_inner(phi1, phi1) == pytest.approx(1.0, abs=1e-12)
    assert abs(space_63.l2_inner(phi1, phi2)) < 1e-12
    # Rayleigh identity for the generalized eigenpair
    assert space_63.h1_inner(phi1, phi1) == pytest.approx(lam1, rel=1e-12)


def test_eigen_residuals(space_63):
    A = space_63.A
    M = space_63.M_diag
    for lam, phi in space_63.eigenpairs(5):
        resid = A @ phi - lam * M * phi
        assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(A @ phi))


def test_operator_symmetry_and_positivity(space_63, rng):
    A = space_63.A.toarray()
    assert np.max(np.abs(A - A.T)) < 1e-12
    for _ in range(20):
        u = rng.normal(size=space_63.dim)
        assert u @ (space_63.A @ u) > 0


def test_norms_and_quadrature():
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, 3))
    zero = space.zero_field()
    assert space.h1_norm(zero) == 0.0
    hat = np.array([0.0, 1.0, 0.0])
    assert space.lp_norm(hat, 2) == pytest.approx(np.sqrt(0.25))
    assert space.lp_norm(hat, np.inf) == 1.0
    with pytest.raises(MeshError):
        space.lp_norm(hat, 0.5)
    with pytest.raises(MeshError):
        space.h1_norm(np.ones(5))


def test_dual_norm_is_riesz_norm(space_63, rng):
    u = rng.normal(size=space_63.dim)
    g = space_63.A @ u
    assert space_63.dual_norm(g) == pytest.approx(space_63.h1_norm(u), rel=1e-10)


@pytest.mark.parametrize("spec", [
    nf.GridSpec.interval(0.0, 1.0, 127),
    nf.GridSpec.interval(0.0, 1.0, 1023),
    nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (39, 19)),
    nf.GridSpec.rectangle([(0.0, 1.0), (0.0, 2.0)], (19, 39)),
], ids=["1d-127", "1d-1023", "2d-39x19", "2d-19x39"])
def test_solve_reduced_matches_dense(spec, rng):
    space = nf.build_space(spec)
    A = space.A.toarray()
    n = space.dim
    subsets = [np.sort(rng.choice(n, size=size, replace=False))
               for size in rng.integers(2, n, size=6)]
    subsets += [np.array([0]), np.array([n - 1]), np.array([0, n - 1]), np.arange(n)]
    for idx in subsets:
        rhs = rng.normal(size=idx.size)
        x = space.solve_reduced(rhs, idx)
        ref = np.linalg.solve(A[np.ix_(idx, idx)], rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_2d_rectangle_eigenvalues():
    space = nf.build_space(nf.GridSpec.rectangle([(0.0, 1.0), (0.0, 2.0)], (7, 9)))
    hx, hy = space.grid.spacing
    per_axis = sorted(
        closed_form_eigenvalue(kx, hx, 1.0) + closed_form_eigenvalue(ky, hy, 2.0)
        for kx in range(1, 8) for ky in range(1, 10))
    pairs = space.eigenpairs(4)
    for (lam, _), expected in zip(pairs, per_axis[:4]):
        assert lam == pytest.approx(expected, rel=1e-10)
    assert np.all(pairs[0][1] > 0)


def test_2d_quadrature_weight():
    space = nf.build_space(nf.GridSpec.rectangle([(0.0, 1.0), (0.0, 1.0)], (4, 4)))
    u = np.ones(space.dim)
    hx, hy = space.grid.spacing
    assert space.l2_inner(u, u) == pytest.approx(16 * hx * hy)


def test_sign_changes():
    assert nf.sign_changes(np.array([1.0, 2.0, 1.0])) == 0
    assert nf.sign_changes(np.array([1.0, 1e-14, -1.0])) == 1
    assert nf.sign_changes(np.array([1.0, -1.0, 1.0, -2.0])) == 3
    assert nf.sign_changes(np.zeros(4)) == 0


def test_field_csv_roundtrip(space_63, rng):
    u = rng.normal(size=space_63.dim)
    text = nf.field_to_csv(space_63, u, ("config_hash=deadbeef",))
    back = nf.field_from_csv(space_63, text)
    assert np.array_equal(u, back)
    assert text.startswith("# config_hash=deadbeef")
