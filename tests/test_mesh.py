import copy
import pickle

import numpy as np
import pytest
import scipy.linalg

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
    assert space.l2_inner(hat, hat) == pytest.approx(0.25)
    with pytest.raises(MeshError):
        space.h1_norm(np.ones(5))


def test_dual_norm_is_riesz_norm(space_63, rng):
    u = rng.normal(size=space_63.dim)
    g = space_63.A @ u
    assert space_63.dual_norm(g) == pytest.approx(space_63.h1_norm(u), rel=1e-10)


def loop_band_solve(space, rhs, idx):
    """Reference reduced solve: the band of A[idx,idx] copied row by row from a
    band copy of A, then ``scipy.linalg.solveh_banded``."""
    coo = space.A.tocoo()
    full_bw = int(np.max(np.abs(coo.row - coo.col)))
    band = np.zeros((full_bw + 1, space.dim))
    for k in range(full_bw + 1):
        band[full_bw - k, k:] = space.A.diagonal(k)
    m = len(idx)
    bw = min(full_bw, m - 1)
    sub = np.zeros((bw + 1, m))
    for k in range(bw + 1):
        gap = idx[k:] - idx[:m - k]
        near = gap <= full_bw
        sub[bw - k, k:][near] = band[full_bw - gap[near], idx[k:][near]]
    return scipy.linalg.solveh_banded(sub, rhs)


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

    # bit for bit the loop-assembled band and solveh_banded, on every subset
    # and on the degenerate bands of one to bw + 2 nodes
    subsets += [np.sort(rng.choice(n, size=size, replace=False))
                for size in (1, 2, 2, 3, 3, space._bw + 1, space._bw + 2)]
    subsets += [np.array([0, 1]), np.array([n - 2, n - 1]),
                np.unique([0, 1, space._bw]), np.unique([0, space._bw, space._bw + 1])]
    for idx in subsets:
        rhs = rng.normal(size=idx.size)
        assert np.array_equal(space.solve_reduced(rhs, idx),
                              loop_band_solve(space, rhs, idx))
    with pytest.raises(ValueError):
        space.solve_reduced(np.array([0.0, np.nan]), np.array([0, 1]))


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


@pytest.mark.parametrize("spec", [nf.GridSpec.interval(0.0, 1.0, 31),
                                  nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (9, 5))],
                         ids=["1d", "2d"])
def test_space_copies_and_pickles_rebuild_from_the_grid(spec, rng):
    space = nf.build_space(spec)
    pairs = space.eigenpairs(4)
    g = rng.normal(size=space.dim)
    for other in (copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
        assert other is not space and other.grid == spec
        assert (other.A != space.A).nnz == 0
        for (lam_a, phi_a), (lam_b, phi_b) in zip(other.eigenpairs(4), pairs, strict=True):
            assert lam_a == lam_b and phi_a.tobytes() == phi_b.tobytes()
        assert other.solve(g).tobytes() == space.solve(g).tobytes()


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


def test_eigenpairs_repeat_bit_equal_and_match_dense_eigh_with_odd_phi2():
    spec = nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (46, 44))
    assert spec.size > 2000
    first, second = (nf.build_space(spec).eigenpairs(3) for _ in range(2))
    for (lam_a, phi_a), (lam_b, phi_b) in zip(first, second, strict=True):
        assert lam_a == lam_b and np.array_equal(phi_a, phi_b)
    space = nf.build_space(spec)
    dense = scipy.linalg.eigh(space.A.toarray(), np.diag(space.M_diag),
                              eigvals_only=True, subset_by_index=[0, 2])
    assert np.allclose([lam for lam, _ in first], dense, rtol=1e-10, atol=0.0)
    assert np.all(first[0][1] > 0)
    # phi_2 is the (2,1) mode, odd under the reflection x -> 2 - x
    phi2 = first[1][1].reshape(spec.n)
    assert np.allclose(phi2[::-1, :], -phi2, atol=1e-8 * np.abs(phi2).max())


def sine_mode(spec, mode):
    """M-normalized sine product of mode (i, j), C-ordered like the nodes."""
    phi = np.ones(1)
    for (a, b), n, i in zip(spec.bounds, spec.n, mode):
        axis = np.sin(i * np.pi * np.arange(1, n + 1) / (n + 1)) * np.sqrt(2.0 / (b - a))
        phi = np.outer(phi, axis).ravel()
    return phi


@pytest.mark.parametrize("spec, first, modes", [
    (nf.GridSpec.rectangle([(0.0, 1.0), (0.0, 1.0)], (25, 25)), 1, [(1, 2), (2, 1)]),
    (nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (39, 19)), 4, [(2, 2), (4, 1)]),
], ids=["square-25x25", "rect-39x19"])
def test_degenerate_eigenspaces_take_the_sine_basis_in_mode_order(spec, first, modes):
    pairs = nf.build_space(spec).eigenpairs(first + len(modes))
    lams = [lam for lam, _ in pairs[first:]]
    assert lams[0] == pytest.approx(lams[1], rel=1e-14)
    for (_, phi), mode in zip(pairs[first:], modes, strict=True):
        assert np.max(np.abs(phi - sine_mode(spec, mode))) <= 1e-12 * np.max(np.abs(phi))


@pytest.mark.parametrize("spec", [
    nf.GridSpec.interval(0.0, 1.0, 127),
    nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (39, 19)),
], ids=["1d-127", "2d-39x19"])
def test_every_eigenfield_is_positive_at_the_first_node(spec):
    space = nf.build_space(spec)
    assert all(phi[0] > 0 for _, phi in space.eigenpairs(space.dim))


@pytest.mark.parametrize("spec", [
    nf.GridSpec.interval(0.0, 1.0, 7),
    nf.GridSpec.rectangle([(0.0, 1.0), (0.0, 1.0)], (5, 4)),
], ids=["1d-7", "2d-5x4"])
def test_eigenpairs_for_every_k_agree_with_dense_eigh(spec):
    space = nf.build_space(spec)
    dense = scipy.linalg.eigh(space.A.toarray(), np.diag(space.M_diag), eigvals_only=True)
    for k in range(1, space.dim + 1):
        pairs = nf.build_space(spec).eigenpairs(k)
        lams = np.array([lam for lam, _ in pairs])
        phis = np.column_stack([phi for _, phi in pairs])
        assert np.allclose(lams, dense[:k], rtol=1e-10, atol=0.0)
        resid = space.A @ phis - lams * (space.M_diag[:, None] * phis)
        assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(space.A @ phis))
        gram = phis.T @ (space.M_diag[:, None] * phis)
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-10
    for k in (0, space.dim + 1):
        with pytest.raises(MeshError):
            space.eigenpairs(k)
