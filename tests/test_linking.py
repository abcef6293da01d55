import numpy as np
import pytest

import nodalflow as nf
from nodalflow.linking import GapViolation, NoLinkingWindow, SurfaceMesh


@pytest.fixture(scope="module")
def frame_63(quartic_63):
    rng = np.random.default_rng(7)
    mu0 = nf.fit_mu0(quartic_63, rng)
    return mu0, nf.build_frame(quartic_63, mu0, nf.ScanConfig(), rng)


def test_frame_scans(quartic_63, frame_63):
    mu0, frame = frame_63
    assert 0 < frame.delta_t < frame.radius
    # energy negative on the whole radius-R arc
    for theta in np.linspace(0, np.pi, 40):
        assert nf.energy(quartic_63, frame.q_point(1.0, theta)) < 0
    # energy positive and labels sign-changing on sampled T points
    for v in nf.sample_t_sphere(quartic_63.space, frame, 16, np.random.default_rng(1)):
        assert nf.energy(quartic_63, v) > 0
        assert nf.region_of(quartic_63.space, v, mu0) is nf.RegionLabel.SIGN_CHANGING


def test_no_linking_window_for_tiny_lambda(space_63):
    prob = nf.EnergyProblem(space_63, nf.power_potential(4), 1e-3)
    with pytest.raises(NoLinkingWindow) as err:
        nf.build_frame(prob, 0.3, nf.ScanConfig(), np.random.default_rng(0))
    assert err.value.profiles  # scan profiles reported


def test_alpha_beta_gap(quartic_63, frame_63):
    mu0, frame = frame_63
    alpha, beta = nf.estimate_alpha_beta(quartic_63, frame, np.random.default_rng(3))
    assert alpha < 0 < beta


def test_gap_violation_for_small_radius(quartic_63, frame_63):
    mu0, frame = frame_63
    shrunk = nf.LinkingFrame(frame.phi1, frame.phi2, frame.lam1, frame.lam2,
                             radius=frame.delta_t * 1.05, delta_t=frame.delta_t,
                             mu0=mu0)
    with pytest.raises((GapViolation, NoLinkingWindow)):
        nf.estimate_alpha_beta(quartic_63, shrunk, np.random.default_rng(3))


def test_surface_mesh_boundary_contracts(quartic_63, frame_63):
    mu0, frame = frame_63
    mesh = SurfaceMesh.identity_embedding(quartic_63, frame, 5, 9)
    # every boundary point is either identity-frozen (in S) or W-constrained
    boundary = np.zeros((5, 9), dtype=bool)
    boundary[-1, :] = True
    boundary[0, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    assert np.array_equal(mesh.frozen | mesh.wcon, boundary)
    assert not np.any(mesh.frozen & mesh.wcon)
    labels = mesh.labels(quartic_63, mu0)
    for i in range(5):
        for k in range(9):
            if mesh.frozen[i, k]:
                assert labels[i, k] is nf.RegionLabel.SIGN_CHANGING
            if mesh.wcon[i, k]:
                assert labels[i, k] is not nf.RegionLabel.SIGN_CHANGING


def test_deform_surface_contracts(quartic_63, frame_63):
    mu0, frame = frame_63
    mesh = SurfaceMesh.identity_embedding(quartic_63, frame, 5, 9)
    js = mesh.energies(quartic_63)
    r0 = float(np.max(np.where(
        [[l is nf.RegionLabel.SIGN_CHANGING for l in row]
         for row in mesh.labels(quartic_63, mu0)], js, -np.inf)))
    cfg = nf.FlowConfig(mu0=mu0, level_r=r0, eps=3.0, eps_bar=6.0,
                        t_max=0.5, tol_m=1e-3)
    new = nf.deform_surface(quartic_63, mesh, cfg)
    # frozen points bitwise identical
    assert np.array_equal(new.images[mesh.frozen], mesh.images[mesh.frozen])
    # deformation never raises the energy
    js_new = new.energies(quartic_63)
    assert np.all(js_new <= js + 1e-9)
    # W-boundary points remain in W
    labels = new.labels(quartic_63, mu0)
    for i in range(5):
        for k in range(9):
            if mesh.wcon[i, k]:
                assert labels[i, k] is not nf.RegionLabel.SIGN_CHANGING


@pytest.fixture(scope="module")
def minimax_63(quartic_63, frame_63):
    mu0, frame = frame_63
    cfg = nf.MinimaxConfig(nr=7, nt=25)
    return cfg, nf.minimax_iterate(quartic_63, frame, cfg, np.random.default_rng(9))


def test_minimax_converges(quartic_63, minimax_63):
    cfg, rep = minimax_63
    assert rep.converged
    assert rep.label is nf.RegionLabel.SIGN_CHANGING
    assert rep.candidate_slope <= cfg.flow.tol_m
    assert nf.sign_changes(rep.candidate) == 1


def test_minimax_report_invariants(quartic_63, minimax_63):
    cfg, rep = minimax_63
    diffs = np.diff(rep.r_estimates)
    assert np.all(diffs <= 1e-9)          # sup sequence nonincreasing
    assert rep.alpha < rep.beta
    assert rep.beta <= rep.r_final + rep.mesh_tolerance
    assert rep.r_final >= rep.beta - rep.mesh_tolerance
    space = quartic_63.space
    d_plus, d_minus = nf.dist_to_cones(space, rep.candidate)
    assert d_plus > 0.45 and d_minus > 0.45
    assert np.any(rep.candidate > 0) and np.any(rep.candidate < 0)
    text = rep.to_json()
    assert '"r_final"' in text


def test_minimax_mesh_refinement_stability(quartic_63, frame_63, minimax_63):
    mu0, frame = frame_63
    cfg_coarse, rep_coarse = minimax_63
    cfg_fine = nf.MinimaxConfig(nr=13, nt=49)
    rep_fine = nf.minimax_iterate(quartic_63, frame, cfg_fine, np.random.default_rng(9))
    assert rep_fine.converged
    # the critical value itself is mesh-independent
    j_coarse = nf.energy(quartic_63, rep_coarse.candidate)
    j_fine = nf.energy(quartic_63, rep_fine.candidate)
    assert j_fine == pytest.approx(j_coarse, rel=1e-8)
    # the discrete sup estimate moves less than 3x the coarse-mesh J resolution
    assert abs(rep_fine.r_final - rep_coarse.r_final) \
        <= 3.0 * rep_coarse.mesh_tolerance


def test_surface_snapshot_csv(quartic_63, frame_63):
    mu0, frame = frame_63
    mesh = SurfaceMesh.identity_embedding(quartic_63, frame, 3, 5)
    text = mesh.to_csv(quartic_63, ("iteration=0",))
    lines = text.strip().splitlines()
    assert lines[0] == "# iteration=0"
    assert len(lines) == 2 + 3  # header comment, theta row, one row per rho
    first = float(lines[2].split(",")[1])
    assert first == pytest.approx(nf.energy(quartic_63, mesh.images[0, 0]))


def test_minimax_snapshot_callback(quartic_63, frame_63):
    mu0, frame = frame_63
    seen = []
    cfg = nf.MinimaxConfig(nr=5, nt=9, max_sweeps=2)
    nf.minimax_iterate(quartic_63, frame, cfg, np.random.default_rng(9),
                       snapshot=lambda it, mesh: seen.append(it))
    assert seen == list(range(len(seen)))
    assert len(seen) >= 1


def test_minimax_needs_a_sweep():
    # the extraction uses the labels and energies of the last sweep
    with pytest.raises(ValueError, match="max_sweeps"):
        nf.MinimaxConfig(max_sweeps=0)
    with pytest.raises(nf.ConfigError, match="max_sweeps"):
        nf.load_config({"linking": {"max_sweeps": 0}})


def test_t_sphere_sampling_is_m_orthogonal(quartic_63, frame_63):
    mu0, frame = frame_63
    space = quartic_63.space
    for v in nf.sample_t_sphere(space, frame, 8, np.random.default_rng(2)):
        assert abs(space.l2_inner(v, frame.phi1)) <= 1e-10
        assert space.h1_norm(v) == pytest.approx(frame.delta_t, rel=1e-10)
