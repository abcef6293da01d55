import numpy as np
import pytest

import nodalflow as nf
from nodalflow import linking
from nodalflow._serial import dumps
from nodalflow.linking import (EXTRACTION_COUNTS, GapViolation, NoLinkingWindow,
                               SurfaceMesh, _bisect_separatrix, _classify_descent,
                               _newton_polish)
from oracles import shooting_sign_changing


@pytest.fixture(scope="module")
def frame_63(quartic_63):
    rng = np.random.default_rng(7)
    mu0 = nf.fit_mu0(quartic_63, rng).mu0
    return mu0, nf.build_frame(quartic_63, mu0, rng)


def test_frame_scans(quartic_63, frame_63):
    mu0, frame = frame_63
    assert 0 < frame.delta_t < frame.radius
    # energy negative on the whole radius-R arc
    for theta in np.linspace(0, np.pi, 40):
        assert nf.energy(quartic_63, frame.q_points([1.0], [theta])[0, 0]) < 0
    # energy positive and labels sign-changing on sampled T points
    for v in nf.sample_t_sphere(quartic_63.space, frame, 16, np.random.default_rng(1)):
        assert nf.energy(quartic_63, v) > 0
        assert nf.region_of(quartic_63.space, v, mu0) is nf.RegionLabel.SIGN_CHANGING


def _full_scan(prob, mu0, rng):
    """(R, delta_T) from scoring every scanned radius and every delta below R."""
    space = prob.space
    pairs = space.eigenpairs(2)
    hat = [vec / np.sqrt(lam) for lam, vec in pairs]
    arc = np.array([np.cos(t) * hat[0] + np.sin(t) * hat[1]
                    for t in np.linspace(0.0, np.pi, linking.SCAN_N_THETA)])
    radius = next(r * linking.RADIUS_MARGIN for r in linking.SCAN_RADII
                  if max(nf.energies(prob, r * arc)) < 0.0
                  and max(nf.energies(prob, r * linking.RADIUS_MARGIN * arc)) < 0.0)
    dirs = linking._v_directions(space, pairs[0][1], linking.N_DIRECTIONS, rng)
    unit = nf.cones.min_dist_to_cones(space, dirs)
    feasible = [d for d in linking.SCAN_DELTAS
                if d < radius and min(nf.energies(prob, d * np.array(dirs))) > 0.0
                and d * unit > mu0 * linking.CONE_MARGIN]
    return radius, next((d for d in feasible if d * unit >= 1.25 * mu0), feasible[-1])


@pytest.mark.parametrize("grid", [nf.GridSpec.interval(0.0, 1.0, 63),
                                  nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (39, 19))])
@pytest.mark.parametrize("mu0", [0.2, 0.45])
def test_delta_scan_stops_at_the_delta_it_picks(grid, mu0, monkeypatch):
    prob = nf.EnergyProblem(nf.build_space(grid), nf.power_potential(4), 1.0)
    scored = []

    def energies(p, block):
        if len(block) == linking.N_DIRECTIONS:   # a delta block, not an arc
            scored.append(block)
        return nf.energies(p, block)

    monkeypatch.setattr(linking, "energies", energies)
    frame = nf.build_frame(prob, mu0, np.random.default_rng(3))
    assert (frame.radius, frame.delta_t) == _full_scan(prob, mu0, np.random.default_rng(3))
    # the deltas are scored in ascending order, and the last one scored is delta_T
    assert linking.SCAN_DELTAS[len(scored) - 1] == frame.delta_t


def test_no_linking_window_for_tiny_lambda(space_63):
    prob = nf.EnergyProblem(space_63, nf.power_potential(4), 1e-3)
    with pytest.raises(NoLinkingWindow) as err:
        nf.build_frame(prob, 0.3, np.random.default_rng(0))
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


@pytest.mark.parametrize("grid", [nf.GridSpec.interval(0.0, 1.0, 63),
                                  nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (39, 19))])
def test_surface_block_equals_q_point_bit_for_bit(grid):
    # the surface and the alpha boundary are built as blocks; each point keeps
    # the bits of a one-point q_points call and of the point-by-point formula
    space = nf.build_space(grid)
    (lam1, phi1), (lam2, phi2) = space.eigenpairs(2)
    frame = nf.LinkingFrame(phi1, phi2, lam1, lam2, np.sqrt(61.0), 1.0, 0.3)
    hat1, hat2 = phi1 / np.sqrt(lam1), phi2 / np.sqrt(lam2)

    def same_bits(point, rho, theta):
        reference = rho * frame.radius * (np.cos(theta) * hat1 + np.sin(theta) * hat2)
        single = frame.q_points([rho], [theta])[0, 0]
        return point.tobytes() == single.tobytes() == reference.tobytes()

    prob = nf.EnergyProblem(space, nf.power_potential(4), 1.0)
    mesh = SurfaceMesh.identity_embedding(prob, frame, 7, 25)
    for i, r in enumerate(mesh.rho):
        for k, th in enumerate(mesh.theta):
            assert same_bits(mesh.images[i, k], r, th)
    theta = np.linspace(0.0, np.pi, 96)
    block = frame.q_points(theta / np.pi, [0.0, np.pi])
    for i, th in enumerate(theta):
        for k, end in enumerate((0.0, np.pi)):
            assert same_bits(block[i, k], th / np.pi, end)
    assert all(same_bits(u, 1.0, th) for u, th in zip(frame.q_points([1.0], theta)[0], theta))


def test_deform_surface_contracts(quartic_63, frame_63):
    mu0, frame = frame_63
    mesh = SurfaceMesh.identity_embedding(quartic_63, frame, 5, 9)
    js = mesh.energies(quartic_63)
    r0 = float(np.max(np.where(
        [[l is nf.RegionLabel.SIGN_CHANGING for l in row]
         for row in mesh.labels(quartic_63, mu0)], js, -np.inf)))
    cfg = nf.FlowConfig(mu0=mu0, t_max=0.5, tol_m=1e-3)
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
    cfg = nf.FlowConfig()
    return cfg, nf.minimax_iterate(quartic_63, frame, cfg, np.random.default_rng(9))


def test_minimax_converges(quartic_63, minimax_63):
    cfg, rep = minimax_63
    assert rep.converged
    assert rep.label is nf.RegionLabel.SIGN_CHANGING
    assert rep.candidate_slope <= cfg.tol_m
    assert nf.sign_changes(rep.candidate) == 1


def test_minimax_report_invariants(quartic_63, minimax_63):
    cfg, rep = minimax_63
    assert rep.alpha < rep.beta
    # the certified energy lies between beta and the identity surface's sup
    assert rep.candidate_energy == nf.energy(quartic_63, rep.candidate)
    assert rep.level_bracket == (rep.beta, rep.r_final + rep.mesh_tolerance)
    assert rep.level_consistent
    assert rep.beta <= rep.r_final + rep.mesh_tolerance
    assert rep.r_final >= rep.beta - rep.mesh_tolerance
    space = quartic_63.space
    for sign in (1, -1):
        assert nf.project_cone(space, rep.candidate, sign).distance > 0.45
    assert np.any(rep.candidate > 0) and np.any(rep.candidate < 0)
    text = dumps(rep.to_dict())
    assert '"r_final"' in text and '"level_consistent": true' in text


def test_surface_points_are_labelled_once(quartic_63, frame_63, monkeypatch):
    mu0, frame = frame_63
    calls = []
    real = linking.region_of
    monkeypatch.setattr(linking, "region_of",
                        lambda space, u, mu: calls.append(1) or real(space, u, mu))
    mesh = SurfaceMesh.identity_embedding(quartic_63, frame, 5, 9)
    # the boundary's frozen/wcon split reads the same labels as the minimax
    assert len(calls) == 5 * 9
    assert np.array_equal(mesh.changing, [[lbl is nf.RegionLabel.SIGN_CHANGING for lbl in row]
                                          for row in mesh.labels(quartic_63, mu0)])
    labelled = []
    real_labels = SurfaceMesh.labels
    monkeypatch.setattr(SurfaceMesh, "labels", lambda self, *args:
                        labelled.append(1) or real_labels(self, *args))
    monkeypatch.setattr(linking, "SURFACE_NR", 5)
    monkeypatch.setattr(linking, "SURFACE_NT", 9)
    nf.minimax_iterate(quartic_63, frame, nf.FlowConfig(), np.random.default_rng(9))
    assert len(labelled) == 1


def test_report_maximizer_is_the_argmax_when_a_retry_succeeds(quartic_63, frame_63,
                                                             minimax_63, monkeypatch):
    mu0, frame = frame_63
    cfg, rep = minimax_63
    tried = []
    real_classify = linking._classify_descent

    def classify(prob, u0, *args, **kwargs):
        tried.append(u0)
        if len(tried) == 1:
            return "unresolved", None, None
        return real_classify(prob, u0, *args, **kwargs)

    monkeypatch.setattr(linking, "_classify_descent", classify)
    retried = nf.minimax_iterate(quartic_63, frame, cfg, np.random.default_rng(9))
    mesh = SurfaceMesh.identity_embedding(quartic_63, frame, linking.SURFACE_NR,
                                          linking.SURFACE_NT)
    js = np.where(mesh.changing, mesh.energies(quartic_63), -np.inf)
    i, k = np.unravel_index(np.argmax(js), js.shape)
    assert np.array_equal(tried[0], mesh.images[i, k])
    assert retried.converged and retried.r_final == js[i, k] == rep.r_final
    assert retried.maximizer_param == (mesh.rho[i], mesh.theta[k]) == rep.maximizer_param
    assert np.array_equal(retried.maximizer, tried[0])
    assert retried.mesh_tolerance == rep.mesh_tolerance


def test_minimax_mesh_refinement_stability(quartic_63, frame_63, minimax_63, monkeypatch):
    mu0, frame = frame_63
    cfg, rep_coarse = minimax_63
    monkeypatch.setattr(linking, "SURFACE_NR", 13)
    monkeypatch.setattr(linking, "SURFACE_NT", 49)
    rep_fine = nf.minimax_iterate(quartic_63, frame, cfg, np.random.default_rng(9))
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


def test_minimax_snapshot_callback(quartic_63, frame_63, monkeypatch):
    mu0, frame = frame_63
    seen = []
    monkeypatch.setattr(linking, "SURFACE_NR", 5)
    monkeypatch.setattr(linking, "SURFACE_NT", 9)
    nf.minimax_iterate(quartic_63, frame, nf.FlowConfig(), np.random.default_rng(9),
                       snapshot=lambda it, mesh: seen.append(it))
    # the identity surface is the only one
    assert seen == [0]


def test_t_sphere_sampling_is_m_orthogonal(quartic_63, frame_63):
    mu0, frame = frame_63
    space = quartic_63.space
    for v in nf.sample_t_sphere(space, frame, 8, np.random.default_rng(2)):
        assert abs(space.l2_inner(v, frame.phi1)) <= 1e-10
        assert space.h1_norm(v) == pytest.approx(frame.delta_t, rel=1e-10)


# -- separatrix extraction ------------------------------------------------------


@pytest.fixture(scope="module")
def odd_ray(quartic_127):
    """The odd-ray segment [3 phi2, 6 phi2] of the shooting test, classified.

    The dip floor is half the shooting oracle's level, which screens out the
    approach to 0 of the trajectories that end in a cone (as the positive-
    solution test screens its dips); at a floor of 1.0, Newton corrects the
    first improved dips to 0.
    """
    space = quartic_127.space
    phi2 = space.eigenpairs(2)[1][1]
    floor = 0.5 * shooting_sign_changing(1.0, space.grid.coords().ravel())[1]
    cfg = nf.FlowConfig()
    a, b = 3.0 * phi2, 6.0 * phi2
    ka = _classify_descent(quartic_127, a, cfg, 0.3, -1e5, dip_floor=floor)[0]
    kb = _classify_descent(quartic_127, b, cfg, 0.3, -1e5, dip_floor=floor)[0]
    assert ka != kb
    return a, b, ka, kb, cfg, floor


def _bisect(prob, odd_ray):
    a, b, ka, _, cfg, floor = odd_ray
    counts = dict.fromkeys(EXTRACTION_COUNTS, 0)
    state = _bisect_separatrix(prob, a, b, ka, cfg, 0.3, -1e5, dip_floor=floor,
                               counts=counts)
    return state, counts


def _assert_certified(prob, state, tol_m):
    assert state.label is nf.RegionLabel.SIGN_CHANGING
    assert (1.0 + state.norm) * nf.slope(prob, state.u).value <= tol_m


def test_bisection_stops_at_the_first_certified_newton_point(quartic_127, odd_ray,
                                                             monkeypatch):
    cfg = odd_ray[4]
    state, counts = _bisect(quartic_127, odd_ray)
    assert counts["rounds"] <= 2
    _assert_certified(quartic_127, state, cfg.tol_m)

    # a full bisection with every corrected point rejected polishes each
    # improved dip once, as it appears, and nothing after the last round
    dips, polished = [], []
    real_classify = linking._classify_descent

    def classify(*args, **kwargs):
        outcome = real_classify(*args, **kwargs)
        dips.append(outcome[2])
        return outcome

    monkeypatch.setattr(linking, "_classify_descent", classify)
    monkeypatch.setattr(linking, "_newton_polish", lambda prob, u, tol_m:
                        polished.append(u) or None)
    full, full_counts = _bisect(quartic_127, odd_ray)
    assert full is None and len(dips) == linking.BISECT_ROUNDS
    improved, best = [], np.inf
    for dip in dips:
        if dip is not None and (1.0 + dip.norm) * dip.m < best:
            best = (1.0 + dip.norm) * dip.m
            improved.append(dip.u)
    assert len(polished) == len(improved) == full_counts["newton"]
    assert all(np.array_equal(p, q) for p, q in zip(polished, improved))
    assert full_counts == dict(rounds=linking.BISECT_ROUNDS, newton=len(improved),
                               off_label=0, off_window=0)
    # the early stop lands where polishing the best dip of 40 rounds lands
    u_best = _newton_polish(quartic_127, improved[-1], cfg.tol_m)
    scale = np.max(np.abs(u_best))
    assert np.max(np.abs(state.u - u_best)) <= 1e-8 * scale


@pytest.mark.parametrize("reject", ["off_label", "off_window"])
def test_bisection_goes_on_past_a_rejected_newton_point(quartic_127, odd_ray,
                                                        monkeypatch, reject):
    space = quartic_127.space
    lam4, phi4 = space.eigenpairs(4)[3]
    # 0 lies in both cones; the ray maximum of phi4 is sign-changing, with
    # energy far above any dip of the segment
    wrong = (space.zero_field() if reject == "off_label"
             else np.sqrt(lam4 / np.sum(space.M_diag * phi4**4)) * phi4)
    calls = []

    def first_wrong(prob, u, tol_m):
        calls.append(u)
        return wrong.copy() if len(calls) == 1 else _newton_polish(prob, u, tol_m)

    monkeypatch.setattr(linking, "_newton_polish", first_wrong)
    state, counts = _bisect(quartic_127, odd_ray)
    assert state is not None and len(calls) >= 2 and counts[reject] == 1
    _assert_certified(quartic_127, state, odd_ray[4].tol_m)
    assert nf.sign_changes(state.u) == 1
