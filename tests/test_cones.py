import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodalflow as nf
from nodalflow import cones
from nodalflow._serial import dumps
from nodalflow.cones import _active_set
from nodalflow.config import parse_potential
from oracles import enum_project_cone

# The field of a Schauder-stage projection (1D n=63, two_slope:1,2, lambda 1,
# seed 1) on which the cold primal-dual active set for -P alternates between
# two sets from iteration 4 on; v and r are ~1e-22 on the node that flips.
CYCLING_FIELD = np.array([
    2.9216358535848177e-10, 5.794509791768424e-10, 8.977008571386196e-10,
    1.250254954258183e-09, 1.6009668716763053e-09, 1.9023725894709502e-09,
    2.203871217932515e-09, 2.5270328576580387e-09, 2.8503315398646276e-09,
    2.971816069915578e-09, 3.0999733682803162e-09, 3.5627386851946293e-09,
    4.047115982296794e-09, 4.5314866103209895e-09, 4.832990494188844e-09,
    5.139764809580761e-09, 5.46007735437165e-09, 5.74984113492008e-09,
    5.945061418269554e-09, 6.150215580913575e-09, 6.416271857212274e-09,
    6.681725382322806e-09, 6.94722178447982e-09, 7.212717761630826e-09,
    7.477728298292294e-09, 7.717986027938105e-09, 7.958727190255436e-09,
    8.201865072770954e-09, 8.075490943939679e-09, 7.969278238062737e-09,
    7.935871906701158e-09, 7.910015533855281e-09, 7.909061638011472e-09,
    7.920002711880984e-09, 7.929973890676353e-09, 7.769504113804981e-09,
    7.609034336933627e-09, 7.357282427062683e-09, 7.105270656906019e-09,
    6.842843870961729e-09, 6.416919319945267e-09, 5.995916240118202e-09,
    5.57491315949457e-09, 5.170421180975082e-09, 4.8097359007358995e-09,
    4.452992734350265e-09, 4.099583309531367e-09, 3.7100302229615585e-09,
    3.3201106909563337e-09, 2.8865823531556044e-09,
    2.4787499074841667e-09, 2.0666599102671105e-09,
    1.6873236466184621e-09, 1.3079943701457188e-09, 9.839074006310906e-10,
    7.141265300589191e-10, 4.342384755060783e-10, 1.66209527535264e-10,
    7.167914484689623e-11, -2.1116518025078262e-11,
    -2.5232958274403436e-10, -1.7962561594586453e-10,
    -8.978617054906537e-11,
])


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
    # the 1D grid takes the concave majorant, the 2D grid the active set
    for grid in (nf.GridSpec.interval(0.0, 1.0, 4),
                 nf.GridSpec.rectangle([(0.0, 1.5), (0.0, 1.0)], (3, 2))):
        space = nf.build_space(grid)
        A = space.A.toarray()
        for sign in (1, -1):
            for _ in range(25):
                u = rng.normal(size=space.dim) * rng.uniform(0.5, 3.0)
                pr = nf.project_cone(space, u, sign)
                v_oracle, dist_oracle = enum_project_cone(A, sign * u)
                assert np.allclose(pr.projection, sign * v_oracle, atol=1e-9)
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
    def dists(u):
        return tuple(nf.project_cone(space_63, u, sign).distance for sign in (1, -1))

    assert dists(space_63.zero_field()) == (0.0, 0.0)
    d = dists(phi1)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(np.sqrt(lam1), abs=1e-8)
    dp, dm = dists(phi2)
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
    rep_b, _ = nf.check_schauder(big, 0.4, (0.0, 0.0), 30, np.random.default_rng(5))
    rep_s, _ = nf.check_schauder(small, 0.4, (0.0, 0.0), 30, np.random.default_rng(5))
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
    fit = nf.fit_mu0(quartic_63, np.random.default_rng(1))
    assert 0 < fit.mu0 < 1
    rep_p, rep_m = nf.check_schauder(quartic_63, fit.mu0, fit.c, 60, rng)
    for rep in (rep_p, rep_m):
        assert rep.passed
        assert rep.worst_ratio <= 0.5 + 1e-6
        assert rep.inequality_ok
    text = dumps(rep_p.to_dict())
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


@settings(max_examples=60)
@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=10), st.sampled_from([1, -1]))
def test_1d_projection_matches_enumeration_oracle(values, sign):
    u = np.asarray(values)
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, len(u)))
    pr = nf.project_cone(space, u, sign)
    v_oracle, dist_oracle = enum_project_cone(space.A.toarray(), sign * u)
    scale = max(1.0, float(np.max(np.abs(u))))
    assert np.allclose(pr.projection, sign * v_oracle, rtol=0.0, atol=1e-9 * scale)
    assert pr.distance == pytest.approx(dist_oracle, abs=1e-9 * scale)


def test_1d_projection_certifies_sign_changing_fields_at_n1023(rng):
    # the active set needs up to ~n/4.6 iterations on smooth fields, more
    # than ACTIVE_SET_MAX_ITER
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, 1023))
    x = space.grid.coords()[:, 0]
    fields = [np.sin(2 * np.pi * x), np.cos(3 * np.pi * x), np.sin(2 * np.pi * x) + 0.3,
              np.sin(np.pi * x) - 0.5, rng.normal(size=space.dim)]
    for u in fields:
        for sign in (1, -1):
            pr = nf.project_cone(space, u, sign)
            assert pr.kkt_residual <= 1e-9 * max(1.0, np.max(np.abs(u)))
            assert np.all(sign * pr.projection >= 0.0) and pr.distance > 0.0
            inner = abs(space.h1_inner(pr.residual, pr.projection))
            assert inner <= 1e-8 * space.h1_norm(u) ** 2


def test_active_set_returns_a_certified_iterate_when_it_cycles(space_63):
    pr = _active_set(space_63, CYCLING_FIELD, -1)
    # iteration 6 yields iteration 5's active set again, so the cycle guard ends it
    assert pr.iterations == 6
    assert pr.kkt_residual <= 1e-9
    assert np.all(pr.projection <= 0.0)
    hull = nf.project_cone(space_63, CYCLING_FIELD, -1)
    scale = np.max(np.abs(CYCLING_FIELD))
    assert np.allclose(pr.projection, hull.projection, rtol=0.0, atol=1e-12 * scale)


# -- the bound screen of region_of ---------------------------------------------

SCREEN_SPACES = {
    "1d": nf.build_space(nf.GridSpec.interval(0.0, 1.0, 63)),
    "1d_even": nf.build_space(nf.GridSpec.interval(0.0, 1.0, 64)),
    "2d": nf.build_space(nf.GridSpec.rectangle([(0.0, 1.4), (0.0, 1.0)], (7, 5))),
    "2d_even": nf.build_space(nf.GridSpec.rectangle([(0.0, 1.4), (0.0, 1.0)], (8, 6))),
}


def _screen_field(space, seed, kind):
    """A random, eigenmode or mixed field; a single mode k=1 makes both
    distance bounds tight."""
    rng = np.random.default_rng(seed)
    modes = [vec for _, vec in space.eigenpairs(6)]
    if kind == "random":
        return rng.normal(size=space.dim) * rng.uniform(0.01, 5.0)
    if kind == "mode":
        return rng.normal() * modes[rng.integers(0, len(modes))]
    return (sum(c * m for c, m in zip(rng.normal(size=3), modes))
            + rng.uniform(0.0, 0.2) * rng.normal(size=space.dim))


def _bounds(space, u, sign):
    neg = np.minimum(sign * u, 0.0)
    return (np.sqrt(space.lambda1 * (neg @ (space.M_diag * neg))),
            np.sqrt(neg @ (space.A @ neg)))


def _projected_label(space, u, mu0):
    near = tuple(nf.project_cone(space, u, sign).distance <= mu0 for sign in (1, -1))
    return {(True, True): nf.RegionLabel.OVERLAP, (True, False): nf.RegionLabel.POSITIVE,
            (False, True): nf.RegionLabel.NEGATIVE,
            (False, False): nf.RegionLabel.SIGN_CHANGING}[near]


@settings(max_examples=150)
@given(st.sampled_from(sorted(SCREEN_SPACES)), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "mode", "mixed"]), st.sampled_from([1, -1]),
       st.sampled_from([None, 1.0 - 1e-9, 1.0 + 1e-9]), st.floats(0.05, 0.95))
def test_screened_region_equals_the_projected_label(geometry, seed, kind, sign, edge, mu0):
    space = SCREEN_SPACES[geometry]
    u = _screen_field(space, seed, kind)
    if edge is not None:
        # scale u so that dist(u, sign*P) = mu0 * (1 -+ 1e-9): on the edge of D
        d = nf.project_cone(space, u, sign).distance
        if d > 0.0:
            u = u * (mu0 * edge / d)
    assert nf.region_of(space, u, mu0) is _projected_label(space, u, mu0)


@settings(max_examples=150)
@given(st.sampled_from(sorted(SCREEN_SPACES)), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "mode", "mixed"]), st.sampled_from([1, -1]))
def test_cone_distance_bounds_hold(geometry, seed, kind, sign):
    # sqrt(lambda1) |u^-|_M <= dist(u, P) <= |u^-|_A, up to the screen's slack
    space = SCREEN_SPACES[geometry]
    u = _screen_field(space, seed, kind)
    lo, hi = _bounds(space, u, sign)
    d = nf.project_cone(space, u, sign).distance
    margin = cones.SCREEN_ROUNDING * np.finfo(float).eps * space.condition
    assert lo * (1.0 - margin) <= d <= hi * (1.0 + margin)


@settings(max_examples=200)
@given(st.sampled_from(sorted(SCREEN_SPACES)), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "mode", "mixed"]), st.sampled_from([1, -1]))
def test_dual_bounds_bracket_the_projected_distance(geometry, seed, kind, sign):
    # with n = u^-, g = M n, y = A^-1 g: |n|_M^2 / sqrt(g.y) <= dist(u, P) <=
    # |max(t y, n)|_A for every t >= 0, up to the screen's slack (twice it
    # below); the tier's bounds nest inside the free ones
    space = SCREEN_SPACES[geometry]
    u = _screen_field(space, seed, kind)
    d = nf.project_cone(space, u, sign).distance
    margin = cones.SCREEN_ROUNDING * np.finfo(float).eps * space.condition
    n = np.maximum(-sign * u, 0.0)
    tier = cones._ConeDistance(space, u, sign)
    assert tier.lower <= tier.dual_lower <= d <= tier.dual_upper <= tier.upper
    if not n.any():
        assert d == tier.dual_lower == tier.dual_upper == 0.0
        return
    g = space.M_diag * n
    y = space.solve(g)
    assert n @ g / np.sqrt(g @ y) * (1.0 - 2.0 * margin) <= d
    t0 = (n @ g) / (g @ y)
    for t in (0.0, 0.25 * t0, t0, 3.0 * t0):
        w = np.maximum(t * y, n)
        assert d <= np.sqrt(w @ (space.A @ w)) * (1.0 + margin)


# -- the bound screen of the invariance checker and the frame scan -------------

CHECKER_SPACES = {
    "1d": nf.build_space(nf.GridSpec.interval(0.0, 1.0, 31)),
    "2d": nf.build_space(nf.GridSpec.rectangle([(0.0, 1.4), (0.0, 1.0)], (7, 5))),
}
# power:3 at lambda 100 is the one problem here whose fit gives C > 0, so
# that mu0 comes from the fit; the others take fit_mu0's 0.45 fallback
CHECKER_PROBLEMS = [("power:4", 1.0), ("power:4", 16.0), ("two_slope:1,2", 1.0),
                    ("power:3", 100.0)]


def _checker_run(prob, seed, mu0_probe):
    """fit_mu0, check_schauder at the fitted and at a given mu0, and
    build_frame, from fixed streams."""
    fit = nf.fit_mu0(prob, np.random.default_rng(seed))
    reports = [dumps(rep.to_dict()) for m in (fit.mu0, mu0_probe)
               for rep in nf.check_schauder(prob, m, fit.c, 12, np.random.default_rng(seed + 1))]
    try:
        frame = nf.build_frame(prob, fit.mu0, np.random.default_rng(seed + 2))
    except nf.NoLinkingWindow as exc:
        frame = str(exc)
    return fit, reports, frame


def _projecting_every_comparison(monkeypatch):
    """Make every distance bound, free and dual, the projected distance itself."""
    init = cones._ConeDistance.__init__

    def projecting_init(self, *args):
        init(self, *args)
        self.lower = self.upper = self.dual_lower = self.dual_upper = self.exact

    monkeypatch.setattr(cones._ConeDistance, "__init__", projecting_init)


def _same_frame(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("phi1", "phi2", "lam1", "lam2", "radius", "delta_t", "mu0"))


@settings(max_examples=30)
@given(st.sampled_from(sorted(CHECKER_SPACES)), st.sampled_from(CHECKER_PROBLEMS),
       st.integers(0, 2**32 - 4), st.sampled_from([0.2, 0.5, 0.9]))
def test_screened_checker_equals_the_projecting_one(geometry, problem, seed, mu0_probe):
    # at mu0 0.5 and 0.9, power:3 at lambda 100 also fails the ratio or the
    # inequality for some streams, so both outcomes of each test are compared
    spec, lam = problem
    prob = nf.EnergyProblem(CHECKER_SPACES[geometry], parse_potential(spec), lam)
    fit, reports, frame = _checker_run(prob, seed, mu0_probe)
    with pytest.MonkeyPatch.context() as mp:
        _projecting_every_comparison(mp)
        fit_all, reports_all, frame_all = _checker_run(prob, seed, mu0_probe)
    assert fit == fit_all and reports == reports_all
    assert _same_frame(frame, frame_all)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, -1]), st.floats(0.1, 0.9))
def test_checker_decides_each_comparison_as_a_projection_would(seed, sign, mu0):
    # samples and images drawn so that many comparisons fall between the two
    # distance bounds of an image, where only the projected distance decides
    space = CHECKER_SPACES["1d"]
    prob = nf.EnergyProblem(space, parse_potential("power:3"), 1.0)
    rng = np.random.default_rng(seed)

    def field(dist):
        """A field at distance dist from sign*P."""
        while True:
            u = _screen_field(space, int(rng.integers(2**32)), ("random", "mode", "mixed")[
                int(rng.integers(3))])
            d = nf.project_cone(space, u, sign).distance
            if d > 0.0:
                return u * (dist / d)

    samples, images = ([], []), {}
    for i in range(12):
        u = field(rng.uniform(0.1, 1.0))
        d = cones._ConeDistance(space, u, sign)
        samples[i % 2].append((u, d))
        images[u.tobytes()] = [field(rng.uniform(0.2, 3.0) * d.exact / 3.0) for _ in range(4)]

    def run():
        # the fit's ladder of distances draws one set, the fresh samples the other
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_boundary_samples",
                       lambda prob, sign, distances, *args: samples[len(distances) == 1])
            mp.setattr(cones, "_selection_images", lambda prob, u, rng: images[u.tobytes()])
            fit = nf.fit_mu0(prob, rng)
            reports = nf.check_schauder(prob, mu0, fit.c, 1, rng)
            return fit, [dumps(rep.to_dict()) for rep in reports]

    screened = run()
    with pytest.MonkeyPatch.context() as mp:
        _projecting_every_comparison(mp)
        assert run() == screened


@pytest.mark.parametrize("n", [(39, 19), (16, 8)])
def test_checker_projects_one_image_and_one_witness_per_sign(n, monkeypatch):
    # the worst ratio is taken by branch and bound over the images' upper
    # bounds; a running maximum in draw order projected 6 to 20 of them
    space = nf.build_space(nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], n))
    prob = nf.EnergyProblem(space, parse_potential("power:4"), 1.0)
    signs = []
    project = cones.project_cone
    monkeypatch.setattr(cones, "project_cone", lambda space, u, sign, *args:
                        signs.append(sign) or project(space, u, sign, *args))
    for seed in range(5):
        signs.clear()
        nf.check_schauder(prob, 0.45, (0.0, 0.0), cones.SCHAUDER_SAMPLES,
                          np.random.default_rng(seed))
        assert signs.count(1) <= 2 and signs.count(-1) <= 2


@pytest.mark.parametrize("sign", [1, -1])
def test_tied_worst_images_keep_the_earlier_witness(sign, monkeypatch):
    # two images with one projected distance; the later one has the larger
    # upper bounds, so the search meets it first, and the witness must still
    # be the sample of the image drawn first
    space = CHECKER_SPACES["1d"]
    prob = nf.EnergyProblem(space, parse_potential("power:3"), 1.0)
    samples = [(u, cones._ConeDistance(space, u, sign))
               for u in (_screen_field(space, 1, "mixed"), _screen_field(space, 2, "mixed"))]
    first = _screen_field(space, 3, "mixed")
    images = {samples[0][0].tobytes(): [first], samples[1][0].tobytes(): [2.0 * first]}
    project = cones.project_cone

    def tied(space, u, sign, *args):
        return project(space, first if np.array_equal(u, 2.0 * first) else u, sign, *args)

    monkeypatch.setattr(cones, "_boundary_samples", lambda *args: samples)
    monkeypatch.setattr(cones, "_selection_images", lambda prob, u, rng: images[u.tobytes()])
    monkeypatch.setattr(cones, "project_cone", tied)
    mu0 = 0.3
    rep = nf.check_schauder(prob, mu0, (1e9, 1e9), 1, np.random.default_rng(0))[sign == -1]
    later, earlier = (cones._ConeDistance(space, img, sign) for img in (2.0 * first, first))
    assert later.upper > earlier.upper and later.dual_upper > earlier.dual_upper
    assert rep.worst_ratio == project(space, first, sign).distance / mu0 > 0.0
    assert rep.witness_distance == samples[0][1].exact != samples[1][1].exact


def test_some_checker_problem_fits_a_positive_constant():
    # the screen is also checked where the fitted C and mu0 are not trivial
    prob = nf.EnergyProblem(CHECKER_SPACES["1d"], parse_potential("power:3"), 100.0)
    fit = nf.fit_mu0(prob, np.random.default_rng(0))
    assert 0 < fit.mu0 < 0.45


@settings(max_examples=60)
@given(st.sampled_from(sorted(SCREEN_SPACES)), st.integers(0, 2**32 - 1),
       st.integers(1, 12))
def test_min_dist_to_cones_equals_the_projected_minimum(geometry, seed, count):
    space = SCREEN_SPACES[geometry]
    fields = [_screen_field(space, seed + i, ("random", "mode", "mixed")[i % 3])
              for i in range(count)]
    assert cones.min_dist_to_cones(space, fields) == min(
        nf.project_cone(space, u, sign).distance for u in fields for sign in (1, -1))


def test_rect_solve_projects_few_distances(tmp_path, monkeypatch):
    # the 39x19 rectangle solve (power:4, lambda 1, seed 1): with the dual
    # tier the frame scan projects 2 of its 64 T directions and no label is
    # projected; the free bounds alone project 41 directions and 76 distances
    # in all
    from nodalflow import cli
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"dimension": 2, "bounds": [[0.0, 2.0], [0.0, 1.0]], "n": [39, 19]},
        "potential": "power:4", "lambda": 1.0, "seed": 1,
        "output_dir": str(tmp_path / "out")}))
    stage, calls = [None], []
    project = cones.project_cone
    monkeypatch.setattr(cones, "project_cone", lambda *args, **kwargs:
                        calls.append(stage[0]) or project(*args, **kwargs))
    build_frame = cli.build_frame

    def framing(*args):
        stage[0] = "frame"
        try:
            return build_frame(*args)
        finally:
            stage[0] = None

    monkeypatch.setattr(cli, "build_frame", framing)
    assert cli.main(["solve", "--config", str(config)]) == 0
    assert calls.count("frame") <= 5
    assert len(calls) <= 30


# -- Moreau's polar test in project_cone --------------------------------------

POLAR_SPACES = {
    "1d": nf.build_space(nf.GridSpec.interval(0.0, 1.0, 63)),
    "1d_even": nf.build_space(nf.GridSpec.interval(0.0, 1.0, 64)),
    "2d": nf.build_space(nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (15, 7))),
    "2d_even": nf.build_space(nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (16, 8))),
}


def _cold_projection(space, u, sign):
    """The projection by the hull (1D) or the active set (2D), without the polar test."""
    if space.grid.dimension == 1:
        return cones._certify(space, u, sign, *cones._concave_majorant(sign * u), 1)
    return _active_set(space, u, sign)


@pytest.mark.parametrize("geometry", sorted(POLAR_SPACES))
@pytest.mark.parametrize("seed", range(4))
def test_polar_path_equals_the_norm_and_the_cold_projection(geometry, seed):
    # u = A^-1 f with f >= 0 lies in P with A u >= 0, so 0 is its projection
    # onto -P and dist(u, -P) = |u|_A
    space = POLAR_SPACES[geometry]
    f = np.abs(np.random.default_rng(seed).normal(size=space.dim)) + 0.1
    for sign in (1, -1):
        u = sign * space.solve(f)
        au = space.A @ u
        assert np.all(sign * au >= 0.0)
        cold = _cold_projection(space, u, -sign)
        for pr in (nf.project_cone(space, u, -sign, au), nf.project_cone(space, u, -sign)):
            assert pr.distance == space.h1_norm(u) == cold.distance
            assert pr.projection.tobytes() == cold.projection.tobytes()
            assert pr.residual.tobytes() == cold.residual.tobytes()
            assert pr.kkt_residual == cold.kkt_residual == 0.0
            assert pr.active.all() and cold.active.all()


@pytest.mark.parametrize("geometry", sorted(POLAR_SPACES))
def test_a_field_in_p_failing_the_polar_test_is_projected_cold(geometry, monkeypatch):
    space = POLAR_SPACES[geometry]
    _, phi2 = space.eigenpairs(2)[1]
    u = np.maximum(phi2, 0.0)   # A u < 0 where u meets 0
    au = space.A @ u
    assert np.all(u >= 0.0) and au.min() < 0.0
    calls = []
    for name in ("_concave_majorant", "_active_set"):
        real = getattr(cones, name)
        monkeypatch.setattr(cones, name, lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    pr = nf.project_cone(space, u, -1, au)
    assert calls == ["_concave_majorant" if space.grid.dimension == 1 else "_active_set"]
    assert 0.0 < pr.distance < space.h1_norm(u)
    assert pr.distance == nf.project_cone(space, u, -1).distance
