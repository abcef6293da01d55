import base64
import copy
import json
import math
import pickle
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodalflow as nf
from nodalflow import cones, flow
from nodalflow.flow import ARMIJO_C1, DT_MAX, load_checkpoint, save_checkpoint
from oracles import newton_discrete


def test_flow_config_validation():
    with pytest.raises(ValueError):
        nf.FlowConfig(tol_m=0.0)


def test_pseudo_gradient_contracts(quartic_63, rng):
    space = quartic_63.space
    assert np.array_equal(nf.pseudo_gradient(quartic_63, space.zero_field()),
                          space.zero_field())
    for _ in range(40):
        u = rng.normal(size=63) * rng.uniform(0.2, 3.0)
        res = nf.slope(quartic_63, u)
        if res.value == 0:
            continue
        v = nf.pseudo_gradient(quartic_63, u, res)
        norm_u = space.h1_norm(u)
        # norm bound ||v|| <= 2(1+||u||), here exactly (1+||u||)min(m,1)
        assert space.h1_norm(v) <= 2.0 * (1.0 + norm_u) + 1e-9
        # angle bound <g*, v> = (1+||u||) m^2 / max(m,1) > 0
        angle = float(res.certificate @ v)
        assert angle > 0
        assert angle == pytest.approx(
            (1.0 + norm_u) * res.value**2 / max(res.value, 1.0), rel=1e-9)
        # smooth case: direction parallel to the Riesz gradient
        cos = angle / (space.h1_norm(v) * res.value)
        assert cos == pytest.approx(1.0, rel=1e-9)


def test_flow_from_critical_point(quartic_63, space_63):
    cfg = nf.FlowConfig(mu0=0.3)
    traj = nf.integrate_flow(quartic_63, space_63.zero_field(), cfg)
    assert len(traj.states) == 1
    assert traj.termination is nf.Termination.SLOPE_BELOW_TOL
    # a constant critical trajectory is trivially invariant
    assert nf.monitor_invariance(traj, 0.3).passed


def test_flow_descent_inequality(quartic_63, rng):
    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=30.0)
    u0 = 2.0 * quartic_63.space.eigenpairs(2)[1][1]
    traj = nf.integrate_flow(quartic_63, u0, cfg)
    space = quartic_63.space
    slack = 5e-14
    for a, b in zip(traj.states, traj.states[1:]):
        assert b.j <= a.j
        required = ARMIJO_C1 * b.dt_used * a.m**2 / (1.0 + space.h1_norm(a.u))
        assert a.j - b.j >= required - slack * (1.0 + abs(a.j))


def test_flow_gronwall_bound(quartic_63, rng):
    space = quartic_63.space
    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=5.0, max_steps=4000)
    for scale in (0.5, 4.0):
        u0 = rng.normal(size=63) * scale
        traj = nf.integrate_flow(quartic_63, u0, cfg)
        norm0 = space.h1_norm(u0)
        for s in traj.states:
            assert space.h1_norm(s.u) <= (norm0 + 1.0) * np.exp(2.0 * s.t) + 1e-9


def test_flow_cone_invariance(quartic_63, rng):
    space = quartic_63.space
    mu0 = 0.35
    cfg = nf.FlowConfig(mu0=mu0, tol_m=1e-6, t_max=40.0)
    for sign in (1, -1):
        for _ in range(10):
            p = np.abs(rng.normal(size=63))
            p *= rng.uniform(0.3, 2.0) / space.h1_norm(p)
            e = rng.normal(size=63)
            e /= space.h1_norm(e)
            u0 = sign * p + rng.uniform(0.0, 0.9 * mu0) * e
            if nf.project_cone(space, u0, sign).distance > mu0:
                continue
            traj = nf.integrate_flow(quartic_63, u0, cfg)
            verdict = nf.monitor_invariance(traj, mu0)
            assert verdict.cone_invariant, verdict.violations
            assert verdict.energy_monotone and verdict.gronwall_ok


def _recording(monkeypatch, module, calls):
    real = module.project_cone

    def record(space, u, sign=1, *args, **kwargs):
        calls.append((u.tobytes(), sign))
        return real(space, u, sign, *args, **kwargs)

    monkeypatch.setattr(module, "project_cone", record)


def test_flow_projects_only_where_the_bounds_straddle(quartic_63, monkeypatch):
    space = quartic_63.space
    mu0 = 0.3
    labelled, measured = [], []
    _recording(monkeypatch, cones, labelled)
    _recording(monkeypatch, flow, measured)
    traj = nf.integrate_flow(quartic_63, 3.0 * space.eigenpairs(2)[1][1],
                             nf.FlowConfig(mu0=mu0))
    margin = cones.SCREEN_ROUNDING * np.finfo(float).eps * space.condition
    free_straddling, straddling = [], []
    for s in traj.states:
        for sign in (1, -1):
            neg = np.minimum(sign * s.u, 0.0)
            lo = np.sqrt(space.lambda1 * (neg @ (space.M_diag * neg)))
            hi = np.sqrt(neg @ (space.A @ neg))
            if neg.any() and lo * (1.0 - margin) <= mu0 < hi * (1.0 + margin):
                free_straddling.append((s.u.tobytes(), sign))
                dual = cones._ConeDistance(space, s.u, sign)
                if dual.dual_lower <= mu0 < dual.dual_upper:
                    straddling.append((s.u.tobytes(), sign))
    # the flow from 3*phi2 decays to 0, so it crosses the neighborhood edges,
    # where the free bounds straddle mu0 and the dual bounds decide
    assert traj.states[0].label is nf.RegionLabel.SIGN_CHANGING
    assert traj.final.label is nf.RegionLabel.OVERLAP
    assert free_straddling and labelled == straddling and not measured

    # a distance is projected when first read, and then kept
    monkeypatch.undo()
    for s in traj.states:
        assert s.d_plus == nf.project_cone(space, s.u, 1).distance
        assert s.d_minus == nf.project_cone(space, s.u, -1).distance
    _recording(monkeypatch, flow, measured)
    assert [s.summary() for s in traj.states] and not measured


def test_flow_states_copy_and_pickle_with_their_distances(quartic_63):
    u0 = 1.5 * quartic_63.space.eigenpairs(1)[0][1]
    traj = nf.integrate_flow(quartic_63, u0, nf.FlowConfig(mu0=0.3, t_max=1.0))
    for copied in (copy.deepcopy(traj.states), pickle.loads(pickle.dumps(traj.states))):
        for a, b in zip(copied, traj.states, strict=True):
            assert a.summary() == b.summary() and np.array_equal(a.u, b.u)


def test_flow_states_carry_their_h1_norm(quartic_63, tmp_path, monkeypatch):
    space = quartic_63.space
    cfg = nf.FlowConfig(mu0=0.3, t_max=2.0, checkpoint_every=5)
    path = str(tmp_path / "ck.json")
    traj = nf.integrate_flow(quartic_63, 1.2 * space.eigenpairs(2)[1][1], cfg,
                             checkpoint_path=path)
    # the bits of space.h1_norm, kept by copies and pickles, not in summaries
    for s in traj.states:
        assert s.norm == space.h1_norm(s.u) and "norm" not in s.summary()
    for copied in (copy.deepcopy(traj.states), pickle.loads(pickle.dumps(traj.states))):
        assert [s.norm for s in copied] == [s.norm for s in traj.states]
    # a state loaded with its space carries it
    loaded = load_checkpoint(path, space).states
    assert [s.norm for s in loaded] == [s.norm for s in traj.states]
    # the descent classifier and the Gronwall check read the kept norms
    from nodalflow.linking import _classify_descent
    norms = []
    monkeypatch.setattr(space, "h1_norm", lambda u: norms.append(1) or 0.0)
    assert nf.monitor_invariance(traj, 0.3).gronwall_ok
    _classify_descent(quartic_63, 4.0 * space.eigenpairs(2)[1][1], nf.FlowConfig(),
                      0.3, -1e5, dip_floor=1.0)
    assert not norms


def test_monitor_flags_tampered_energy(quartic_63):
    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=20.0)
    u0 = 1.5 * quartic_63.space.eigenpairs(1)[0][1]
    traj = nf.integrate_flow(quartic_63, u0, cfg)
    bad = copy.deepcopy(traj)
    bad.states[3].j = bad.states[2].j + 5.0
    verdict = nf.monitor_invariance(bad, 0.3)
    assert not verdict.energy_monotone
    kinds = {(v["index"], v["kind"]) for v in verdict.violations}
    assert (4, "energy_increase") in kinds or (3, "energy_increase") in kinds


def test_monitor_cone_tol_is_keyword_only(quartic_63):
    # the monitor takes the trajectory and mu0 alone: a FlowConfig passed
    # after mu0, or a space passed first, must fail rather than pass silently
    cfg = nf.FlowConfig(mu0=0.3)
    traj = nf.integrate_flow(quartic_63, quartic_63.space.zero_field(), cfg)
    with pytest.raises(TypeError):
        nf.monitor_invariance(traj, 0.3, cfg)
    with pytest.raises(TypeError):
        nf.monitor_invariance(quartic_63.space, traj, 0.3, cfg)
    assert nf.monitor_invariance(traj, 0.3).passed


def test_flow_against_newton_oracle(quartic_63):
    # the positive solution is a saddle along the scaling ray inside the cone:
    # bracket it by terminal flow outcomes (decay to zero vs blow-up), track
    # the closest slope dip, polish, and compare with a damped-Newton oracle
    space = quartic_63.space
    pot = quartic_63.potential
    lam1, phi1 = space.eigenpairs(1)[0]
    u_newton = newton_discrete(space, pot, 1.0, 4.0 * phi1)
    assert u_newton is not None and np.all(u_newton > 0)
    j_pos = nf.energy(quartic_63, u_newton)

    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=25.0, j_floor=-100.0,
                        max_steps=8000)

    def outcome(c):
        traj = nf.integrate_flow(quartic_63, c * phi1, cfg)
        dips = [(s, (1 + space.h1_norm(s.u)) * s.m) for s in traj.states
                if s.j > 0.5 * j_pos]
        best = min(dips, key=lambda p: p[1])[0] if dips else None
        blown = traj.termination is nf.Termination.ENERGY_FLOOR or traj.final.j < -100
        return blown, best

    lo_c, hi_c = 2.0, 3.2
    assert outcome(lo_c)[0] is False and outcome(hi_c)[0] is True
    best_dip = None
    best_val = np.inf
    for _ in range(30):
        mid = 0.5 * (lo_c + hi_c)
        blown, dip = outcome(mid)
        if dip is not None:
            val = (1 + space.h1_norm(dip.u)) * dip.m
            if val < best_val:
                best_val, best_dip = val, dip
        if best_val < 0.05:
            break
        lo_c, hi_c = (lo_c, mid) if blown else (mid, hi_c)
    assert best_dip is not None

    from nodalflow.linking import _newton_polish
    u_star = _newton_polish(quartic_63, best_dip.u, 1e-6)
    assert u_star is not None
    assert space.h1_norm(u_star - u_newton) <= 1e-6 * space.h1_norm(u_newton)
    resid = space.A @ u_star - space.M_diag * u_star**3
    assert space.dual_norm(resid) <= 1e-6
    assert nf.region_of(space, u_star, 0.3) is nf.RegionLabel.POSITIVE


def test_sign_changing_flow_against_shooting(quartic_127):
    # odd-ray bisection lands on the one-node solution; energy matches the
    # two-interval shooting oracle
    from nodalflow.linking import _classify_descent, _bisect_separatrix
    from oracles import shooting_sign_changing
    space = quartic_127.space
    phi2 = space.eigenpairs(2)[1][1]
    cfg = nf.FlowConfig()
    a, b = 3.0 * phi2, 6.0 * phi2
    ka, _, _ = _classify_descent(quartic_127, a, cfg, 0.3, -1e5, dip_floor=1.0)
    kb, _, _ = _classify_descent(quartic_127, b, cfg, 0.3, -1e5, dip_floor=1.0)
    assert ka != kb
    state = _bisect_separatrix(quartic_127, a, b, ka, cfg, 0.3, -1e5, dip_floor=1.0)
    assert state is not None
    assert nf.sign_changes(state.u) == 1
    xs = space.grid.coords().ravel()
    u_oracle, j_oracle = shooting_sign_changing(1.0, xs)
    assert nf.energy(quartic_127, state.u) == pytest.approx(j_oracle, rel=0.01)
    scale = np.max(np.abs(u_oracle))
    assert np.max(np.abs(np.abs(state.u) - np.abs(u_oracle))) <= 5e-3 * scale


def test_checkpoint_roundtrip(quartic_63, tmp_path):
    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=10.0, checkpoint_every=5)
    u0 = 1.2 * quartic_63.space.eigenpairs(2)[1][1]
    path = str(tmp_path / "ck.json")
    traj = nf.integrate_flow(quartic_63, u0, cfg, checkpoint_path=path)
    states = load_checkpoint(path, quartic_63.space).states
    assert len(states) == len(traj.states)
    for a, b in zip(states, traj.states):
        assert a.j == b.j and a.t == b.t and a.u.tobytes() == b.u.tobytes()
        assert a.label == b.label


# values a decimal round trip is most likely to get wrong: signed zeros, the
# smallest subnormal, the extremes of the range and 17-digit reprs
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2, 1 / 3,
                2.0 ** 0.5, 2.2250738585072014e-308]


def _checkpoint_state(u, t):
    state = nf.FlowState(t, u, 1.0, 0.5, nf.RegionLabel.OVERLAP, 0.05, None, None)
    state.d_plus, state.d_minus = 0.25, 0.125
    return state


@settings(max_examples=60)
@given(dim=st.integers(1, 40), n_states=st.integers(1, 4), data=st.data())
def test_checkpoint_fields_round_trip_bit_for_bit(tmp_path_factory, dim, n_states, data):
    element = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64))
    fields = [np.array(data.draw(st.lists(element, min_size=dim, max_size=dim)),
                       dtype=np.float64) for _ in range(n_states)]
    path = tmp_path_factory.mktemp("ck") / "ck.json"
    states = [_checkpoint_state(u, float(i)) for i, u in enumerate(fields)]
    save_checkpoint(str(path), states, 0.05)
    # a one-node field fits no grid, and the format does not read the norms
    loaded = load_checkpoint(str(path), SimpleNamespace(h1_norm=lambda u: 0.0)).states
    assert [s.u.tobytes() for s in loaded] == [u.tobytes() for u in fields]
    assert all(s.u.dtype == np.float64 and s.u.flags.writeable for s in loaded)
    rows = [json.loads(ln) for ln in path.read_text().splitlines()[:-1]]
    # 8*dim bytes as base64, never a decimal list
    assert [len(r["u"]) for r in rows] == [4 * math.ceil(8 * dim / 3)] * n_states


@pytest.mark.parametrize("bad_u", [
    [0.0, 1.0, 2.0],                                          # decimal list, the old format
    "not*base64!",                                            # characters outside base64
    base64.b64encode(bytes(12)).decode(),                     # 12 bytes: 1.5 float64s
    base64.b64encode(np.zeros(4).tobytes()).decode(),         # a field of another grid
], ids=["decimal_list", "bad_base64", "partial_float", "other_length"])
def test_malformed_checkpoint_field_is_rejected(tmp_path, bad_u):
    path = tmp_path / "ck.json"
    save_checkpoint(str(path), [_checkpoint_state(np.arange(3.0), t) for t in (0.0, 1.0)],
                    0.05)
    first, second, commit = path.read_text().splitlines(keepends=True)
    row = json.loads(second)
    row["u"] = bad_u
    path.write_text(first + json.dumps(row, sort_keys=True) + "\n" + commit)
    with pytest.raises(ValueError, match="line 2 is neither a state row"):
        load_checkpoint(str(path), nf.build_space(nf.GridSpec.interval(0.0, 1.0, 3)))


def test_resume_matches_uninterrupted(quartic_63, tmp_path):
    u0 = 1.2 * quartic_63.space.eigenpairs(2)[1][1]
    full_cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=10.0, checkpoint_every=5)
    full = nf.integrate_flow(quartic_63, u0, full_cfg)

    cut_cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=10.0, checkpoint_every=5,
                            max_steps=7)
    path = str(tmp_path / "ck.json")
    nf.integrate_flow(quartic_63, u0, cut_cfg, checkpoint_path=path)
    resumed = nf.resume_flow(quartic_63, full_cfg, load_checkpoint(path, quartic_63.space))
    assert resumed.termination == full.termination
    assert len(resumed.states) == len(full.states)
    for a, b in zip(resumed.states, full.states):
        assert a.j == b.j and a.t == b.t and a.dt_used == b.dt_used
        assert np.array_equal(a.u, b.u)


def test_resume_past_t_max_labels_no_state(quartic_63, tmp_path, monkeypatch):
    u0 = 1.2 * quartic_63.space.eigenpairs(2)[1][1]
    cut_cfg = nf.FlowConfig(mu0=0.3, t_max=10.0, checkpoint_every=5, max_steps=7)
    path = str(tmp_path / "ck.json")
    cut = nf.integrate_flow(quartic_63, u0, cut_cfg, checkpoint_path=path)
    calls = []
    real = flow.region_of
    monkeypatch.setattr(flow, "region_of",
                        lambda space, u, mu0: calls.append(1) or real(space, u, mu0))
    resumed = nf.resume_flow(quartic_63, nf.FlowConfig(mu0=0.3, t_max=0.0),
                             load_checkpoint(path, quartic_63.space))
    assert resumed.termination is nf.Termination.MAX_TIME
    assert not calls
    # the head's norm has the bits of the uninterrupted state's
    assert resumed.final.norm == cut.final.norm
    assert resumed.to_csv() == cut.to_csv()


def test_torn_checkpoint_resumes_from_last_commit(quartic_63, tmp_path):
    u0 = 1.2 * quartic_63.space.eigenpairs(2)[1][1]
    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=10.0, checkpoint_every=5)
    path = tmp_path / "ck.json"
    full = nf.integrate_flow(quartic_63, u0, cfg, checkpoint_path=str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    commits = [i for i, ln in enumerate(lines) if b'"u"' not in ln]
    assert len(commits) >= 3
    # cut inside the row after the commit of step 10, and again after two
    # whole rows past that commit
    last = commits[1]
    for cut in (b"".join(lines[:last + 1]) + lines[last + 1][:100],
                b"".join(lines[:last + 3])):
        torn = tmp_path / "torn.json"
        torn.write_bytes(cut)
        loaded = load_checkpoint(str(torn), quartic_63.space)
        states, dt_next = loaded.states, loaded.dt_next
        assert len(states) == 11
        for a, b in zip(states, full.states):
            assert a.summary() == b.summary() and np.array_equal(a.u, b.u)
        assert dt_next == min(1.5 * full.states[10].dt_used, DT_MAX)
        resumed = nf.resume_flow(quartic_63, cfg, load_checkpoint(str(torn), quartic_63.space))
        assert resumed.termination == full.termination
        assert resumed.to_csv(("h",)) == full.to_csv(("h",))


def test_resume_copies_the_committed_prefix(quartic_63, tmp_path):
    u0 = 1.2 * quartic_63.space.eigenpairs(2)[1][1]
    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=10.0, checkpoint_every=5)
    path = tmp_path / "ck.json"
    nf.integrate_flow(quartic_63, u0, cfg, checkpoint_path=str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    commits = [i for i, ln in enumerate(lines) if b'"u"' not in ln]
    # the source: two commits, then a row torn inside
    prefix = b"".join(lines[:commits[1] + 1])
    torn = tmp_path / "torn.json"
    torn.write_bytes(prefix + lines[commits[1] + 1][:100])
    out = tmp_path / "out.json"
    nf.resume_flow(quartic_63, cfg, load_checkpoint(str(torn), quartic_63.space),
                   checkpoint_path=str(out))
    assert out.read_bytes() == path.read_bytes()
    assert torn.read_bytes() == prefix + lines[commits[1] + 1][:100]


def test_resume_copies_a_commit_written_with_other_key_order(quartic_63, tmp_path):
    u0 = 1.2 * quartic_63.space.eigenpairs(2)[1][1]
    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=10.0, checkpoint_every=5)
    path = tmp_path / "ck.json"
    full = nf.integrate_flow(quartic_63, u0, cfg, checkpoint_path=str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    # the same commits as {"step": ..., "dt_next": ...}, cut after the second
    source, commits = b"", 0
    for ln in lines:
        if b'"u"' not in ln:
            row = json.loads(ln)
            ln = json.dumps({"step": row["step"], "dt_next": row["dt_next"]}).encode() + b"\n"
            commits += 1
        source += ln
        if commits == 2:
            break
    (tmp_path / "src.json").write_bytes(source)
    out = tmp_path / "out.json"
    resumed = nf.resume_flow(quartic_63, cfg,
                             load_checkpoint(str(tmp_path / "src.json"), quartic_63.space),
                             checkpoint_path=str(out))
    assert resumed.to_csv(("h",)) == full.to_csv(("h",))
    assert out.read_bytes().startswith(source)
    loaded = load_checkpoint(str(out), quartic_63.space)
    assert [s.summary() for s in loaded.states] == [s.summary() for s in full.states]
    assert loaded.dt_next == load_checkpoint(str(path), quartic_63.space).dt_next


def test_checkpoint_writes_each_state_once(quartic_63, tmp_path):
    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-12, t_max=1e3, max_steps=60,
                        checkpoint_every=1)
    u0 = 2.5 * quartic_63.space.eigenpairs(2)[1][1]
    path = tmp_path / "ck.json"
    traj = nf.integrate_flow(quartic_63, u0, cfg, checkpoint_path=str(path))
    assert traj.termination is nf.Termination.MAX_STEPS and len(traj.states) == 61
    rows = [json.loads(ln) for ln in path.read_text().splitlines()]
    states = [r for r in rows if "u" in r]
    commits = [r for r in rows if "u" not in r]
    assert len(states) == 61
    assert [c["step"] for c in commits] == list(range(1, 61))
    assert [r["t"] for r in states] == [s.t for s in traj.states]


def test_flow_on_2d_rectangle():
    space = nf.build_space(nf.GridSpec.rectangle([(0.0, 1.0), (0.0, 1.0)], (9, 9)))
    prob = nf.EnergyProblem(space, nf.power_potential(4), 1.0)
    phi1 = space.eigenpairs(1)[0][1]
    cfg = nf.FlowConfig(mu0=0.3, tol_m=1e-6, t_max=30.0)
    traj = nf.integrate_flow(prob, 0.8 * phi1, cfg)
    assert traj.termination is nf.Termination.SLOPE_BELOW_TOL
    assert nf.monitor_invariance(traj, 0.3).passed


class CountingA:
    """A stiffness matrix that counts its products with vectors, except those
    made in nodalflow.cones (the upper distance bounds and projections)."""

    def __init__(self, A):
        self.A = A
        self.products = 0

    def __matmul__(self, x):
        if sys._getframe(1).f_globals.get("__name__") != "nodalflow.cones":
            self.products += 1
        return self.A @ x

    def __abs__(self):
        return abs(self.A)

    def __getattr__(self, name):
        return getattr(self.A, name)


def test_flow_forms_one_product_with_a_per_trial(monkeypatch):
    space = nf.build_space(nf.GridSpec.interval(0.0, 1.0, 31))
    prob = nf.EnergyProblem(space, nf.power_potential(4), 1.0)
    u0 = 3.0 * space.eigenpairs(2)[1][1]
    counting = CountingA(space.A)
    monkeypatch.setattr(space, "A", counting)
    trials, norms = [], []
    real_energy = flow.energy
    # the initial state evaluates the energy once, and each Armijo trial once
    monkeypatch.setattr(flow, "energy", lambda *a, **k: trials.append(1) or real_energy(*a, **k))
    monkeypatch.setattr(space, "h1_norm", lambda u: norms.append(1) or 0.0)
    traj = nf.integrate_flow(prob, u0, nf.FlowConfig(mu0=0.3, max_steps=80))
    assert len(traj.states) > 40 and len(trials) >= len(traj.states)
    assert len(traj.states) <= counting.products <= len(trials)
    assert not norms


@pytest.mark.parametrize("geometry", ["1d", "2d"])
def test_make_state_labels_a_state_in_a_cone_as_region_of(geometry):
    space = (nf.build_space(nf.GridSpec.interval(0.0, 1.0, 63)) if geometry == "1d" else
             nf.build_space(nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (15, 7))))
    prob = nf.EnergyProblem(space, nf.power_potential(4), 1.0)
    phi1, phi2 = (vec for _, vec in space.eigenpairs(2))
    fields = [phi1, np.maximum(phi2, 0.0), space.solve(np.ones(space.dim))]
    for u in fields:
        for sign in (1, -1):
            for scale in (0.3, 0.5, 1.0):
                for mu0 in (0.1, 0.45, 0.9, 0.5 * (1.0 - 1e-9), 0.5 * (1.0 + 1e-9)):
                    v = sign * scale * u / space.h1_norm(u)
                    state = flow.make_state(prob, v, 0.0, 0.0, mu0, None)[0]
                    assert state.label is nf.region_of(space, v, mu0)
                    assert "d_plus" in vars(state) and "d_minus" in vars(state)
                    assert state.d_plus == nf.project_cone(space, v, 1).distance
                    assert state.d_minus == nf.project_cone(space, v, -1).distance
    for mu0 in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            flow.make_state(prob, phi1, 0.0, 0.0, mu0, None)


def _cold_distance(space, u, sign):
    """dist(u, sign*P) by the hull (1D) or the active set (2D), without the polar test."""
    if space.grid.dimension == 1:
        return cones._certify(space, u, sign, *cones._concave_majorant(sign * u), 1).distance
    return cones._active_set(space, u, sign).distance


@pytest.mark.parametrize("grid, start", [
    (nf.GridSpec.interval(0.0, 1.0, 127), 3.1),
    (nf.GridSpec.rectangle([(0.0, 2.0), (0.0, 1.0)], (39, 19)), 3.0),
])
def test_flows_in_a_cone_project_by_the_polar_test_alone(grid, start, monkeypatch):
    # the benchmark's flow (power:4, mu0 0.45, 1000 steps) stays in P with
    # A u >= 0, so no state runs the hull or the active set, and each row has
    # the bytes that the cold projections and region_of give
    space = nf.build_space(grid)
    prob = nf.EnergyProblem(space, nf.power_potential(4), 1.0)
    mu0 = 0.45
    calls = []
    for name in ("_concave_majorant", "_active_set"):
        real = getattr(cones, name)
        monkeypatch.setattr(cones, name, lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    traj = nf.integrate_flow(prob, start * space.eigenpairs(1)[0][1],
                             nf.FlowConfig(mu0=mu0, max_steps=1000))
    rows = traj.to_csv().splitlines()[1:]
    assert not calls and len(rows) == len(traj.states) > 1
    monkeypatch.undo()
    for s, row in zip(traj.states, rows):
        d_plus, d_minus = (0.0 if np.all(sign * s.u >= 0.0) else _cold_distance(space, s.u, sign)
                           for sign in (1, -1))
        label = nf.region_of(space, s.u, mu0)
        assert row == (f"{s.t!r},{s.j!r},{s.m!r},{d_plus!r},{d_minus!r},"
                       f"{label.value},{s.dt_used!r}")
