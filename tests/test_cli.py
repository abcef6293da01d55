import json
import os

import numpy as np
import pytest

import nodalflow as nf
from nodalflow.cli import main, parse_start
from nodalflow.config import ConfigError, config_hash, load_config


def small_config(tmp_path, **overrides):
    cfg = {
        "grid": {"dimension": 1, "bounds": [0.0, 1.0], "n": 63},
        "potential": "power:4",
        "lambda": 1.0,
        "mu0": "auto",
        "seed": 11,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def test_config_defaults_and_hash():
    cfg = load_config({"seed": 5})
    assert cfg.grid.n == (127,)
    assert cfg.lam == 1.0
    assert cfg.hash == config_hash(cfg.raw)
    with pytest.raises(ConfigError):
        load_config({"nonsense": 1})
    with pytest.raises(ConfigError):
        load_config({"lambda": -1.0})
    with pytest.raises(ConfigError):
        load_config({"mu0": 1.7})
    with pytest.raises(ConfigError):
        load_config({"potential": "weird:1"})


def test_parse_start(space_63, tmp_path):
    assert np.array_equal(parse_start(space_63, "zero"), np.zeros(63))
    phi1 = space_63.eigenpairs(1)[0][1]
    assert np.allclose(parse_start(space_63, "2.5*phi1"), 2.5 * phi1)
    assert np.allclose(parse_start(space_63, "-phi2"),
                       -space_63.eigenpairs(2)[1][1])
    u = np.linspace(-1, 1, 63)
    path = tmp_path / "field.csv"
    path.write_text(nf.field_to_csv(space_63, u))
    assert np.array_equal(parse_start(space_63, str(path)), u)
    with pytest.raises(ConfigError):
        parse_start(space_63, "nonsense")


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["solve", "--config", str(missing)]) == 2


def test_invalid_potential_exits_2(tmp_path, capsys):
    path, _ = small_config(tmp_path, potential="power:2")
    assert main(["solve", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_projection_failure_exits_4(tmp_path, capsys):
    # the active set needs more than max_iter iterations on this grid
    path, _ = small_config(tmp_path, grid={"dimension": 1, "bounds": [0.0, 1.0],
                                           "n": 223}, seed=1)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "ProjectionError" in err and err.count("\n") == 1


def test_solve_artifacts_and_determinism(tmp_path):
    path, raw = small_config(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["solve", "--config", path, "--out", out_a]) == 0
    assert main(["solve", "--config", path, "--out", out_b]) == 0
    names = ["solution.csv", "minimax_report.json", "frame.json",
             "hypothesis_report.json", "invariance_report.json"]
    for name in names:
        with open(os.path.join(out_a, name)) as fa, \
             open(os.path.join(out_b, name)) as fb:
            assert fa.read() == fb.read(), name
    report = json.load(open(os.path.join(out_a, "minimax_report.json")))
    assert report["converged"] is True
    assert report["label"] == "sign_changing"
    expected = config_hash(load_config(json.load(open(path))).raw)
    assert report["config_hash"] == expected
    with open(os.path.join(out_a, "solution.csv")) as fh:
        assert f"config_hash={expected}" in fh.readline()


def test_seed_override_changes_hash(tmp_path):
    path, raw = small_config(tmp_path)
    out = str(tmp_path / "spec_out")
    assert main(["spectrum", "--config", path, "--seed", "99", "--k", "2",
                 "--out", out]) == 0
    text = open(os.path.join(out, "spectrum.csv")).read()
    reseeded = dict(raw, seed=99)
    assert config_hash(load_config(reseeded).raw) in text


def test_no_linking_window_exit_3(tmp_path):
    path, _ = small_config(tmp_path, **{"lambda": 0.001})
    out = str(tmp_path / "nolink")
    assert main(["solve", "--config", path, "--out", out]) == 3
    scan = json.load(open(os.path.join(out, "linking_scan.json")))
    assert "profiles" in scan


def test_failed_hypotheses_exit_4(tmp_path):
    quad = {"breakpoints": [], "coefficients": [[0.0, 0.0, 0.5]],
            "a1": 2.0, "q": 3.0, "mu": 2.5}
    path, _ = small_config(tmp_path, potential=quad)
    out = str(tmp_path / "badpot")
    assert main(["solve", "--config", path, "--out", out]) == 4
    rep = json.load(open(os.path.join(out, "hypothesis_report.json")))
    assert rep["iv_superquadratic_origin"]["passed"] is False


def test_spectrum_values(tmp_path):
    path, _ = small_config(tmp_path)
    out = str(tmp_path / "spec")
    assert main(["spectrum", "--config", path, "--k", "3", "--out", out]) == 0
    lines = open(os.path.join(out, "spectrum.csv")).read().splitlines()
    lams = [float(x) for x in lines[1].split("=")[1].split(",")]
    h = 1.0 / 64
    for k, lam in enumerate(lams, start=1):
        assert lam == pytest.approx((4 / h**2) * np.sin(k * np.pi * h / 2) ** 2,
                                    rel=1e-12)


def test_flow_and_resume_bytes(tmp_path):
    path, _ = small_config(
        tmp_path, mu0=0.3, flow={"checkpoint_every": 10, "t_max": 30.0})
    out_full = str(tmp_path / "full")
    assert main(["flow", "--config", path, "--start", "2.5*phi2",
                 "--out", out_full]) == 0

    # interrupted run: same numerics, fewer steps allowed
    cut_cfg = json.loads(open(path).read())
    cut_cfg["flow"]["max_steps"] = 15
    cut_path = tmp_path / "cut.json"
    cut_path.write_text(json.dumps(cut_cfg))
    out_cut = str(tmp_path / "cut")
    assert main(["flow", "--config", str(cut_path), "--start", "2.5*phi2",
                 "--out", out_cut]) == 0

    out_res = str(tmp_path / "res")
    assert main(["flow", "--config", path, "--resume",
                 os.path.join(out_cut, "checkpoint.json"), "--out", out_res]) == 0
    for name in ("trajectory.csv", "solution.csv"):
        with open(os.path.join(out_full, name)) as fa, \
             open(os.path.join(out_res, name)) as fb:
            assert fa.read() == fb.read(), name


def test_verify_passes_and_detects_tamper(tmp_path):
    path, _ = small_config(
        tmp_path, mu0=0.3, flow={"checkpoint_every": 10, "t_max": 30.0})
    out = str(tmp_path / "verify")
    assert main(["verify", "--config", path, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "verify_report.json")))
    assert rep["passed"] is True

    # produce a checkpoint, then tamper with its tail
    out_f = str(tmp_path / "vflow")
    assert main(["flow", "--config", path, "--start", "2.5*phi2",
                 "--out", out_f]) == 0
    ck = json.load(open(os.path.join(out_f, "checkpoint.json")))
    for row in ck["states"][-3:]:
        row["m"] = 50.0
        row["u"] = [x + 0.5 * i for i, x in enumerate(row["u"])]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(ck))
    out_t = str(tmp_path / "verify_t")
    assert main(["verify", "--config", path, "--start", str(tampered),
                 "--out", out_t]) == 5
    rep = json.load(open(os.path.join(out_t, "verify_report.json")))
    assert rep["ps_monitor"]["passed"] is False
