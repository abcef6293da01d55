import dataclasses
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import typing
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nodalflow as nf
from nodalflow._serial import csv_text
from nodalflow.cli import main, parse_start
from nodalflow.cones import ProjectionError
from nodalflow.config import _DEFAULTS, ConfigError, canonical_text, config_hash, load_config
from nodalflow.flow import load_checkpoint, save_checkpoint


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


def test_parse_start(space_63, quartic_63, tmp_path):
    assert np.array_equal(parse_start(quartic_63, "zero"), np.zeros(63))
    phi1 = space_63.eigenpairs(1)[0][1]
    assert np.allclose(parse_start(quartic_63, "2.5*phi1"), 2.5 * phi1)
    assert np.allclose(parse_start(quartic_63, "-phi2"),
                       -space_63.eigenpairs(2)[1][1])
    u = np.linspace(-1, 1, 63)
    path = tmp_path / "field.csv"
    path.write_text(nf.field_to_csv(space_63, u))
    assert np.array_equal(parse_start(quartic_63, str(path)), u)
    # a coefficient needs a digit, so these are unrecognized starts; a CSV
    # field of finite values can still have an energy that overflows
    path.write_text(nf.field_to_csv(space_63, 1e100 * u))
    for name in ("nonsense", ".phi1", "e5*phi1", "+.phi2", str(path)):
        with pytest.raises(ConfigError):
            parse_start(quartic_63, name)


@pytest.mark.parametrize("command", ["flow", "verify"])
def test_start_coefficient_without_a_digit_exits_2(tmp_path, capsys, command):
    path, _ = small_config(tmp_path, mu0=0.3,
                           grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 15})
    out = tmp_path / "never"
    assert main([command, "--config", path, "--start", "e5*phi1", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["config", "command_line"])
def test_negative_seed_exits_2_without_output(tmp_path, capsys, where):
    path, _ = small_config(tmp_path, seed=-3 if where == "config" else 11)
    out = tmp_path / "never"
    seed = ["--seed", "-1"] if where == "command_line" else []
    assert main(["solve", "--config", path, *seed, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "flow", "verify", "spectrum"])
def test_unwritable_output_directory_exits_2(tmp_path, capsys, monkeypatch, command):
    # an empty output_dir with no --out, an --out naming a file, and an --out
    # whose run.log is a directory
    path, _ = small_config(tmp_path, mu0=0.3, output_dir="",
                           grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 15})
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    (tmp_path / "taken" / "run.log").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    for out in ([], ["--out", str(blocker)], ["--out", str(tmp_path / "taken")]):
        assert main([command, "--config", path, *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before and blocker.read_text() == "kept"
    assert os.listdir(tmp_path / "taken") == ["run.log"]


@pytest.mark.parametrize("command, blocked", [("spectrum", "spectrum.csv"),
                                              ("solve", "hypothesis_report.json"),
                                              ("flow", "checkpoint.json")])
def test_failed_artifact_write_exits_2(tmp_path, capsys, command, blocked):
    # the artifact's path is a directory, so writing it fails after run.log
    path, _ = small_config(tmp_path, mu0=0.3, flow={"checkpoint_every": 5},
                           grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 15})
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    start = ["--start", "2.5*phi2"] if command == "flow" else []
    assert main([command, "--config", path, *start, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write to output directory")
    assert err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == sorted([blocked, "run.log"])
    assert "stage timings:" in (out / "run.log").read_text()


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad)]) == 2
    bad.write_text("[1, 2]")
    assert main(["solve", "--config", str(bad), "--seed", "3"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["solve", "--config", str(missing)]) == 2
    capsys.readouterr()
    # a byte that is no UTF-8
    bad.write_bytes(b'{"seed": 1}\xff')
    out = tmp_path / "never"
    assert main(["solve", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


_QUARTIC = [0, 0, 0, 0, 0.25]
_TABLE = {"breakpoints": [], "coefficients": [_QUARTIC], "a1": 1.0, "q": 4.0, "mu": 4.0}


def test_invalid_potential_exits_2(tmp_path, capsys):
    # a named dict is not a potential form; a table's numbers are numbers,
    # not booleans or numeric strings, and no piece is empty
    for potential in ("power:2", {"name": "power", "q": 4.0},
                      dict(_TABLE, a1=True), dict(_TABLE, q="4"),
                      dict(_TABLE, coefficients=[[0, 0, 0, 0, True]]),
                      dict(_TABLE, breakpoints=["0.5"], coefficients=[_QUARTIC] * 2),
                      dict(_TABLE, coefficients=[[]]),
                      dict(_TABLE, breakpoints=[0.5], coefficients=[_QUARTIC, []])):
        path, _ = small_config(tmp_path, potential=potential)
        assert main(["solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "bad potential spec" in err
        assert err.count("\n") == 1


def test_projection_failure_exits_4(tmp_path, capsys, monkeypatch):
    def failing_fit(prob, rng):
        raise ProjectionError("KKT residual 1.000e+00 above tolerance 1.0e-09")

    monkeypatch.setattr("nodalflow.cli.fit_mu0", failing_fit)
    path, _ = small_config(tmp_path)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "ProjectionError" in err and err.count("\n") == 1
    report = json.loads((tmp_path / "out" / "error_report.json").read_text())
    assert report == {"error": "ProjectionError", "stage": "mu0",
                      "message": "KKT residual 1.000e+00 above tolerance 1.0e-09",
                      "config_hash": load_config(json.loads(open(path).read())).hash}


@pytest.mark.parametrize("potential, lam, source", [
    ("power:4", 1.0, r"\(fallback: fitted C = 0\)"),
    ("power:3", 100.0, r"\(fit: C = [0-9.e+-]+, mu\* = [0-9.e+-]+\)")])
def test_run_log_says_where_the_auto_mu0_came_from(tmp_path, potential, lam, source):
    # power:4 at lambda 1 fits C = 0 and falls back to mu0 = 0.45, which a
    # fit with mu* >= 0.9 also gives; power:3 at lambda 100 fits C > 0
    path, _ = small_config(tmp_path, potential=potential, **{"lambda": lam},
                           grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 31})
    main(["solve", "--config", path])
    log = (tmp_path / "out" / "run.log").read_text()
    line = re.search(r"auto mu0 = (\S+) (.*)", log)
    assert re.fullmatch(source, line.group(2))
    mu0 = json.loads((tmp_path / "out" / "invariance_report.json").read_text())["mu0"]
    assert line.group(1) == f"{mu0:.6g}"


@pytest.mark.parametrize("mu0", ["auto", 0.3])
def test_one_fit_of_the_constants_per_solve(tmp_path, monkeypatch, mu0):
    # fit_mu0 fits C once per sign, also for a given mu0, and check_schauder
    # validates those constants instead of fitting its own
    calls = []
    fit_constant = nf.cones._fit_constant

    def counting(*args):
        calls.append(1)
        return fit_constant(*args)

    monkeypatch.setattr(nf.cones, "_fit_constant", counting)
    path, _ = small_config(tmp_path, mu0=mu0,
                           grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 31})
    assert main(["solve", "--config", path]) == 0
    assert len(calls) == 2


def test_the_check_validates_the_constants_that_chose_mu0(tmp_path):
    path, _ = small_config(tmp_path, potential="power:3", **{"lambda": 100.0},
                           grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 31})
    main(["solve", "--config", path])
    log = (tmp_path / "out" / "run.log").read_text()
    c, mu_star = re.search(r"auto mu0 = \S+ \(fit: C = (\S+), mu\* = ([^,)]+)", log).groups()
    report = json.loads((tmp_path / "out" / "invariance_report.json").read_text())
    fitted = max(report["plus"]["fitted_c"], report["minus"]["fitted_c"])
    assert f"{fitted:.6g}" == c
    # mu* = (1/(6C))^(1/(q-2)) for the larger C, and mu0 = mu*/2 below the 0.9 cap
    mu_star_fit = (1.0 / (6.0 * fitted)) ** (1.0 / (3.0 - 2.0))
    assert f"{mu_star_fit:.6g}" == mu_star
    assert report["mu0"] == 0.5 * min(0.9, mu_star_fit)


@pytest.mark.parametrize("n, potential", [(63, "two_slope:1,2"), (223, "power:4")])
def test_solves_that_the_active_set_could_not_project(tmp_path, n, potential):
    # n=63 two_slope: a Schauder-stage active set cycled; n=223: the active
    # set needed more than ACTIVE_SET_MAX_ITER iterations
    path, _ = small_config(tmp_path, grid={"dimension": 1, "bounds": [0.0, 1.0], "n": n},
                           potential=potential, seed=1)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "minimax_report.json").read_text())
    assert report["converged"] is True and report["label"] == "sign_changing"


def test_solve_on_a_2d_grid(tmp_path):
    path, _ = small_config(tmp_path, grid={"dimension": 2, "bounds": [[0.0, 2.0], [0.0, 1.0]],
                                           "n": [15, 7]}, seed=1)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "minimax_report.json").read_text())
    assert report["converged"] is True and report["label"] == "sign_changing"
    assert report["candidate_slope"] <= 1e-6


def test_2d_solve_projection_count(tmp_path, monkeypatch):
    # the invariance checker and the frame scan decide their comparisons by
    # distance bounds.  Projecting every sample, every Riesz image (two per
    # sample at smooth points) and every scan direction made this solve take
    # about 1,480 projections, about 1,350 of them in the mu0 fit and the
    # Schauder check.  The check projects one image and one witness per sign;
    # a running maximum of the ratio in draw order projected 14 here
    calls = []
    for name in ("cones", "flow"):
        module = importlib.import_module(f"nodalflow.{name}")
        def counting(*args, _real=module.project_cone, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "project_cone", counting)
    checker = []

    def counted(stage):
        def wrapped(*args, **kwargs):
            before = len(calls)
            out = stage(*args, **kwargs)
            checker.append(len(calls) - before)
            return out
        return wrapped

    for stage in ("fit_mu0", "check_schauder"):
        monkeypatch.setattr(f"nodalflow.cli.{stage}", counted(getattr(nf, stage)))
    path, _ = small_config(tmp_path, grid={"dimension": 2, "bounds": [[0.0, 2.0], [0.0, 1.0]],
                                           "n": [15, 7]}, seed=1)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert len(checker) == 2 and sum(checker) <= 50 and checker[1] <= 4
    assert len(calls) <= 200


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


def test_solve_logs_the_extraction_counts(tmp_path):
    path, _ = small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    lines = re.findall(r"stage minimax: extraction bisection_rounds=(\d+) "
                       r"newton_attempts=(\d+) rejected_by_label=(\d+) "
                       r"rejected_by_energy_window=(\d+)$",
                       (out / "run.log").read_text(), flags=re.M)
    assert len(lines) == 1
    rounds, newton, off_label, off_window = map(int, lines[0])
    assert off_label + off_window <= newton <= rounds and rounds >= 1
    # the counts stay out of the report
    report = json.loads((out / "minimax_report.json").read_text())
    assert "extraction" not in report


def test_minimax_report_brackets_the_certified_energy(tmp_path):
    path, _ = small_config(tmp_path, grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 15},
                           seed=1)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "minimax_report.json").read_text())
    assert set(report) == {
        "alpha", "beta", "r_estimates", "r_final", "level_bracket", "level_consistent",
        "maximizer_param", "candidate_slope", "label", "converged",
        "mesh_tolerance", "q_interpretation", "config_hash"}
    # one labelling of the identity surface: one sup, no deformation rounds
    assert report["r_estimates"] == [report["r_final"]]
    assert report["level_bracket"] == [report["beta"],
                                       report["r_final"] + report["mesh_tolerance"]]
    assert report["level_consistent"] is True
    text = (out / "solution.csv").read_text()
    header = dict(line[2:].split("=", 1) for line in text.splitlines()
                  if line.startswith("# "))
    cfg = load_config(json.loads(open(path).read()))
    space = nf.build_space(cfg.grid)
    j = nf.energy(nf.EnergyProblem(space, cfg.potential, cfg.lam),
                  nf.field_from_csv(space, text))
    assert float(header["energy"]) == j
    low, high = report["level_bracket"]
    assert low <= j <= high


def test_screened_labels_leave_solve_artifacts_unchanged(tmp_path, monkeypatch):
    # region_of (and the checker's sample acceptance) decide most labels by
    # distance bounds; projecting every one instead must give the same bytes
    path, _ = small_config(tmp_path)
    screened, projected = tmp_path / "screened", tmp_path / "projected"
    assert main(["solve", "--config", path, "--out", str(screened)]) == 0
    monkeypatch.setattr(nf.cones._ConeDistance, "within", lambda self, mu: self.exact <= mu)
    assert main(["solve", "--config", path, "--out", str(projected)]) == 0
    names = sorted(p.name for p in screened.iterdir() if p.suffix in (".csv", ".json"))
    assert "solution.csv" in names and names == sorted(p.name for p in projected.iterdir()
                           if p.suffix in (".csv", ".json"))
    for name in names:
        assert (screened / name).read_bytes() == (projected / name).read_bytes(), name


@pytest.mark.parametrize("grid", [
    {"dimension": 1, "bounds": [0.0, 1.0], "n": 63},
    {"dimension": 2, "bounds": [[0.0, 2.0], [0.0, 1.0]], "n": [15, 7]}])
def test_block_energies_leave_solve_artifacts_unchanged(tmp_path, monkeypatch, grid):
    # the frame scan, the alpha/beta estimate and the surface score their
    # fields as blocks; scoring one field at a time must give the same bytes,
    # the surface snapshots included
    path, _ = small_config(tmp_path, grid=grid, seed=1, linking={"snapshots": True})
    block, single = tmp_path / "block", tmp_path / "single"
    assert main(["solve", "--config", path, "--out", str(block)]) == 0
    monkeypatch.setattr(nf.linking, "energies", lambda prob, fields:
                        np.array([nf.energy(prob, u) for u in fields]))
    assert main(["solve", "--config", path, "--out", str(single)]) == 0
    names = sorted(p.name for p in block.iterdir() if p.name != "run.log")
    assert "surface_000.csv" in names and "solution.csv" in names
    assert names == sorted(p.name for p in single.iterdir() if p.name != "run.log")
    for name in names:
        assert (block / name).read_bytes() == (single / name).read_bytes(), name


def test_csv_text_layout():
    # header lines, the column line, then the rows; np.float64 is written as a float
    text = csv_text(("a=1", "b"), ["x", 0.5], [[np.float64(0.1), "s"], (1e-300, -0.0)])
    assert text == "# a=1\n# b\nx,0.5\n0.1,s\n1e-300,-0.0\n"


def test_every_csv_artifact_is_stamped_and_reads_back_bit_for_bit(tmp_path):
    # surface snapshots of a 1D and a 2D solve, a flow, and a spectrum
    line = {"dimension": 1, "bounds": [0.0, 1.0], "n": 63}
    rect = {"dimension": 2, "bounds": [[0.0, 2.0], [0.0, 1.0]], "n": [15, 7]}
    runs = [("solve", line, {"linking": {"snapshots": True}}, []),
            ("solve", rect, {"linking": {"snapshots": True}}, []),
            ("flow", line, {"mu0": 0.3, "flow": {"max_steps": 50}}, ["--start", "2*phi1"]),
            ("spectrum", rect, {}, ["--k", "3"])]
    expected = {"solve": {"solution.csv", "surface_000.csv"},
                "flow": {"solution.csv", "trajectory.csv"}, "spectrum": {"spectrum.csv"}}
    for i, (command, grid, overrides, args) in enumerate(runs):
        work = tmp_path / str(i)
        work.mkdir()
        path, _ = small_config(work, grid=grid, seed=1, **overrides)
        stamp = f"# config_hash={load_config(json.load(open(path))).hash}"
        out = work / "out"
        assert main([command, "--config", path, "--out", str(out), *args]) == 0
        names = {p.name for p in out.glob("*.csv")}
        assert expected[command] <= names
        for name in names:
            lines = (out / name).read_text().splitlines()
            assert lines[0] == stamp, name
            for row in lines:
                if row.startswith("#"):
                    continue
                for cell in row.split(","):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue   # a column name or a region label
                    assert float.__repr__(value) == cell, (name, cell)


def test_2d_solve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the 39x19 rectangle has the double eigenvalue lambda_5 = lambda_6 among
    # the T modes; a dense eigensolver gave it a basis that moved with the
    # BLAS thread count, and with it every artifact but hypothesis_report.json
    path, _ = small_config(tmp_path, grid={"dimension": 2, "bounds": [[0.0, 2.0], [0.0, 1.0]],
                                           "n": [39, 19]}, seed=1)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nf.__file__)))
    outs = [tmp_path / f"threads{threads}" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
        subprocess.run([sys.executable, "-m", "nodalflow.cli", "solve", "--config", path,
                        "--out", str(out)], env=env, check=True, capture_output=True)
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "run.log")
    assert "solution.csv" in names and "frame.json" in names
    assert names == sorted(p.name for p in outs[1].iterdir() if p.name != "run.log")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _timed_main(argv, out) -> tuple[int, float, list[tuple[str, float]]]:
    """main(argv)'s exit code, its wall seconds, and the (stage, seconds)
    pairs of the one stage timings line of out/run.log."""
    start = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - start
    lines = re.findall(r"^\[[^]]*\] stage timings: (.*)$", (out / "run.log").read_text(),
                       flags=re.M)
    assert len(lines) == 1
    pairs = [re.fullmatch(r"(\w+)=(\d+\.\d+)s", item).groups() for item in lines[0].split()]
    return code, wall, [(name, float(value)) for name, value in pairs]


@pytest.mark.parametrize("overrides, code", [({}, 0), ({"lambda": 0.001}, 3)])
def test_solve_logs_its_stage_timings(tmp_path, overrides, code):
    path, _ = small_config(tmp_path, **overrides)
    out = tmp_path / "out"
    exit_code, wall, pairs = _timed_main(["solve", "--config", path, "--out", str(out)], out)
    assert exit_code == code
    assert [name for name, _ in pairs] == ["hypotheses", "mu0", "schauder", "frame",
                                           "minimax", "write"]
    seconds = dict(pairs)
    assert sum(seconds.values()) <= wall and seconds["schauder"] > 0.0
    assert (seconds["minimax"] > 0.0) == (code == 0)


@pytest.mark.parametrize("command, args, stages", [
    ("flow", ["--start", "2.5*phi2"], ["mu0", "flow", "verdict", "write"]),
    ("verify", [], ["hypotheses", "mu0", "schauder", "slope_cross_validation",
                    "ps_monitor", "write"]),
    ("spectrum", ["--k", "3"], ["write"])])
def test_every_command_logs_its_stage_timings(tmp_path, command, args, stages):
    path, _ = small_config(tmp_path, grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 31})
    out = tmp_path / "out"
    code, wall, pairs = _timed_main([command, "--config", path, *args, "--out", str(out)],
                                    out)
    assert code == 0
    assert [name for name, _ in pairs] == stages
    seconds = dict(pairs)
    assert sum(seconds.values()) <= wall and all(value > 0.0 for value in seconds.values())


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


def test_flow_and_resume_bytes(tmp_path, space_63):
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
    source = os.path.join(out_cut, "checkpoint.json")
    before = open(source, "rb").read()
    assert main(["flow", "--config", path, "--resume", source, "--out", out_res]) == 0
    for name in ("trajectory.csv", "solution.csv"):
        with open(os.path.join(out_full, name)) as fa, \
             open(os.path.join(out_res, name)) as fb:
            assert fa.read() == fb.read(), name

    # the resume reads its source and writes its own checkpoint into --out
    assert open(source, "rb").read() == before
    full = load_checkpoint(os.path.join(out_full, "checkpoint.json"), space_63)
    res = load_checkpoint(os.path.join(out_res, "checkpoint.json"), space_63)
    assert res.dt_next == full.dt_next and len(res.states) == len(full.states)
    for a, b in zip(res.states, full.states):
        assert a.summary() == b.summary() and a.u.tobytes() == b.u.tobytes()


def test_flow_verdict_keys(tmp_path):
    path, _ = small_config(tmp_path, mu0=0.3, flow={"t_max": 2.0})
    out = tmp_path / "flow"
    assert main(["flow", "--config", path, "--start", "1.5*phi1", "--out", str(out)]) == 0
    verdict = json.loads((out / "flow_verdict.json").read_text())
    assert set(verdict) == {"cone_invariant", "energy_monotone", "gronwall_ok", "passed",
                            "violations", "termination", "config_hash"}
    assert verdict["passed"] and verdict["violations"] == []


def _bad_checkpoint(tmp_path, case):
    """A missing file, rows with no commit, a 63-node field for a 15-node grid,
    a 15-node field written as a decimal list or as text that is not base64, or
    a committed 15-node field holding a NaN."""
    path = tmp_path / f"{case}.json"
    if case == "missing":
        return path
    n = 15 if case in ("decimal_list", "bad_base64", "non_finite") else 63
    u = np.zeros(n)
    if case == "non_finite":
        u[3] = np.nan
    state = nf.FlowState(0.0, u, 0.0, 0.0, nf.RegionLabel.OVERLAP, 0.0, None, None)
    state.d_plus, state.d_minus = 0.0, 0.0
    save_checkpoint(str(path), [state], 0.05)
    row, commit = path.read_text().splitlines(keepends=True)
    if case == "uncommitted":
        path.write_text(row)
    elif case in ("decimal_list", "bad_base64"):
        fields = json.loads(row)
        fields["u"] = [0.0] * n if case == "decimal_list" else "?" * len(fields["u"])
        path.write_text(json.dumps(fields, sort_keys=True) + "\n" + commit)
    return path


@pytest.mark.parametrize("command", ["flow", "verify"])
@pytest.mark.parametrize("case", ["missing", "uncommitted", "wrong_length",
                                  "decimal_list", "bad_base64", "non_finite"])
def test_bad_checkpoint_input_exits_2_without_output(tmp_path, capsys, command, case):
    path, _ = small_config(tmp_path, mu0=0.3,
                           grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 15})
    ck = _bad_checkpoint(tmp_path, case)
    flag = "--resume" if command == "flow" else "--start"
    out = tmp_path / "out_dir"
    assert main([command, "--config", path, flag, str(ck), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["flow", "verify"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_csv_exits_2_without_output(tmp_path, capsys, space_63,
                                                     command, bad):
    path, _ = small_config(tmp_path, mu0=0.3)
    u = np.linspace(-1.0, 1.0, 63)
    u[10] = bad
    start = tmp_path / "start.csv"
    start.write_text(nf.field_to_csv(space_63, u))
    out = tmp_path / "never"
    assert main([command, "--config", path, "--start", str(start), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["flow", "verify"])
@pytest.mark.parametrize("start", ["1e400*phi1", "1.7e308*phi2", "1e308*phi1", "1e150*phi1"])
def test_start_coefficient_that_overflows_exits_2_without_output(tmp_path, capsys,
                                                                command, start):
    # an infinite coefficient, a finite one whose field overflows, and finite
    # fields whose energy overflows: no warning, no output, one line
    path, _ = small_config(tmp_path, mu0=0.3,
                           grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 15})
    out = tmp_path / "never"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", path, "--start", start, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, report", [("flow", "flow_verdict.json"),
                                             ("verify", "verify_report.json")])
def test_large_start_with_finite_energy_runs(tmp_path, command, report):
    path, _ = small_config(tmp_path, mu0=0.3,
                           grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 15})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--start", "1e50*phi1", "--out", str(out)]) != 2
    assert (out / report).exists()


@pytest.mark.parametrize("command", ["flow", "verify"])
@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_unreadable_start_exits_2_without_output(tmp_path, capsys, space_63, command, case):
    path, _ = small_config(tmp_path, mu0=0.3)
    start = tmp_path / "start"
    if case == "directory":
        start.mkdir()
    else:
        start.write_bytes(nf.field_to_csv(space_63, np.zeros(63)).encode() + b"\xff\n")
    out = tmp_path / "never"
    assert main([command, "--config", path, "--start", str(start), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_verify_bad_start_csv_exits_2_before_any_stage(tmp_path, capsys):
    path, _ = small_config(tmp_path, mu0=0.3)
    header_only = tmp_path / "header.csv"
    header_only.write_text("x,value\n")
    out = tmp_path / "never"
    assert main(["verify", "--config", path, "--start", str(header_only),
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_verify_passes_and_detects_tamper(tmp_path, space_63):
    path, _ = small_config(
        tmp_path, mu0=0.3, flow={"checkpoint_every": 10, "t_max": 30.0})
    out = str(tmp_path / "verify")
    assert main(["verify", "--config", path, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "verify_report.json")))
    assert rep["passed"] is True
    assert all(e["set_slope_converged"] is True for e in rep["slope_cross_validation"])

    # produce a checkpoint, then tamper with its tail
    out_f = str(tmp_path / "vflow")
    assert main(["flow", "--config", path, "--start", "2.5*phi2",
                 "--out", out_f]) == 0
    checkpoint = load_checkpoint(os.path.join(out_f, "checkpoint.json"), space_63)
    states = checkpoint.states
    for s in states[-3:]:
        s.m = 50.0
        s.u = s.u + 0.5 * np.arange(len(s.u))
    tampered = tmp_path / "tampered.json"
    save_checkpoint(str(tampered), states, checkpoint.dt_next)
    out_t = str(tmp_path / "verify_t")
    assert main(["verify", "--config", path, "--start", str(tampered),
                 "--out", out_t]) == 5
    rep = json.load(open(os.path.join(out_t, "verify_report.json")))
    assert rep["ps_monitor"]["passed"] is False


def test_verify_fails_an_unconverged_set_slope(tmp_path, monkeypatch):
    # a stopped L-BFGS-B run over-estimates m_D, so its entry cannot pass
    monkeypatch.setattr("nodalflow.cli.slope_on_set", lambda *args: dataclasses.replace(
        nf.slope_on_set(*args), converged=False))
    path, _ = small_config(tmp_path, mu0=0.3, flow={"t_max": 30.0})
    out = tmp_path / "verify"
    assert main(["verify", "--config", path, "--out", str(out)]) == 4
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["passed"] is False and rep["ps_monitor"]["passed"] is True
    for entry in rep["slope_cross_validation"]:
        assert entry["consistent"] is True and entry["set_slope_converged"] is False
        assert entry["set_slope_gap"] > 0
    # a failed invariance check keeps its exit 5
    monkeypatch.setattr("nodalflow.cli.ps_monitor", lambda *args: dataclasses.replace(
        nf.ps_monitor(*args), cauchy_ok=False))
    assert main(["verify", "--config", path, "--out", str(tmp_path / "both")]) == 5


# -- config schema -------------------------------------------------------------

def _accepted_keys(cls):
    return {f.name for f in dataclasses.fields(cls) if not f.metadata.get("internal")}


# section path -> keys load_config accepts there
SECTION_KEYS = {
    (): set(_DEFAULTS),
    ("grid",): _accepted_keys(nf.GridSpec),
    ("flow",): _accepted_keys(nf.FlowConfig),
    ("linking",): {"snapshots"},
}

# numeric leaves of a valid config: (path, value)
NUMERIC_LEAVES = (
    [(("lambda",), 1.0), (("mu0",), 0.3), (("seed",), 3),
     (("grid", "n"), 15), (("grid", "bounds", 0), 0.0), (("grid", "bounds", 1), 1.0),
     (("flow", "checkpoint_every"), 5), (("potential", "q"), 4.0)]
    + [(("flow", f.name), f.default) for f in dataclasses.fields(nf.FlowConfig)
       if not f.metadata.get("internal") and f.default is not None]
)


def _set(tree, path, value):
    for key in path[:-1]:
        tree = tree.setdefault(key, {})
    tree[path[-1]] = value


def _base_config():
    return {"grid": {"dimension": 1, "bounds": [0.0, 1.0], "n": 15},
            "potential": {"breakpoints": [], "coefficients": [[0.0, 0.0, 0.0, 0.0, 0.25]],
                          "a1": 1.0, "q": 4.0, "mu": 4.0}}


def _merged(user):
    out = json.loads(json.dumps(_DEFAULTS))
    for key, val in user.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = dict(out[key], **val)
        else:
            out[key] = val
    return out


_keys = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12)


@given(section=st.sampled_from(sorted(SECTION_KEYS)), key=_keys)
def test_unknown_key_in_any_section_rejected(section, key):
    assume(key not in SECTION_KEYS[section])
    cfg = _base_config()
    _set(cfg, section + (key,), 1)
    with pytest.raises(ConfigError, match="unknown"):
        load_config(cfg)


@pytest.mark.parametrize("path", [
    ("flow", "eps"), ("flow", "eps_bar"), ("flow", "disp_cap"), ("flow", "mu0"),
    ("flow", "level_r"), ("flow", "excision_delta"), ("flow", "excised_points"),
    ("flow", "j_floor"), ("linking", "sweep_tol_m"), ("linking", "polish_dip"),
    ("linking", "flow"), ("linking", "scan", "t_modes"),
    ("linking", "scan", "radius_max"), ("linking", "scan", "n_radius"),
    ("linking", "scan", "delta_min"), ("linking", "scan", "delta_max"),
    ("linking", "scan", "n_delta"), ("linking", "max_sweeps"),
    ("linking", "stall_window"), ("linking", "stall_rel"), ("linking", "band_frac"),
    ("linking", "horizon_cap"), ("flow", "dt0"), ("flow", "dt_min"), ("flow", "dt_max"),
    ("linking", "retry_budget"), ("linking", "bisect_rounds"),
    ("linking", "classify_t_chunk"), ("linking", "classify_max_chunks"),
    ("linking", "mesh_tol"), ("linking", "scan", "radius_margin"),
    ("linking", "scan", "n_directions"), ("linking", "scan", "cone_margin"),
    ("linking", "nr"), ("linking", "nt"), ("linking", "scan", "radius_grid"),
    ("linking", "scan", "n_theta"), ("linking", "scan", "delta_grid"),
    ("tolerances", "schauder_samples"), ("tolerances",), ("linking", "scan")])
def test_removed_and_internal_keys_rejected(tmp_path, capsys, path):
    cfg = _base_config()
    _set(cfg, path, 0.1)
    with pytest.raises(ConfigError, match="unknown"):
        load_config(cfg)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "unknown" in err and err.count("\n") == 1


@given(leaf=st.sampled_from(NUMERIC_LEAVES),
       bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_non_finite_number_rejected(leaf, bad):
    path, good = leaf
    cfg = _base_config()
    _set(cfg, path, good)
    load_config(cfg)
    _set(cfg, path, bad)
    with pytest.raises(ConfigError, match="finite"):
        load_config(cfg)


@given(leaf=st.sampled_from([(p, v) for p, v in NUMERIC_LEAVES
                             if isinstance(v, (int, float))]))
def test_bool_for_number_rejected(leaf):
    cfg = _base_config()
    _set(cfg, leaf[0], True)
    with pytest.raises(ConfigError):
        load_config(cfg)


@pytest.mark.parametrize("path", [("seed",), ("grid", "n"), ("flow", "max_steps"),
                                  ("flow", "checkpoint_every")])
def test_int_field_needs_integral_value(path):
    cfg = _base_config()
    _set(cfg, path, 7.0)   # integral floats are accepted as ints
    loaded = load_config(cfg)
    assert loaded.hash == config_hash(loaded.raw)
    _set(cfg, path, 1.7)
    with pytest.raises(ConfigError, match="integer"):
        load_config(cfg)


_accepted_configs = st.fixed_dictionaries({}, optional={
    "grid": st.builds(lambda n: {"dimension": 1, "bounds": [0.0, 2.0], "n": n},
                      st.integers(2, 300)),
    "lambda": st.floats(1e-3, 1e3),
    "mu0": st.one_of(st.just("auto"), st.floats(0.01, 0.99)),
    "seed": st.one_of(st.integers(0, 2**40), st.integers(0, 99).map(float)),
    "potential": st.sampled_from(["power:4", "power:3.5", "two_slope:1,2", "capped_power:4,2"]),
    "flow": st.fixed_dictionaries({}, optional={
        "tol_m": st.floats(1e-9, 1e-2), "t_max": st.floats(0.1, 100.0),
        "max_steps": st.integers(1, 10**6),
        "checkpoint_every": st.one_of(st.none(), st.integers(1, 100))}),
    "linking": st.fixed_dictionaries({}, optional={"snapshots": st.booleans()}),
    "output_dir": st.text(max_size=8),
})


@given(user=_accepted_configs)
def test_accepted_config_hash_is_of_merged_raw(user):
    cfg = load_config(user)
    merged = _merged(user)
    assert cfg.raw == merged
    expected = hashlib.sha256(canonical_text(merged).encode()).hexdigest()
    assert cfg.hash == expected


@settings(max_examples=20)
@given(section=st.sampled_from(sorted(SECTION_KEYS)), key=_keys)
def test_spectrum_bad_key_exits_2_without_output(section, key):
    assume(key not in SECTION_KEYS[section])
    cfg = _base_config()
    _set(cfg, section + (key,), 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        assert main(["spectrum", "--config", path, "--out", out]) == 2
        assert not os.path.exists(out)


def test_bad_linking_key_exits_2_before_any_stage(tmp_path, capsys):
    path, _ = small_config(tmp_path, linking={"snapshots": True, "bogus": 1})
    out = tmp_path / "never"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "bogus" in err and err.count("\n") == 1


@pytest.mark.parametrize("k", ["0", "99"])
def test_spectrum_bad_k_exits_2(tmp_path, capsys, k):
    path, _ = small_config(tmp_path, grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 15})
    assert main(["spectrum", "--config", path, "--k", k,
                 "--out", str(tmp_path / "spec")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_flow_start_csv_of_wrong_length_exits_2(tmp_path, capsys, space_63):
    path, _ = small_config(tmp_path, mu0=0.3,
                           grid={"dimension": 1, "bounds": [0.0, 1.0], "n": 15})
    short = tmp_path / "short.csv"
    short.write_text(nf.field_to_csv(space_63, np.zeros(63)))
    assert main(["flow", "--config", path, "--start", str(short),
                 "--out", str(tmp_path / "flow")]) == 2
    assert not (tmp_path / "flow").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_readme_config_example_loads():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    example = re.search(r"Example:\n\n```json\n(.*?)```", readme, re.S).group(1)
    assert load_config(json.loads(example)).raw == _merged(json.loads(example))


_README_TYPES = {int: "integer", float: "number", int | None: "integer or null"}


def test_readme_lists_the_accepted_keys_with_defaults():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    rows = {m.group(1): (m.group(2), m.group(3)) for m in re.finditer(
        r"^\| `([a-z_.0-9]+)` \| ([^|]+?) \| ([^|]+?) \|$", readme, re.M)}
    expected = {".".join(section + (key,)) for section, keys in SECTION_KEYS.items()
                for key in keys}
    assert set(rows) == expected
    hints = typing.get_type_hints(nf.FlowConfig)
    for f in dataclasses.fields(nf.FlowConfig):
        if f.metadata.get("internal"):
            continue
        doc_type, doc_default = rows[f"flow.{f.name}"]
        assert doc_type == _README_TYPES[hints[f.name]], f.name
        assert json.loads(doc_default.strip("`")) == f.default, f.name
    for key, val in _DEFAULTS.items():
        if not isinstance(val, dict):
            assert json.loads(rows[key][1].strip("`")) == val, key
    for key, val in _DEFAULTS["grid"].items():
        assert json.loads(rows[f"grid.{key}"][1].strip("`")) == val, key
