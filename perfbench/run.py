#!/usr/bin/env python3
"""nodalflow benchmark: certified sign-changing solves and a checkpointed
flow with resume, driven through the public entry point ``nodalflow.cli.main``
in this process.

Run from anywhere inside a source checkout (the program is imported from its
``src/`` directory, the energy oracle from ``tests/oracles.py``):

    python3 perfbench/run.py --workload bench1d --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

One run sets up ``SETUP_REPEATS`` fresh interpreters (``setup_s``), then runs
operations of the workload with inputs made from ``--seed`` until the next one
would end after ``--seconds`` (at least one).  ``--trace 1`` runs one untraced
operation, then traced ones.  Every operation passes a correctness gate or
counts as failed.  Each metric prints as ``metric <name> <value> <unit> n=<k>``;
the last line is one JSON object with the metrics BENCHMARK.json declares
(end-to-end ones without tracing, per-layer ones with it).  See README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the setup interpreters inherit it.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

TOL_M = 1e-6              # README: slope certificate below 1e-6
ENERGY_TOL_127 = 5e-4     # README: energy within 0.05 % of shooting at n = 127
SETUP_REPEATS = 5
C_RANGE = (2.75, 3.5)     # below c ~ 2.6 the flow decays to 0 in ~35 steps

LINE_127 = {"dimension": 1, "bounds": [0.0, 1.0], "n": 127}
RECT_39x19 = {"dimension": 2, "bounds": [[0.0, 2.0], [0.0, 1.0]], "n": [39, 19]}


@dataclass(frozen=True)
class Workload:
    name: str
    grid: dict
    flow_steps: int = 0     # 0: one solve; else full flow, half-way cut, resume


WORKLOADS = {w.name: w for w in (
    Workload("bench1d", LINE_127),
    Workload("rect2d", RECT_39x19),
    Workload("flow_resume", LINE_127, flow_steps=1000),
)}
SMOKE = {w.name: w for w in (
    Workload("bench1d", dict(LINE_127, n=15)),
    Workload("rect2d", dict(RECT_39x19, n=[7, 3])),
    Workload("flow_resume", dict(LINE_127, n=15), flow_steps=60),
)}

# Units of every printed metric; the last line carries those BENCHMARK.json declares.
E2E_UNITS = {
    "op_s": "s", "op_cpu_s": "s", "solve_s": "s", "solve_cpu_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
    "energy_rel_err": "ratio", "flow_steps_per_s": "1/s", "resume_s": "s",
    "checkpoint_mb": "MB",
}
LAYER_UNITS = {"cones.iters_per_project": "iter/call", "linking.sweep_r_drop": "J"}

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import nodalflow
from nodalflow.config import load_config
from nodalflow.mesh import build_space
build_space(load_config(json.loads(sys.argv[1])).grid)
print(repr(time.perf_counter() - t0))
"""


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    return "count"


# -- inputs --------------------------------------------------------------------


def solve_config(wl: Workload, seed: int) -> dict:
    return {"grid": wl.grid, "potential": "power:4", "lambda": 1.0,
            "seed": seed, "output_dir": "out"}


def flow_config(wl: Workload, seed: int, max_steps: int) -> dict:
    return dict(solve_config(wl, seed), mu0=0.45,
                flow={"checkpoint_every": 10, "max_steps": max_steps})


def configs(wl: Workload, seed: int) -> dict[str, dict]:
    """The config files of one operation; the first is the one set-up parses."""
    if not wl.flow_steps:
        return {"solve.json": solve_config(wl, seed)}
    return {"full.json": flow_config(wl, seed, wl.flow_steps),
            "cut.json": flow_config(wl, seed, wl.flow_steps // 2)}


def commands(wl: Workload, seed: int, work: Path) -> list[tuple[str, list[str]]]:
    """Write the configs; return the (label, argv) commands of one operation."""
    paths = {}
    for name, cfg in configs(wl, seed).items():
        paths[name] = work / name
        paths[name].write_text(json.dumps(cfg))
    if not wl.flow_steps:
        return [("solve", ["solve", "--config", str(paths["solve.json"]),
                           "--out", str(work / "solve")])]
    c = np.random.default_rng(seed).uniform(*C_RANGE)
    start = f"{c:.4f}*phi1"
    full, cut = str(paths["full.json"]), str(paths["cut.json"])
    return [
        ("full", ["flow", "--config", full, "--start", start, "--out", str(work / "full")]),
        ("cut", ["flow", "--config", cut, "--start", start, "--out", str(work / "cut")]),
        ("resume", ["flow", "--config", full, "--resume",
                    str(work / "cut" / "checkpoint.json"), "--out", str(work / "resume")]),
    ]


# -- correctness gate ----------------------------------------------------------


def csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def sign_changes(u: np.ndarray) -> int:
    signs = np.sign(u[np.abs(u) > 1e-8 * np.max(np.abs(u))])
    return int(np.sum(signs[1:] != signs[:-1]))


def discrete_energy_1d(u: np.ndarray) -> float:
    """J(u) = 1/2 u'Au - sum h u^4/4 on the uniform interior grid of (0, 1)."""
    h = 1.0 / (len(u) + 1)
    du = np.diff(np.concatenate([[0.0], u, [0.0]]))
    return float(0.5 * np.sum(du * du) / h - np.sum(h * u**4) / 4.0)


_ORACLE: dict[int, float] = {}


def shooting_energy(xs: np.ndarray) -> float:
    if len(xs) not in _ORACLE:
        from oracles import shooting_sign_changing
        _ORACLE[len(xs)] = shooting_sign_changing(1.0, xs)[1]
    return _ORACLE[len(xs)]


def check_solve(wl: Workload, work: Path) -> tuple[dict, list[str]]:
    out = work / "solve"
    rep = json.loads((out / "minimax_report.json").read_text())
    problems = []
    if rep.get("converged") is not True:
        problems.append("minimax did not converge")
    if rep.get("label") != "sign_changing":
        problems.append(f"label {rep.get('label')}")
    if not rep.get("candidate_slope", np.inf) <= TOL_M:
        problems.append(f"candidate_slope {rep.get('candidate_slope')} above {TOL_M}")
    samples = {}
    if wl.grid["dimension"] == 1:
        rows = csv_rows(out / "solution.csv")
        xs = np.array([float(r[0]) for r in rows])
        u = np.array([float(r[-1]) for r in rows])
        if sign_changes(u) != 1:
            problems.append(f"{sign_changes(u)} sign changes, expected 1")
        j_shoot = shooting_energy(xs)
        err = abs(discrete_energy_1d(u) - j_shoot) / j_shoot
        # the discretization error is O(h^2): scale the n = 127 tolerance
        tol = ENERGY_TOL_127 * (128.0 / (len(u) + 1)) ** 2
        if not err <= tol:
            problems.append(f"energy_rel_err {err:.3e} above {tol:.1e}")
        samples["energy_rel_err"] = err
    return samples, problems


def check_flow(work: Path, walls: dict, written: int) -> tuple[dict, list[str]]:
    problems = []
    for label in ("full", "cut", "resume"):
        verdict = json.loads((work / label / "flow_verdict.json").read_text())
        if verdict.get("passed") is not True:
            problems.append(f"{label} flow verdict failed: {verdict.get('violations')}")
    for name in ("trajectory.csv", "solution.csv"):
        if (work / "full" / name).read_bytes() != (work / "resume" / name).read_bytes():
            problems.append(f"resumed {name} differs from the uninterrupted run")
    states = {label: len(csv_rows(work / label / "trajectory.csv"))
              for label in ("full", "cut", "resume")}
    steps = (states["full"] - 1) + (states["resume"] - states["cut"])
    # every file but the checkpoints is written once, so the rest is checkpoints
    other = sum(p.stat().st_size for p in work.glob("*/*") if p.name != "checkpoint.json")
    samples = {"resume_s": walls["resume"],
               "flow_steps_per_s": steps / (walls["full"] + walls["resume"]),
               "checkpoint_mb": (written - other) / 1e6}
    return samples, problems


def digests(work: Path) -> dict[str, str]:
    """SHA-256 of every CSV/JSON artifact of one operation (run.log excluded)."""
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.glob("*/*")) if p.suffix in (".csv", ".json")}


# -- measurement ---------------------------------------------------------------


def bytes_written() -> int:
    with open("/proc/self/io") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("wchar:"))


@dataclass
class Operation:
    traced: bool
    samples: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def run_operation(wl: Workload, seed: int, work: Path, cli_main, tracer) -> Operation:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    op = Operation(traced=tracer is not None)
    cmds = commands(wl, seed, work)
    walls, codes = {}, {}

    def execute():
        for label, argv in cmds:
            t = time.perf_counter()
            codes[label] = cli_main(argv)
            walls[label] = time.perf_counter() - t

    w0, c0, t0 = bytes_written(), time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            execute()
        else:
            tracer.operation(execute)
    except Exception:
        op.problems.append("raised:\n" + traceback.format_exc())
        return op
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    written = bytes_written() - w0
    try:
        bad = {k: v for k, v in codes.items() if v != 0}
        if bad:
            op.problems.append(f"exit codes {bad}")
            return op
        if wl.flow_steps:
            samples, problems = check_flow(work, walls, written)
        else:
            samples, problems = check_solve(wl, work)
            samples.update(solve_s=wall, solve_cpu_s=cpu)
        op.problems += problems
        op.samples = dict(samples, op_s=wall, op_cpu_s=cpu)
        op.digests = digests(work)
    except Exception:
        op.problems.append("check raised:\n" + traceback.format_exc())
    return op


def measure_setup(cfg: dict, repeats: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(cfg)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def program_hash() -> str:
    """SHA-256 of the nodalflow sources and of the numeric stack they run on."""
    h = hashlib.sha256()
    for path in sorted((SRC / "nodalflow").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(f"{platform.python_version()} {np.__version__} {scipy.__version__}".encode())
    return h.hexdigest()


def check_digests(ops: list[Operation], tag: str, program: str) -> dict[str, str] | None:
    """Fail operations whose artifacts differ from those of the same inputs under
    the same program: the first passing operation of this run, or an earlier run
    in this checkout.  The record is keyed by ``program_hash``, so a change to the
    program starts a new record instead of failing against the old bytes."""
    record = OUT / "digests" / program[:16] / f"{tag}.json"
    ref, where = None, None
    if record.exists():
        ref, where = json.loads(record.read_text()), "an earlier run of this program"
    for i, op in enumerate(ops, start=1):
        if not op.digests:
            continue
        if ref is None:
            if op.problems:
                continue    # only an operation that passed its gate sets the reference
            ref, where = op.digests, f"operation {i}"
            record.parent.mkdir(parents=True, exist_ok=True)
            tmp = record.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(ref, indent=1, sort_keys=True))
            os.replace(tmp, record)
            continue
        changed = sorted(k for k in ref.keys() | op.digests.keys()
                         if ref.get(k) != op.digests.get(k))
        if changed:
            op.problems.append(f"artifacts differ from {where}: {changed}")
            print(f"  problem: {op.problems[-1]}")
    return ref


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            **{var: os.environ[var] for var in BLAS_THREAD_VARS}}


def run_workload(wl: Workload, args, declared: dict) -> int:
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import nodalflow
    from nodalflow.cli import main as cli_main
    if Path(nodalflow.__file__).resolve().parent != SRC / "nodalflow":
        raise SystemExit(f"imported nodalflow from {nodalflow.__file__}, not {SRC}")

    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    tag = f"{'smoke-' if args.smoke else ''}{wl.name}-{args.seed}"
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    work = OUT / f"work-{os.getpid()}"
    setup = measure_setup(next(iter(configs(wl, args.seed).values())),
                          2 if args.smoke else SETUP_REPEATS)

    ops: list[Operation] = []
    tracer = Tracer() if args.trace else None
    t_start = time.perf_counter()
    try:
        for traced in ([False, True] if args.trace else [False]):
            phase_start = len(ops)
            while True:
                if traced:
                    tracer.install()
                try:
                    op = run_operation(wl, args.seed, work, cli_main,
                                       tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                ops.append(op)
                print(f"op {len(ops)} {'traced' if traced else 'untraced'} "
                      f"{'ok' if not op.problems else 'FAILED'} "
                      f"op_s={op.samples.get('op_s', float('nan')):.4f} "
                      f"op_cpu_s={op.samples.get('op_cpu_s', float('nan')):.4f}", flush=True)
                for problem in op.problems:
                    print(f"  problem: {problem}")
                if args.trace and not traced:
                    break   # one untraced operation, for the overhead ratio
                elapsed = time.perf_counter() - t_start
                last = op.samples.get("op_s", elapsed / (len(ops) - phase_start))
                if elapsed + last > args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    program = program_hash()
    print(f"program {program}")
    ref = check_digests(ops, tag, program)
    failed = sum(1 for op in ops if op.problems)
    good = [op for op in ops if not op.problems]
    metrics: dict[str, tuple[float, int, str]] = {}

    def put(name, values):
        if values:
            metrics[name] = (statistics.median(values), len(values), unit_of(name))

    untraced = [op for op in good if not op.traced]
    for name in E2E_UNITS:
        put(name, [op.samples[name] for op in untraced if name in op.samples])
    put("setup_s", setup)
    put("peak_rss_mb", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6])
    metrics["fail_ratio"] = (failed / len(ops), len(ops), unit_of("fail_ratio"))

    if tracer is not None:
        traced = [op for op in ops if op.traced]
        for i, op in enumerate(traced, start=1):
            op.layers = summarize([s for s in tracer.spans if s.trace_id == i])
            if op.layers["trace.stage_coverage"] < 0.95:
                print(f"warning: traced operation {i}: stage spans cover only "
                      f"{op.layers['trace.stage_coverage']:.1%} of its wall time")
        traced = [op for op in traced if not op.problems]
        for name in sorted({k for op in traced for k in op.layers}):
            put(name, [op.layers.get(name, 0.0) for op in traced])
        if traced and untraced:
            put("trace.overhead_ratio",
                [statistics.median(op.samples["op_s"] for op in traced)
                 / statistics.median(op.samples["op_s"] for op in untraced)])
        spans_path = OUT / "spans" / f"{tag}.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(str(spans_path))
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    if ref is not None:
        combined = hashlib.sha256(json.dumps(ref, sort_keys=True).encode()).hexdigest()
        print(f"digest {tag} {combined} ({len(ref)} artifacts)")
        baseline = json.loads((HERE / "baseline_digests.json").read_text())
        recorded = baseline.get(tag)
        if recorded is not None:
            drift = sorted(k for k in recorded.keys() | ref.keys()
                           if recorded.get(k) != ref.get(k))
            print(f"digest drift vs baseline_digests.json: {len(drift)} artifacts {drift}")
    for name, (value, n, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit} n={n}")

    section = "per_layer" if args.trace else "end_to_end"
    result = {}
    for spec in declared[section]:
        if spec["name"] in metrics:
            value, _, unit = metrics[spec["name"]]
            if unit != spec["unit"]:
                raise SystemExit(f"{spec['name']}: unit {unit}, declared {spec['unit']}")
            result[spec["name"]] = {"value": value, "unit": unit}
    correct = failed == 0 and len(result) == len(declared[section])

    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": result}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and short flows, for a quick check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    missing = [p for p in (SRC / "nodalflow" / "__init__.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"not a nodalflow source checkout: missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]
                                + (["--smoke"] if args.smoke else []), cwd=ROOT).returncode
                 for name in WORKLOADS]
        return max(codes)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = SMOKE if args.smoke else WORKLOADS
    return run_workload(workloads[args.workload], args, declared)


if __name__ == "__main__":
    sys.exit(main())
