"""Smoke test of the benchmark: one command runs every workload on tiny grids
and prints every metric by name with its unit and sample count.

    python3 -m pytest perfbench/test_smoke.py -q     # about half a minute
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "1", "--seconds", "1"]
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

E2E = {"op_s": "s", "op_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
       "fail_ratio": "ratio"}
E2E_BY_WORKLOAD = {
    "bench1d": {"solve_s": "s", "solve_cpu_s": "s", "energy_rel_err": "ratio"},
    "rect2d": {"solve_s": "s", "solve_cpu_s": "s"},
    "flow_resume": {"flow_steps_per_s": "1/s", "resume_s": "s", "checkpoint_mb": "MB"},
}
LAYER = {
    **{f"cli.{n}_s": "s" for n in ("hypotheses", "mu0_fit", "schauder", "frame",
                                   "minimax", "write")},
    "mesh.build_s": "s", "mesh.eigen_s": "s", "mesh.reduced_solves": "count",
    "mesh.reduced_solve_s": "s", "mesh.riesz_solves": "count", "mesh.riesz_solve_s": "s",
    "cones.project_calls": "count", "cones.project_s": "s",
    "cones.project_trivial_ratio": "ratio", "cones.active_set_iters": "count",
    "cones.iters_per_project": "iter/call", "cones.project_cold_calls": "count",
    "cones.project_cold_s": "s", "cones.project_warm_calls": "count",
    "cones.project_warm_s": "s",
    "energy.energy_calls": "count", "energy.energy_s": "s", "energy.slope_calls": "count",
    "energy.slope_s": "s", "energy.slope_qp_iters": "count",
    "flow.integrate_calls": "count", "flow.steps": "count", "flow.integrate_self_s": "s",
    "flow.checkpoint_writes": "count", "flow.checkpoint_s": "s",
    "flow.checkpoint_bytes": "bytes", "flow.checkpoint_load_s": "s",
    "linking.alpha_beta_s": "s", "linking.surface_s": "s", "linking.sweeps": "count",
    "linking.sweep_s": "s", "linking.sweep_flows": "count", "linking.extract_s": "s",
    "linking.extract_flows": "count", "linking.extract_steps": "count",
    "linking.sweep_r_drop": "J", "trace.overhead_ratio": "ratio",
}
METRIC = re.compile(r"^metric (\S+) (\S+) (\S+) n=(\d+)$")


def run(*args):
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def blocks(stdout):
    """Split the output of --workload all into {workload: (metrics, result)}."""
    out, name, metrics = {}, None, {}
    for line in stdout.splitlines():
        if line.startswith("workload "):
            name, metrics = line.split()[1], {}
        elif m := METRIC.match(line):
            float(m.group(2))
            assert int(m.group(4)) >= 1
            metrics[m.group(1)] = m.group(3)
        elif line.startswith("{"):
            out[name] = (metrics, json.loads(line))
    return out


def test_every_metric_is_printed_with_its_unit():
    found = blocks(run("--workload", "all", "--trace", "1"))
    assert set(found) == set(E2E_BY_WORKLOAD)
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for workload, (metrics, result) in found.items():
        expected = {**E2E, **E2E_BY_WORKLOAD[workload], **LAYER, **declared}
        for name, unit in expected.items():
            assert metrics.get(name) == unit, (workload, name, metrics.get(name))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_untraced_result_carries_the_end_to_end_metrics():
    result = json.loads(run("--workload", "flow_resume", "--trace", "0").splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
