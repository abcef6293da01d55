"""In-memory span tracer for the benchmark's traced run.

The program carries no tracing of its own, so the tracer wraps nodalflow's
public functions where callers look them up: at the attributes of every
nodalflow module that holds them (``from .flow import integrate_flow`` makes
``linking.integrate_flow`` a second reference to the same function) and at
the class attributes of the traced methods.  Each call becomes one span
(name, start, end, parent span, trace id).  Spans stay in memory until the
run writes them out; ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

# Span names are "<layer>.<what>"; the layer is the nodalflow module whose
# work the span measures, except "cli", which holds the pipeline stages and
# artifact writing of nodalflow.cli.
FUNCTIONS = {
    # cli stages (the names nodalflow.cli imports)
    "nodalflow.config:load_config": "cli.config",
    "nodalflow.potential:check_hypotheses": "cli.hypotheses",
    "nodalflow.cones:fit_mu0": "cli.mu0_fit",
    "nodalflow.cones:check_schauder": "cli.schauder",
    "nodalflow.linking:build_frame": "cli.frame",
    "nodalflow.linking:minimax_iterate": "cli.minimax",
    "nodalflow.cli:parse_start": "cli.start",
    "nodalflow.mesh:field_to_csv": "cli.write",
    # layers
    "nodalflow.mesh:build_space": "mesh.build",
    "nodalflow.cones:project_cone": "cones.project",
    "nodalflow.energy:energy": "energy.energy",
    "nodalflow.energy:slope": "energy.slope",
    "nodalflow.flow:integrate_flow": "flow.integrate",
    "nodalflow.flow:resume_flow": "flow.resume",
    "nodalflow.flow:monitor_invariance": "flow.monitor",
    "nodalflow.flow:save_checkpoint": "flow.checkpoint",
    "nodalflow.flow:load_checkpoint": "flow.checkpoint_load",
    "nodalflow.linking:estimate_alpha_beta": "linking.alpha_beta",
    "nodalflow.linking:deform_surface": "linking.sweep",
}

METHODS = {
    "nodalflow.cli:_Run.__init__": "cli.write",
    "nodalflow.cli:_Run.log": "cli.write",
    "nodalflow.cli:_Run.write_text": "cli.write",
    "nodalflow.cli:_Run.write_json": "cli.write",
    "nodalflow.flow:Trajectory.to_csv": "cli.write",
    "nodalflow.mesh:DiscreteSpace.eigenpairs": "mesh.eigen",
    "nodalflow.mesh:DiscreteSpace.solve_reduced": "mesh.reduced_solve",
    "nodalflow.mesh:DiscreteSpace.solve": "mesh.riesz_solve",
    "nodalflow.linking:SurfaceMesh.identity_embedding": "linking.surface",
    "nodalflow.linking:SurfaceMesh.labels": "linking.surface",
    "nodalflow.linking:SurfaceMesh.energies": "linking.surface",
}


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


# A probe runs before the call and returns a function of the result that
# gives the span's info value: a count the per-layer metrics need.
def _probe_project(args, kwargs):
    warm = _arg(args, kwargs, 5, "warm_active") is not None
    return lambda res: (res.iterations, warm)


def _probe_slope(args, kwargs):
    return lambda res: res.iterations


def _probe_flow(args, kwargs):
    resume = kwargs.get("_resume")
    first = len(resume[0]) if resume else 1   # the resumed list grows in place
    return lambda traj: len(traj.states) - first


def _probe_checkpoint(args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    return lambda _: os.path.getsize(path)


def _probe_minimax(args, kwargs):
    return lambda rep: rep.r_estimates[0] - rep.r_final


PROBES = {
    "cones.project": _probe_project,
    "energy.slope": _probe_slope,
    "flow.integrate": _probe_flow,
    "flow.checkpoint": _probe_checkpoint,
    "cli.minimax": _probe_minimax,
}


@dataclass
class Span:
    trace_id: int
    span_id: int
    parent_id: int          # -1 for the operation's root span
    name: str
    start: float
    end: float
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    trace_id: int = 0
    _stack: list[int] = field(default_factory=list)
    _next_id: int = 0
    _patches: list = field(default_factory=list)

    def _wrap(self, fn, name):
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            finish = probe(args, kwargs) if probe else None
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if finish is not None:
                    info = finish(result)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(tracer.trace_id, span_id, parent, name,
                                         start, end, info))
        return traced

    def operation(self, fn, *args):
        """Run fn(*args) as one operation: a new trace id under a root span "op"."""
        self.trace_id += 1
        return self._wrap(fn, "op")(*args)

    def install(self):
        wrappers = {}
        for target, name in FUNCTIONS.items():
            module, attr = target.split(":")
            original = getattr(sys.modules[module], attr)
            wrappers[id(original)] = (original, self._wrap(original, name))
        for modname, module in list(sys.modules.items()):
            if modname != "nodalflow" and not modname.startswith("nodalflow."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for target, name in METHODS.items():
            module, path = target.split(":")
            cls_name, attr = path.split(".")
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            self._patches.append((cls, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(cls, attr, self._wrap(raw, name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_csv(self, path: str):
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("trace_id,span_id,parent_id,name,start_s,end_s,info\n")
            for s in sorted(self.spans, key=lambda s: s.span_id):
                info = "" if s.info is None else repr(s.info).replace(",", ";")
                fh.write(f"{s.trace_id},{s.span_id},{s.parent_id},{s.name},"
                         f"{s.start - t0:.9f},{s.end - t0:.9f},{info}\n")


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation's spans (one root span "op")."""
    by_id = {s.span_id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent_id >= 0:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration

    def self_time(s):
        return s.duration - child_time.get(s.span_id, 0.0)

    def ancestors(s):
        while s.parent_id >= 0:
            s = by_id[s.parent_id]
            yield s.name

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_s: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + self_time(s)
        layer = "untraced" if s.name == "op" else s.name.split(".")[0]
        layer_s[layer] = layer_s.get(layer, 0.0) + self_time(s)

    (root,) = [s for s in spans if s.name == "op"]
    projections = [s for s in spans if s.name == "cones.project"]
    iters = [s.info[0] for s in projections if s.info is not None]
    nontrivial = [i for i in iters if i > 0]
    cold = [s for s in projections if s.info is not None and not s.info[1]]
    warm = [s for s in projections if s.info is not None and s.info[1]]
    flows = [s for s in spans if s.name == "flow.integrate"]
    sweep_flows = [s for s in flows if "linking.sweep" in ancestors(s)]
    extract_flows = [s for s in flows if "cli.minimax" in ancestors(s)
                     and "linking.sweep" not in ancestors(s)]

    def total(name):
        # inclusive time: none of these names nests inside itself
        return sum(s.duration for s in spans if s.name == name)

    def info_sum(name):
        return sum(s.info for s in spans if s.name == name and s.info is not None)

    out = {
        "cli.hypotheses_s": self_s.get("cli.hypotheses", 0.0),
        "cli.mu0_fit_s": self_s.get("cli.mu0_fit", 0.0),
        "cli.schauder_s": self_s.get("cli.schauder", 0.0),
        "cli.frame_s": self_s.get("cli.frame", 0.0),
        "cli.minimax_s": self_s.get("cli.minimax", 0.0),
        "cli.write_s": self_s.get("cli.write", 0.0),
        "mesh.build_s": self_s.get("mesh.build", 0.0),
        "mesh.eigen_s": self_s.get("mesh.eigen", 0.0),
        "mesh.reduced_solves": calls.get("mesh.reduced_solve", 0),
        "mesh.reduced_solve_s": self_s.get("mesh.reduced_solve", 0.0),
        "mesh.riesz_solves": calls.get("mesh.riesz_solve", 0),
        "mesh.riesz_solve_s": self_s.get("mesh.riesz_solve", 0.0),
        "cones.project_calls": len(projections),
        "cones.project_s": self_s.get("cones.project", 0.0),
        "cones.project_total_s": total("cones.project"),
        "cones.project_trivial_ratio": (len(iters) - len(nontrivial)) / max(len(iters), 1),
        "cones.active_set_iters": sum(iters),
        "cones.iters_per_project": sum(nontrivial) / max(len(nontrivial), 1),
        "cones.project_cold_calls": len(cold),
        "cones.project_cold_s": sum(self_time(s) for s in cold),
        "cones.project_warm_calls": len(warm),
        "cones.project_warm_s": sum(self_time(s) for s in warm),
        "energy.energy_calls": calls.get("energy.energy", 0),
        "energy.energy_s": self_s.get("energy.energy", 0.0),
        "energy.slope_calls": calls.get("energy.slope", 0),
        "energy.slope_s": self_s.get("energy.slope", 0.0),
        "energy.slope_qp_iters": info_sum("energy.slope"),
        "flow.integrate_calls": len(flows),
        "flow.steps": sum(s.info for s in flows if s.info is not None),
        "flow.integrate_self_s": self_s.get("flow.integrate", 0.0),
        "flow.checkpoint_writes": calls.get("flow.checkpoint", 0),
        "flow.checkpoint_s": self_s.get("flow.checkpoint", 0.0),
        "flow.checkpoint_bytes": info_sum("flow.checkpoint"),
        "flow.checkpoint_load_s": self_s.get("flow.checkpoint_load", 0.0),
        "linking.alpha_beta_s": total("linking.alpha_beta"),
        "linking.surface_s": total("linking.surface"),
        "linking.sweeps": calls.get("linking.sweep", 0),
        "linking.sweep_s": total("linking.sweep"),
        "linking.sweep_flows": len(sweep_flows),
        "linking.extract_s": sum(s.duration for s in extract_flows),
        "linking.extract_flows": len(extract_flows),
        "linking.extract_steps": sum(s.info for s in extract_flows if s.info is not None),
        "linking.sweep_r_drop": info_sum("cli.minimax"),
        "trace.stage_coverage": child_time.get(root.span_id, 0.0) / root.duration,
        "trace.spans": len(spans),
    }
    for layer, secs in layer_s.items():
        out[f"layer.{layer}_self_s"] = secs
    return out
