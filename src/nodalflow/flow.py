"""Descending flow du/dt = -v(u).

v is the normalized minimal-norm Riesz descent field scaled by (1 + ||u||).
The paper's band cutoff rho and excision cutoff psi are not used: the identity
is the minimax's only deformation, so every flow is the plain descent.
Integration is explicit Euler with an Armijo-style acceptance enforcing a
guaranteed energy decrease per step, and a step cap dt <= 1/(1+||u||) inside
cone neighborhoods so each accepted step is a convex combination of u and the
invariance displacement u - v(u)/(1+||u||).

The product A u is formed once per field: for the initial state in
``make_state``, and for each Armijo trial in ``integrate_flow``.  The trial's
energy, and on acceptance its subdifferential box, slope and H^1 norm, all
read that one array, and so does the projection that measures a state in P
or -P from the other cone; only the cone-distance bounds that label any
other state form their own products.  A loaded state carries its norm from
``load_checkpoint``, so a resume forms only the slope of its head.

A checkpoint is JSON Lines, appended to and never rewritten: one row per state
with its ``trajectory.csv`` values and its field ``u`` as the base64 of the
little-endian float64 bytes, and a commit line ``{"dt_next", "step"}`` after
each batch of rows.  The fields reload bit for bit, with nothing printed or
parsed as decimals.
"""

from __future__ import annotations

import base64
import io
import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .cones import RegionLabel, project_cone, region_of
from .energy import EnergyProblem, SlopeResult, energy, slope
from .mesh import DiscreteSpace

ARMIJO_C1 = 1e-4
DT0 = 0.05       # first step of a fresh flow
DT_MIN = 1e-12   # a step below this fails the flow
DT_MAX = 0.5     # step ceiling
ENERGY_SLACK = 5e-14   # relative rounding slack of an energy comparison
DISP_CAP = 0.5   # per-step displacement bound: dt <= DISP_CAP/(1+||u||)
CONE_TOL = 1e-7  # slack of monitor_invariance on a cone distance past mu0
INTERNAL = {"internal": True}   # field metadata: set by the solver, not by a config


class Termination(str, Enum):
    SLOPE_BELOW_TOL = "slope_below_tol"
    MAX_TIME = "max_time"
    MAX_STEPS = "max_steps"
    STEP_FAILURE = "step_failure"
    ENERGY_FLOOR = "energy_floor"     # optional early exit for basin classification


@dataclass(frozen=True)
class FlowConfig:
    mu0: float = field(default=0.25, metadata=INTERNAL)
    tol_m: float = 1e-6
    t_max: float = 50.0
    max_steps: int = 20000
    j_floor: float | None = field(default=None, metadata=INTERNAL)  # stop below this energy
    checkpoint_every: int | None = None

    def __post_init__(self):
        if self.tol_m <= 0:
            raise ValueError("tol_m must be positive")


@dataclass
class FlowState:
    """One point of a flow.

    ``norm`` is the H^1 norm of u, or None for a state loaded without a
    space.  ``d_plus`` and ``d_minus`` are dist(u, P) and dist(u, -P): set
    by ``make_state`` for a state in P or -P, otherwise projected in
    ``space`` when first read and then kept.  ``norm`` is not part of ``summary``.
    """

    t: float
    u: np.ndarray
    j: float
    m: float
    label: RegionLabel
    dt_used: float
    norm: float | None
    space: DiscreteSpace | None

    @cached_property
    def d_plus(self) -> float:
        return project_cone(self.space, self.u, 1).distance

    @cached_property
    def d_minus(self) -> float:
        return project_cone(self.space, self.u, -1).distance

    def summary(self) -> dict:
        return {"t": self.t, "j": self.j, "m": self.m, "d_plus": self.d_plus,
                "d_minus": self.d_minus, "label": self.label.value, "dt": self.dt_used}


@dataclass
class Trajectory:
    states: list[FlowState]
    termination: Termination

    @property
    def final(self) -> FlowState:
        return self.states[-1]

    def to_csv(self, header_lines: tuple[str, ...] = ()) -> str:
        buf = io.StringIO()
        for line in header_lines:
            buf.write(f"# {line}\n")
        buf.write("t,j,m,d_plus,d_minus,label,dt\n")
        for s in self.states:
            buf.write(f"{s.t!r},{s.j!r},{s.m!r},{s.d_plus!r},{s.d_minus!r},"
                      f"{s.label.value},{s.dt_used!r}\n")
        return buf.getvalue()


def pseudo_gradient(prob: EnergyProblem, u: np.ndarray,
                    slope_result: SlopeResult | None = None,
                    norm_u: float | None = None) -> np.ndarray:
    """Descent field (1+||u||) * min(m,1) * v*/m; zero at critical points.

    Satisfies ||v|| <= (1+||u||) and <g*, v> = (1+||u||) m^2 / max(m, 1).
    ``slope_result`` and ``norm_u``, when given, are slope(prob, u) and ||u||.
    """
    res = slope_result if slope_result is not None else slope(prob, u)
    if res.value <= 1e-300:
        return prob.space.zero_field()
    if norm_u is None:
        norm_u = prob.space.h1_norm(u)
    return (1.0 + norm_u) * min(res.value, 1.0) / res.value * res.riesz


def make_state(prob: EnergyProblem, u: np.ndarray, t: float, dt_used: float, mu0: float,
               w0: np.ndarray | None, j: float | None = None,
               au: np.ndarray | None = None) -> tuple[FlowState, SlopeResult]:
    """The flow state at u and its slope result; ``w0`` warm-starts the slope
    QP, and ``j`` and ``au``, when given, are energy(prob, u) and A u.

    A state in P or -P gets both cone distances now, the one to the other
    cone by project_cone from the same A u, and its label from them; any
    other state is labelled by region_of's bounds and projects when read."""
    space = prob.space
    if au is None:
        au = space.A @ u
    res = slope(prob, u, w0=w0, au=au)
    # the bits of space.h1_norm(u), from the same A u
    norm = float(np.sqrt(max(float(u @ au), 0.0)))
    dists = None
    if np.all(u >= 0.0):
        dists = (0.0, project_cone(space, u, -1, au).distance)
    elif np.all(u <= 0.0):
        dists = (project_cone(space, u, 1, au).distance, 0.0)
    state = FlowState(t, u.copy(), energy(prob, u, au) if j is None else j, res.value,
                      region_of(space, u, mu0, dists), dt_used, norm, space)
    if dists is not None:
        state.d_plus, state.d_minus = dists
    return state, res


def integrate_flow(prob: EnergyProblem, u0: np.ndarray, config: FlowConfig,
                   checkpoint_path: str | None = None,
                   _resume: tuple[list[FlowState], float, bytes] | None = None) -> Trajectory:
    """Energy-monotone explicit Euler integration of the descending flow.

    A step from u with field v(u) is accepted only if the energy drops by at
    least ARMIJO_C1 * dt * m(u)^2/(1+||u||); dt halves on rejection and grows
    1.5x on acceptance within [DT_MIN, cap].
    """
    space = prob.space
    saved = 0   # states[:saved] are committed to checkpoint_path
    if _resume is not None:
        states, dt, committed = _resume
        if checkpoint_path and config.checkpoint_every:
            # the loaded states go out as the source's bytes, not re-encoded
            with open(checkpoint_path, "wb") as fh:
                fh.write(committed)
            saved = len(states)
        res = slope(prob, states[-1].u)   # the loaded head carries its norm
    else:
        u0 = space.check_field(u0)
        state, res = make_state(prob, u0, 0.0, 0.0, config.mu0, None)
        states = [state]
        dt = DT0

    termination = None
    while True:
        s = states[-1]
        norm_u = s.norm
        if (1.0 + norm_u) * s.m <= config.tol_m:
            termination = Termination.SLOPE_BELOW_TOL
            break
        if s.t >= config.t_max:
            termination = Termination.MAX_TIME
            break
        if len(states) > config.max_steps:
            termination = Termination.MAX_STEPS
            break
        if config.j_floor is not None and s.j < config.j_floor:
            termination = Termination.ENERGY_FLOOR
            break
        v = pseudo_gradient(prob, s.u, res, norm_u)   # res is the slope at s

        # ||v|| <= (1+||u||), so the displacement cap bounds each step's arc
        # length; trajectories then track the flow through saddle regions
        cap = min(DT_MAX, DISP_CAP / (1.0 + norm_u))
        if s.label is not RegionLabel.SIGN_CHANGING:
            # keeps each accepted step a convex combination with the
            # invariance displacement, so cone neighborhoods stay invariant
            cap = min(cap, 1.0 / (1.0 + norm_u))
        dt = min(max(dt, DT_MIN), cap)

        accepted = False
        while dt >= DT_MIN:
            trial = s.u - dt * v
            a_trial = space.A @ trial
            j_trial = energy(prob, trial, a_trial)
            required = ARMIJO_C1 * dt * s.m**2 / (1.0 + norm_u)
            slack = ENERGY_SLACK * (1.0 + abs(s.j))
            if j_trial <= s.j and (s.j - j_trial) >= required - slack:
                accepted = True
                break
            dt *= 0.5
        if not accepted:
            termination = Termination.STEP_FAILURE
            break

        new, res = make_state(prob, trial, s.t + dt, dt, config.mu0, res.selection,
                              j_trial, a_trial)
        states.append(new)
        dt = min(dt * 1.5, DT_MAX)
        if (checkpoint_path and config.checkpoint_every
                and (len(states) - 1) % config.checkpoint_every == 0):
            save_checkpoint(checkpoint_path, states, dt, saved)
            saved = len(states)

    if checkpoint_path and config.checkpoint_every and saved < len(states):
        save_checkpoint(checkpoint_path, states, dt, saved)
    return Trajectory(states, termination)


# -- invariance monitoring ------------------------------------------------------


@dataclass
class InvarianceVerdict:
    cone_invariant: bool
    energy_monotone: bool
    gronwall_ok: bool
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.cone_invariant and self.energy_monotone and self.gronwall_ok

    def to_dict(self) -> dict:
        return {"cone_invariant": self.cone_invariant,
                "energy_monotone": self.energy_monotone,
                "gronwall_ok": self.gronwall_ok,
                "passed": self.passed, "violations": self.violations}


def monitor_invariance(traj: Trajectory, mu0: float) -> InvarianceVerdict:
    """Check cone invariance, energy monotonicity and the Gronwall norm bound."""
    if not traj.states:
        raise ValueError("empty trajectory")
    violations: list[dict] = []
    first = traj.states[0]

    cone_ok = True
    if first.label in (RegionLabel.POSITIVE, RegionLabel.OVERLAP):
        for i, s in enumerate(traj.states):
            if s.d_plus > mu0 + CONE_TOL:
                cone_ok = False
                violations.append({"index": i, "kind": "left_positive_neighborhood",
                                   "d_plus": s.d_plus})
    if first.label in (RegionLabel.NEGATIVE, RegionLabel.OVERLAP):
        for i, s in enumerate(traj.states):
            if s.d_minus > mu0 + CONE_TOL:
                cone_ok = False
                violations.append({"index": i, "kind": "left_negative_neighborhood",
                                   "d_minus": s.d_minus})

    energy_ok = True
    for i, (a, b) in enumerate(zip(traj.states, traj.states[1:]), start=1):
        if b.j > a.j:
            energy_ok = False
            violations.append({"index": i, "kind": "energy_increase", "jump": b.j - a.j})

    gronwall_ok = True
    norm0 = first.norm
    for i, s in enumerate(traj.states):
        if s.norm > (norm0 + 1.0) * np.exp(2.0 * s.t) + 1e-9:
            gronwall_ok = False
            violations.append({"index": i, "kind": "gronwall", "t": s.t})

    return InvarianceVerdict(cone_ok, energy_ok, gronwall_ok, violations)


# -- checkpointing ---------------------------------------------------------------


def _encode_field(u: np.ndarray) -> str:
    return base64.b64encode(u.astype("<f8").tobytes()).decode("ascii")


def _decode_field(text: str) -> np.ndarray:
    # TypeError for a decimal list, ValueError for text not base64 of whole float64s
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8").astype(np.float64)


def save_checkpoint(path: str, states: list[FlowState], dt_next: float, start: int = 0):
    """Commit ``states`` to the JSON Lines checkpoint at ``path``.

    Writes one row per state of ``states[start:]``, then the commit line
    ``{"dt_next", "step"}``.  A row holds the state's ``summary`` values and
    ``u``, the base64 of the field's little-endian float64 bytes, so the field
    reads back bit for bit.  ``start`` 0 begins a new file; otherwise the rows
    are appended after the commit of ``states[:start]``, so each state is
    written once and committed bytes are never rewritten.
    """
    lines = [json.dumps(dict(s.summary(), u=_encode_field(s.u)), sort_keys=True)
             for s in states[start:]]
    lines.append(json.dumps({"dt_next": dt_next, "step": len(states) - 1}, sort_keys=True))
    with open(path, "w" if start == 0 else "a") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Checkpoint:
    """The last commit of a checkpoint file."""

    states: list[FlowState]
    dt_next: float
    committed: bytes   # the file's bytes up to the end of that commit line


def load_checkpoint(path: str, space: DiscreteSpace | None = None) -> Checkpoint:
    """The last commit in the checkpoint at ``path``.

    Rows after the last commit line, and a last line with no newline, are the
    tail of an interrupted write and are ignored.  Raises ValueError when the
    file holds no commit or a complete line that is neither a state row nor a
    commit of the rows before it; a row whose ``u`` is not base64 of whole
    float64s, or not as long as the first row's, is no state row.  With
    ``space``, each state carries its H^1 norm, and a committed field that
    does not fit the space raises MeshError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    states: list[FlowState] = []
    committed, dt_next, end, pos = 0, None, 0, 0
    for number, line in enumerate(io.BytesIO(data), start=1):
        if not line.endswith(b"\n"):
            break
        pos += len(line)
        try:
            row = json.loads(line)
            if "u" in row:
                u = _decode_field(row["u"])
                if not states or u.size == states[0].u.size:
                    state = FlowState(row["t"], u, row["j"], row["m"],
                                      RegionLabel(row["label"]), row["dt"], None, space)
                    state.d_plus, state.d_minus = row["d_plus"], row["d_minus"]
                    states.append(state)
                    continue
            if (set(row) == {"dt_next", "step"} and states
                    and row["step"] == len(states) - 1):
                committed, dt_next, end = len(states), float(row["dt_next"]), pos
                continue
        except (ValueError, KeyError, TypeError):
            pass
        raise ValueError(f"{path}: line {number} is neither a state row nor "
                         "the commit of the rows before it")
    if dt_next is None:
        raise ValueError(f"{path}: no committed state")
    del states[committed:]
    if space is not None:
        for s in states:
            s.norm = space.h1_norm(s.u)
    return Checkpoint(states, dt_next, data[:end])


def resume_flow(prob: EnergyProblem, config: FlowConfig, checkpoint: Checkpoint,
                checkpoint_path: str | None = None) -> Trajectory:
    """Continue a checkpointed flow from its last committed state.

    ``checkpoint`` is what load_checkpoint(path, prob.space) returned.  With
    ``config.checkpoint_every`` set, the resumed run writes the source's
    committed bytes and then its own states to ``checkpoint_path``; the source
    is only read.
    """
    return integrate_flow(prob, checkpoint.states[-1].u, config,
                          checkpoint_path=checkpoint_path,
                          _resume=(checkpoint.states, checkpoint.dt_next, checkpoint.committed))
