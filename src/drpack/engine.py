"""Online sequential Frank-Wolfe solver with penalty-shaped directions.

Arrivals are processed one column at a time. For each arriving cost column
c_t and feasible set F_t, the solver performs K inner Frank-Wolfe micro-steps:
it forms the direction d whose i-th entry is the current prefix gradient of
objective i plus c_{i,t} times the penalty derivative at row i's budget load,
takes the exact linear maximizer of d over F_t, and moves 1/K of the way
toward it. The committed column is emitted before the next arrival is read,
so the solver never peeks at future costs, sets, or gradient coordinates.

While arrival t is open only coordinate t of each row moves, so row i's
gradient coordinate is affine in x_{i,t}: g0 + slope * x_{i,t}. The
objective's arrival oracle `arrival_grad` returns (g0, slope) from the
committed prefix once per row and arrival. A row whose step was zero keeps
the same x_{i,t} and load, so its direction entry cannot change: each
micro-step recomputes only the rows the previous micro-step moved (one on a
simplex arrival), plus one linear maximization over F_t.

The micro-step that would cross a budget boundary is scaled back to land
exactly on it, which keeps every row load at or below its cap for any finite
K.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import prefix_grad_coord

BUDGET_TOL = 1e-9  # slack evaluate_trace allows on loads and set membership


def row_loads(C, X) -> np.ndarray:
    """Budget loads c_i . x_i per row; the one canonical way loads are computed."""
    return (np.asarray(C, dtype=float) * np.asarray(X, dtype=float)).sum(axis=1)


@dataclass
class OnlineInstance:
    """Cost matrix, per-step feasible sets, per-row objectives, and the one
    record of which rows carry a budget (`costed`: costs not all zero)."""

    C: np.ndarray
    sets: list
    objectives: list
    costed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)
        if self.C.ndim != 2:
            raise ValueError("C must be an n x m matrix")
        n, m = self.C.shape
        if len(self.sets) != m:
            raise ValueError("need one feasible set per step")
        if len(self.objectives) != n:
            raise ValueError("need one objective per row")
        if not np.all(np.isfinite(self.C)):
            raise ValueError("costs must be finite")
        if np.any(self.C < 0):
            raise ValueError("costs must be non-negative")
        self.costed = self.C.any(axis=1)
        for s in self.sets:
            if s.n != n:
                raise ValueError("feasible set dimension must equal the row count")
        caps = self.row_boxes()
        for i, obj in enumerate(self.objectives):
            if obj.m != m:
                raise ValueError("objective dimension must equal the step count")
            if np.any(caps[i] > obj.domain_cap):
                raise ValueError(f"feasible set caps exceed row {i}'s objective domain")

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[1]

    def arrivals(self):
        """Yield (t, c_t, F_t) one step at a time."""
        for t in range(self.m):
            yield t, self.C[:, t], self.sets[t]

    def value(self, X) -> float:
        """Objective total sum_i H_i(x_i) of an n x m allocation."""
        return float(sum(obj.value(X[i]) for i, obj in enumerate(self.objectives)))

    def grad(self, X) -> np.ndarray:
        """n x m matrix whose row i is grad H_i(x_i)."""
        return np.stack([obj.grad(X[i]) for i, obj in enumerate(self.objectives)])

    def row_boxes(self) -> np.ndarray:
        """(n, m) per-coordinate caps implied by the feasible sets."""
        return np.stack([s.coordinate_caps() for s in self.sets], axis=1)


@dataclass
class EngineConfig:
    K: int = 50

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")


@dataclass
class DualPoint:
    """Feasible dual point (row gradient matrix Y, non-negative prices z)."""

    Y: np.ndarray
    z: np.ndarray


@dataclass
class RunTrace:
    allocations: np.ndarray            # n x m, column t committed at step t
    loads: np.ndarray                  # budget loads per row at termination
    alg: float                         # sum_i H_i(row i)
    p_gseq: float                      # alg + sum_i G_i(load_i)
    dual: DualPoint
    config: EngineConfig
    penalties: list
    ratio_min: np.ndarray              # per row, extremes of grad_t H_i / c_it over
    ratio_max: np.ndarray              # micro-steps with c_it > 0 (+inf / -inf if none)


def direction(instance: OnlineInstance, penalties, omega, t: int) -> np.ndarray:
    """Penalty-adjusted gradient direction d for step t at state omega.

    omega is the n x m state whose rows hold committed prefixes (columns < t),
    the in-progress column t, and zeros beyond; entry i of the result is
    grad_t H_i(omega_i) + c_{i,t} G'_i(load_i).
    """
    omega = np.asarray(omega, dtype=float)
    loads = row_loads(instance.C[:, : t + 1], omega[:, : t + 1])
    c = instance.C[:, t].tolist()
    return np.array([_entry(prefix_grad_coord(obj, omega[i], t), c[i], penalties[i], loads[i])
                     for i, obj in enumerate(instance.objectives)])


def _entry(g_i: float, c_i: float, penalty, load_i: float) -> float:
    """Direction entry g_i + c_i G'_i(load_i) of a row with gradient coordinate g_i."""
    return g_i + c_i * penalty.derivative(load_i)


def _totals(instance: OnlineInstance, penalties, X) -> tuple[np.ndarray, float, float]:
    """Row loads, ALG = sum_i H_i(x_i) and P = ALG + sum_i G_i(load_i) of X."""
    loads = row_loads(instance.C, X)
    alg = instance.value(X)
    p_gseq = alg + float(sum(p.value(loads[i]) for i, p in enumerate(penalties)))
    return loads, alg, p_gseq


def _misfits(instance: OnlineInstance, penalties) -> list:
    """One message per costed row whose penalty has no finite load cap; a
    penalty count other than one per row is refused outright."""
    if len(penalties) != instance.n:
        raise ValueError("need one penalty per row")
    return [f"row {i} carries a budget but its penalty has no load cap"
            for i in np.flatnonzero(instance.costed)
            if not math.isfinite(penalties[i].load_cap)]


def check_penalties(instance: OnlineInstance, penalties) -> None:
    """Refuse penalties that do not fit: one per row, a finite load cap on each costed row."""
    misfits = _misfits(instance, penalties)
    if misfits:
        raise ValueError("; ".join(misfits))


def run_online(instance: OnlineInstance, penalties, cfg: EngineConfig,
               on_step=None) -> RunTrace:
    """Run the online solver over all arrivals and return the full trace.

    penalties is one penalty object per row. The optional on_step(t, x_t)
    callback fires right after column t is committed, before arrival t+1 is
    read. Runs are deterministic: identical inputs give bit-identical traces.
    """
    n, m = instance.n, instance.m
    check_penalties(instance, penalties)
    K = cfg.K
    omega = np.zeros((n, m))
    loads = [0.0] * n
    caps = [p.load_cap for p in penalties]
    ratio_min = [math.inf] * n
    ratio_max = [-math.inf] * n
    rows = range(n)

    for t, c_t, F_t in instance.arrivals():
        c = c_t.tolist()
        oracle = [obj.arrival_grad(omega[i], t) for i, obj in enumerate(instance.objectives)]
        x = [0.0] * n
        g = [g0 + slope * x[i] for i, (g0, slope) in enumerate(oracle)]
        g_first = g.copy()
        d = np.array([_entry(g[i], c[i], penalties[i], loads[i]) for i in rows])
        moved = []
        for _ in range(K):
            # rows the previous micro-step left alone keep their entries; moved
            # rows are recomputed here, not after the step, so that g ends the
            # arrival as the last micro-step's gradient (the ratio extremes)
            for i in moved:
                g0, slope = oracle[i]
                g[i] = g0 + slope * x[i]
                d[i] = _entry(g[i], c[i], penalties[i], loads[i])
            v = F_t.linear_argmax(d)
            step = [(i, vi / K) for i, vi in enumerate(v.tolist()) if vi]
            # scale the step back so that no cap is crossed (uncosted rows add no load)
            gamma = 1.0
            for i, s in step:
                inc = c[i] * s
                if inc > 0.0:
                    gamma = min(gamma, (caps[i] - loads[i]) / inc)
            if gamma != 1.0:
                gamma = max(0.0, gamma)
                step = [(i, gamma * s) for i, s in step]
            moved = []
            for i, s in step:
                if s:
                    x[i] += s
                    loads[i] += c[i] * s
                    moved.append(i)
        # x_i never decreases (v >= 0, gamma >= 0) and g0 + slope * x_i rounds
        # monotonically, so each g_i / c_i is monotone over the micro-steps:
        # its extremes are the first and the last micro-step's values
        for i in rows:
            if c[i] > 0.0:
                for r in (g_first[i] / c[i], g[i] / c[i]):
                    if r < ratio_min[i]:
                        ratio_min[i] = r
                    if r > ratio_max[i]:
                        ratio_max[i] = r
        omega[:, t] = x
        if on_step is not None:
            on_step(t, omega[:, t].copy())

    final_loads, alg, p_gseq = _totals(instance, penalties, omega)
    Y = instance.grad(omega)
    z = np.array([-p.derivative(final_loads[i]) for i, p in enumerate(penalties)])
    return RunTrace(
        allocations=omega,
        loads=final_loads,
        alg=alg,
        p_gseq=p_gseq,
        dual=DualPoint(Y, z),
        config=cfg,
        penalties=list(penalties),
        ratio_min=np.array(ratio_min),
        ratio_max=np.array(ratio_max),
    )


@dataclass
class TraceEvaluation:
    alg: float
    p_gseq: float
    loads: np.ndarray
    budget_ok: bool
    sets_ok: bool
    violations: list = field(default_factory=list)


def evaluate_trace(instance: OnlineInstance, penalties,
                   trace: RunTrace) -> TraceEvaluation:
    """Recompute objective, penalized objective, and feasibility from scratch.

    A non-finite load, a load above its cap or a costed row with none, a
    column outside its set and a non-finite ALG or P are each a violation.
    An allocation of the wrong shape or a penalty count other than one per
    row raises ValueError.
    """
    X = np.asarray(trace.allocations, dtype=float)
    if X.shape != (instance.n, instance.m):
        raise ValueError("allocation shape does not match the instance")
    rows = _misfits(instance, penalties)
    loads, alg, p_gseq = _totals(instance, penalties, X)
    for i, p in enumerate(penalties):
        if not math.isfinite(loads[i]):
            rows.append(f"row {i} load {loads[i]} is not finite")
        elif loads[i] > p.load_cap + BUDGET_TOL:
            rows.append(f"row {i} load {loads[i]:.12g} exceeds cap {p.load_cap}")
    columns = []
    for t, s in enumerate(instance.sets):
        if not s.contains(X[:, t], BUDGET_TOL):
            columns.append(f"column {t} outside its feasible set")
    violations = rows + columns
    for name, value in (("alg", alg), ("p_gseq", p_gseq)):
        if not math.isfinite(value):
            violations.append(f"objective {name} {value} is not finite")
    return TraceEvaluation(
        alg=alg,
        p_gseq=p_gseq,
        loads=loads,
        budget_ok=not rows,
        sets_ok=not columns,
        violations=violations,
    )
