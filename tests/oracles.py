"""Independent oracle implementations used to derive expected test values.

Everything here is deliberately written from scratch against the definitions
(recursive conditioning, corner enumeration, finite differences, pure grid
scans) so that it shares no code path with the library being tested. The
exceptions are the library's earlier loops: `reference_run_online`, which
re-evaluates every gradient coordinate with `grad_coord` at each micro-step
and against which the arrival-oracle engine is compared,
`reference_offline_fw`, which solves the linear maximization on every
Frank-Wolfe step and against which the once-per-gradient baseline is compared,
and `reference_budget_linmax`, the one-row greedy loop against which the
whole-stack knapsack kernel is compared (with `reference_quadratic_bounds`,
the per-coordinate loops of the quadratic bound methods built on it), and the
per-subset loops of `SetFunctionTable` (`reference_is_monotone`,
`reference_is_submodular`, `reference_total_curvature`, `reference_coverage`),
against which its array forms are compared.
`recording` lets a test see each micro-step's direction and vertex without the
solver keeping them, and `assert_same_microsteps` compares two such logs.
"""

import itertools
import json
import math

import numpy as np

from drpack.engine import DualPoint, OnlineInstance, RunTrace, row_loads
from drpack.linops import polytope_inequalities, polytope_linmax


def multilinear_value_recursive(values, x):
    """Multilinear extension by conditioning on the last element, recursively."""
    values = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    if len(values) == 1:
        return float(values[0])
    half = len(values) // 2
    without = multilinear_value_recursive(values[:half], x[:-1])
    within = multilinear_value_recursive(values[half:], x[:-1])
    return (1.0 - x[-1]) * without + x[-1] * within


def multilinear_grad_recursive(values, x, t):
    """Coordinate t of the extension gradient via a marginal-gain table."""
    values = np.asarray(values, dtype=float)
    v = int(round(math.log2(len(values))))
    rest = [j for j in range(v) if j != t]
    gains = np.empty(2 ** (v - 1))
    for sub in range(2 ** (v - 1)):
        mask = 0
        for pos, j in enumerate(rest):
            if sub & (1 << pos):
                mask |= 1 << j
        gains[sub] = values[mask | (1 << t)] - values[mask]
    return multilinear_value_recursive(gains, np.asarray(x, dtype=float)[rest])


def central_diff_grad(func, x, rel_step=6e-6):
    """Central finite differences with a per-coordinate adaptive step."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for t in range(len(x)):
        h = rel_step * max(1.0, abs(x[t]))
        hi = x.copy()
        lo = x.copy()
        hi[t] += h
        lo[t] -= h
        g[t] = (func(hi) - func(lo)) / (2.0 * h)
    return g


def box_support_enum(bounds, d):
    """Support function of a box by enumerating all corners."""
    bounds = np.asarray(bounds, dtype=float)
    d = np.asarray(d, dtype=float)
    best = -np.inf
    for corner in itertools.product(*[(0.0, b) for b in bounds]):
        best = max(best, float(np.dot(corner, d)))
    return best


def ratio_grid_min(obj, chat, box, points=101, floor=1e-12):
    """Pure grid scan of <grad H(u), u>/H(u) over the budgeted box."""
    chat = np.asarray(chat, dtype=float)
    box = np.asarray(box, dtype=float)
    axes = [np.linspace(0.0, b, points) for b in box]
    best = np.inf
    arg = None
    for u in itertools.product(*axes):
        u = np.array(u)
        if chat @ u > 1.0 + 1e-12:
            continue
        val = obj.value(u)
        if val <= floor:
            continue
        r = float(obj.grad(u) @ u / val)
        if r < best:
            best, arg = r, u
    return best, arg


def grid_max_on_box(func, box, points=21):
    """Grid maximum of a scalar function over a box (no constraints)."""
    box = np.asarray(box, dtype=float)
    axes = [np.linspace(0.0, b, points) for b in box]
    best = -np.inf
    arg = None
    for u in itertools.product(*axes):
        u = np.array(u)
        val = func(u)
        if val > best:
            best, arg = val, u
    return best, arg


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """json.loads that rejects the NaN and Infinity constants."""
    return json.loads(text, parse_constant=_reject_constant)


# ------------------------------------------------ reference knapsack loops

_EPS = 1e-12


def reference_budget_linmax(g, c, ub, *, equality: bool = False) -> np.ndarray:
    """Exact solution of max g'x s.t. c'x <= 1 (or = 1), 0 <= x <= ub.

    Costs must be non-negative; zero-cost coordinates are handled separately.
    Greedy by value-to-cost density, which is exact for a single budget row.
    """
    g = np.asarray(g, dtype=float)
    c = np.asarray(c, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if np.any(c < 0):
        raise ValueError("costs must be non-negative")

    x = np.zeros_like(g)
    free = c <= 0.0
    x[free & (g > 0.0)] = ub[free & (g > 0.0)]

    paid = np.flatnonzero(~free)
    if equality and c[paid] @ ub[paid] < 1.0 - 1e-9:
        raise ValueError("budget cannot be met with the given bounds")
    density = g[paid] / c[paid]
    order = paid[np.argsort(-density, kind="stable")]
    remaining = 1.0
    for j in order:
        if remaining <= _EPS or (not equality and g[j] <= 0.0):
            break
        take = min(ub[j], remaining / c[j])
        x[j] = take
        remaining -= c[j] * take
    return x


def reference_quadratic_bounds(obj, chat, box):
    """(sup, inf, alpha) of `QuadraticObjective.grad_range` and `alpha_lower`,
    one knapsack per gradient coordinate."""
    m = obj.m
    drop = np.array([-obj.H[t] @ reference_budget_linmax(-obj.H[t], chat, box)
                     for t in range(m)])
    face_feasible = chat @ box >= 1.0 - 1e-12
    sup = np.empty(m)
    for t in range(m):
        if face_feasible:
            x = reference_budget_linmax(obj.H[t], chat, box, equality=True)
        else:
            x = np.zeros(m)
        sup[t] = obj.H[t] @ x + obj.h[t]
    free = box > 0.0
    if obj.c0 != 0.0 or np.any(obj.h[free] <= 0.0):
        return sup, obj.h - drop, -1.0
    rho = 0.5 * float(np.max(drop[free] / obj.h[free], initial=0.0))
    if not rho < 0.5:
        return sup, obj.h - drop, -1.0
    return sup, obj.h - drop, float(np.clip(-rho / (1.0 - rho), -1.0, 0.0))



# ------------------------------------------------ reference set-function loops

def reference_is_monotone(values, tol: float = 0.0) -> bool:
    v = int(round(math.log2(len(values))))
    for mask in range(2**v):
        for j in range(v):
            if not mask & (1 << j) and values[mask | (1 << j)] < values[mask] - tol:
                return False
    return True


def reference_is_submodular(values, tol: float = 1e-12) -> bool:
    # pairwise form: f(S+j) - f(S) >= f(S+j+k) - f(S+k) for j,k not in S
    f = values
    v = int(round(math.log2(len(values))))
    for mask in range(2**v):
        for j in range(v):
            if mask & (1 << j):
                continue
            gain_j = f[mask | (1 << j)] - f[mask]
            for k in range(v):
                if k == j or mask & (1 << k):
                    continue
                with_k = mask | (1 << k)
                if gain_j + tol < f[with_k | (1 << j)] - f[with_k]:
                    return False
    return True


def reference_total_curvature(values) -> float:
    """1 - min_j f(j | V\\j)/f(j), minimum over elements with f(j) > 0."""
    v = int(round(math.log2(len(values))))
    full = 2**v - 1
    ratios = []
    for j in range(v):
        single = values[1 << j]
        if single > 0.0:
            ratios.append((values[full] - values[full & ~(1 << j)]) / single)
    if not ratios:
        raise ValueError("all singletons are zero; total curvature undefined")
    return float(1.0 - min(ratios))


def reference_coverage(covers, element_weights) -> np.ndarray:
    """Coverage table, one subset at a time, summing weights in universe order."""
    element_weights = np.asarray(element_weights, dtype=float)
    v = len(covers)
    cover_masks = []
    for items in covers:
        bits = 0
        for u in items:
            bits |= 1 << int(u)
        cover_masks.append(bits)
    vals = np.zeros(2**v)
    for mask in range(2**v):
        covered = 0
        for j in range(v):
            if mask & (1 << j):
                covered |= cover_masks[j]
        total = 0.0
        u = 0
        while covered >> u:
            if covered & (1 << u):
                total += element_weights[u]
            u += 1
        vals[mask] = total
    return vals

# ------------------------------------------------ reference micro-step loop

def prefix_grad_coord(obj, omega, t: int) -> float:
    """Prefix-validated gradient coordinate, evaluated by grad_coord."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (obj.m,):
        raise ValueError("omega has the wrong shape")
    if t < 0 or t >= obj.m:
        raise ValueError("coordinate out of range")
    if np.any(omega[t + 1:] != 0.0):
        raise ValueError("omega must be zero beyond the prefix coordinate")
    return obj.grad_coord(omega, t)


def _cap_gamma(loads, caps, inc) -> float:
    gamma = 1.0
    for i in range(len(inc)):
        if inc[i] > 0.0 and math.isfinite(caps[i]):
            gamma = min(gamma, (caps[i] - loads[i]) / inc[i])
    return max(0.0, gamma)


def reference_run_online(instance, penalties, cfg, on_step=None):
    """The online solver as an n x K gradient-coordinate loop per arrival."""
    n, m = instance.n, instance.m
    if len(penalties) != n:
        raise ValueError("need one penalty per row")
    K = cfg.K
    omega = np.zeros((n, m))
    loads = np.zeros(n)
    caps = np.array([p.load_cap for p in penalties])
    ratio_min = np.full(n, np.inf)
    ratio_max = np.full(n, -np.inf)

    for t, c_t, F_t in instance.arrivals():
        for _ in range(K):
            d = np.empty(n)
            for i in range(n):
                g = prefix_grad_coord(instance.objectives[i], omega[i], t)
                if c_t[i] > 0.0:
                    r = g / c_t[i]
                    if r < ratio_min[i]:
                        ratio_min[i] = r
                    if r > ratio_max[i]:
                        ratio_max[i] = r
                d[i] = g + c_t[i] * penalties[i].derivative(loads[i])
            v = F_t.linear_argmax(d)
            step = v / K
            step = _cap_gamma(loads, caps, c_t * step) * step
            omega[:, t] += step
            loads += c_t * step
        if on_step is not None:
            on_step(t, omega[:, t].copy())

    final_loads = row_loads(instance.C, omega)
    alg = float(sum(obj.value(omega[i]) for i, obj in enumerate(instance.objectives)))
    p_gseq = alg + float(
        sum(p.value(final_loads[i]) for i, p in enumerate(penalties))
    )
    Y = np.stack([obj.grad(omega[i]) for i, obj in enumerate(instance.objectives)])
    z = np.array([-p.derivative(final_loads[i]) for i, p in enumerate(penalties)])
    return RunTrace(
        allocations=omega,
        loads=final_loads,
        alg=alg,
        p_gseq=p_gseq,
        dual=DualPoint(Y, z),
        config=cfg,
        penalties=list(penalties),
        ratio_min=ratio_min,
        ratio_max=ratio_max,
    )


class RecordingSet:
    """Feasible set that appends each (d, v) of its linear_argmax to a log."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def linear_argmax(self, d):
        v = self._inner.linear_argmax(d)
        self._log.append((np.array(d, dtype=float), np.array(v, dtype=float)))
        return v


def recording(instance):
    """The instance with recording sets, and the log they share.

    A run over the returned instance leaves one (direction, vertex) pair per
    micro-step in the log, in the order the solver made them.
    """
    log = []
    sets = [RecordingSet(s, log) for s in instance.sets]
    return OnlineInstance(instance.C, sets, instance.objectives), log


def assert_same_microsteps(instance, X, new_steps, ref_steps, rtol=1e-12):
    """Two runs ending at X made the same vertices and, up to rounding, the
    same directions.

    An entry g_i + c_i G'_i whose terms cancel carries their rounding, and
    with one row the direction's largest entry is that entry. So entries are
    held to rtol times the largest entry plus the largest gradient coordinate
    the run can meet: it only raises coordinates and the gradient is antitone,
    so each coordinate lies between its values at X and at 0.
    """
    grad_scale = max(np.max(np.abs(instance.grad(np.zeros_like(X)))),
                     np.max(np.abs(instance.grad(X))))
    assert len(new_steps) == len(ref_steps)
    for (d_new, v_new), (d_ref, v_ref) in zip(new_steps, ref_steps):
        assert np.array_equal(v_new, v_ref)
        assert np.all(np.abs(d_new - d_ref) <= rtol * (np.max(np.abs(d_ref)) + grad_scale))


# ---------------------------------------------- reference offline Frank-Wolfe

def reference_offline_fw(instance, K_off):
    """Fixed-step Frank-Wolfe with one linear maximization on every step."""
    X = np.zeros((instance.n, instance.m))
    region = polytope_inequalities(instance.C, instance.sets)
    for _ in range(K_off):
        X += polytope_linmax(region, instance.grad(X)) / K_off
    return X, instance.value(X)
