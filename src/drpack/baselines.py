"""Offline baselines: Frank-Wolfe with fixed steps, exhaustive grid search,
and the dual objective built from support functions and concave conjugates.

The Frank-Wolfe baseline supplies the denominator of empirical competitive
ratios. Its inner linear maximization over the joint polytope
{X >= 0 : x_t in F_t, c_i . x_i <= 1} is exact (closed form for box columns,
dense LP otherwise). The grid oracle and the conjugate evaluation are
deliberately simple and independent of every other code path; they only run
on tiny instances.
"""

import numpy as np

from .engine import DualPoint, OnlineInstance
from .linops import polytope_inequalities, polytope_linmax, vertex_is_optimal

BRUTE_MAX_VARS = 6
BRUTE_MAX_GRID = 21


def offline_fw(instance: OnlineInstance, K_off: int) -> tuple[np.ndarray, float]:
    """Fixed-step Frank-Wolfe on the full offline problem.

    Runs K_off iterations of X <- X + v/K_off where v maximizes the linearized
    objective over the joint polytope. The polytope is built once per call and
    every iteration's linear maximization reuses it. An iteration keeps the
    previous vertex when its gradient equals the previous one exactly (so an
    all-linear instance solves a single LP) or, on the LP path, when
    `vertex_is_optimal` certifies the vertex for the new gradient by KKT
    multipliers; only the other iterations solve the maximization. The output
    is an average of polytope points, hence feasible.
    """
    if K_off < 1:
        raise ValueError("K_off must be >= 1")
    X = np.zeros((instance.n, instance.m))
    region = polytope_inequalities(instance.C, instance.sets)
    G_last = v = None
    for _ in range(K_off):
        G = instance.grad(X)
        if G_last is None or not (np.array_equal(G, G_last)
                                  or vertex_is_optimal(region, v, G)):
            v = polytope_linmax(region, G)
        G_last = G
        X += v / K_off
    return X, instance.value(X)


def _grid_axes(instance: OnlineInstance, grid_points: int) -> list:
    caps = instance.row_boxes()
    axes = []
    for i in range(instance.n):
        for t in range(instance.m):
            axes.append(np.linspace(0.0, caps[i, t], grid_points))
    return axes


def _feasible_mask(instance: OnlineInstance, nodes: np.ndarray) -> np.ndarray:
    n, m = instance.n, instance.m
    X = nodes.reshape(len(nodes), n, m)
    ok = np.ones(len(nodes), dtype=bool)
    loads = np.einsum("it,kit->ki", instance.C, X)
    ok &= np.all(loads <= 1.0 + 1e-12, axis=1)
    for t, s in enumerate(instance.sets):
        if s.kind == "scaled_simplex":
            ok &= X[:, :, t].sum(axis=1) <= s.scale + 1e-12
    return ok


def brute_force_opt(instance: OnlineInstance,
                    grid_points: int = 11) -> tuple[np.ndarray, float]:
    """Exhaustive grid search over the joint polytope (tiny instances only)."""
    n, m = instance.n, instance.m
    if n * m > BRUTE_MAX_VARS:
        raise ValueError(f"brute force capped at {BRUTE_MAX_VARS} variables")
    if not 2 <= grid_points <= BRUTE_MAX_GRID:
        raise ValueError(f"grid_points must be in [2, {BRUTE_MAX_GRID}]")
    axes = _grid_axes(instance, grid_points)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n * m)
    nodes = nodes[_feasible_mask(instance, nodes)]
    X = nodes.reshape(len(nodes), n, m)
    total = np.zeros(len(nodes))
    for i, obj in enumerate(instance.objectives):
        total += obj.value_many(X[:, i, :])
    best = int(np.argmax(total))
    return X[best].copy(), float(total[best])


def _conjugate_on_grid(obj, y, box, grid_points: int) -> float:
    """H*(y) = inf_x <x, y> - H(x) over the domain box, by grid enumeration."""
    axes = [np.linspace(0.0, b, grid_points) for b in box]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, obj.m)
    vals = nodes @ y - obj.value_many(nodes)
    return float(np.min(vals))


def dual_objective(instance: OnlineInstance, dual: DualPoint,
                   conjugate_grid: int = 11) -> float:
    """Dual value at (Y, z): any z >= 0 upper-bounds the primal optimum.

    sum_t support_{F_t}(y_t - z * c_t) - sum_i H_i*(y_i) + sum_i z_i, with the
    concave conjugate H* evaluated by grid search over the row's domain box.
    The grid under-estimates the dual value by at most `dual_grid_slack`.
    """
    Y = np.asarray(dual.Y, dtype=float)
    z = np.asarray(dual.z, dtype=float)
    if np.any(z < -1e-12):
        raise ValueError("dual prices must be non-negative")
    n, m = instance.n, instance.m
    if n * m > BRUTE_MAX_VARS * 2:
        raise ValueError("conjugate evaluation is restricted to tiny instances")
    caps = instance.row_boxes()
    support_sum = sum(
        s.support(Y[:, t] - z * instance.C[:, t]) for t, s in enumerate(instance.sets)
    )
    conj_sum = sum(
        _conjugate_on_grid(obj, Y[i], caps[i], conjugate_grid)
        for i, obj in enumerate(instance.objectives)
    )
    return float(support_sum - conj_sum + z.sum())


def dual_grid_slack(instance: OnlineInstance, dual: DualPoint,
                    conjugate_grid: int = 11) -> float:
    """Certified bound on how far the grid conjugate sits above the true one.

    Per row, the conjugate integrand x . y - H(x) is coordinate-wise Lipschitz
    with constant |y_t| + grad_t H(0) (gradients are anti-tone and peak at the
    origin), so the nearest grid node is within sum_t Lip_t * h_t / 2.
    """
    Y = np.asarray(dual.Y, dtype=float)
    G0 = instance.grad(np.zeros((instance.n, instance.m)))
    h = instance.row_boxes() / (conjugate_grid - 1)
    return float(np.sum((np.abs(Y) + G0) * h / 2.0))


def brute_grid_slack(instance: OnlineInstance, grid_points: int = 11) -> float:
    """Bound on OPT minus the best grid node (round any point down to the grid)."""
    G0 = instance.grad(np.zeros((instance.n, instance.m)))
    return float(np.sum(G0 * instance.row_boxes() / (grid_points - 1)))


def weak_duality_gap(instance: OnlineInstance, dual: DualPoint,
                     grid_points: int = 11) -> dict:
    """Convenience check: brute OPT <= dual value + conjugate grid slack."""
    _, opt = brute_force_opt(instance, grid_points)
    dval = dual_objective(instance, dual, grid_points)
    slack = dual_grid_slack(instance, dual, grid_points)
    return {
        "opt_brute": opt,
        "dual_value": dval,
        "grid_slack": slack,
        "ok": opt <= dval + slack + 1e-9,
    }
