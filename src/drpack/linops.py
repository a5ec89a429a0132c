"""Exact linear maximization helpers used by the offline baseline and bound code.

`budget_linmax` solves a whole stack of knapsack rows in one array pass; the
joint offline region is built once as arrays and reused by every linmax.
"""

import numpy as np

from .feasible import Box

_EPS = 1e-12
# vertex_is_optimal: a constraint within _ACTIVE_TOL of its bound counts as
# tight, and the multipliers must rebuild G to _KKT_RTOL * |G|
_ACTIVE_TOL = 1e-9
_KKT_RTOL = 1e-12


def budget_linmax(G, c, ub, *, equality: bool = False) -> np.ndarray:
    """Exact solution of max g'x s.t. c'x <= 1 (or = 1), 0 <= x <= ub for each
    row g of G (a 1-D G is one row); c and ub broadcast to G's shape.

    Costs must be non-negative; zero-cost coordinates take their cap when g > 0.
    Greedy by value-to-cost density (ties by index), exact for a single budget
    row (Dantzig 1957); unless `equality`, the fill stops at the first g <= 0.
    """
    G = np.asarray(G, dtype=float)
    c, ub = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(ub, dtype=float))
    if np.any(c < 0):
        raise ValueError("costs must be non-negative")
    if equality:  # one dot over the paid coordinates per distinct cost row
        for ci, ui in zip(c.reshape(-1, c.shape[-1]), ub.reshape(-1, c.shape[-1])):
            if ci[ci > 0.0] @ ui[ci > 0.0] < 1.0 - 1e-9:
                raise ValueError("budget cannot be met with the given bounds")
    c, ub = (np.broadcast_to(a, G.shape) for a in (c, ub))
    paid = c > 0.0
    cost = np.where(paid, c, 1.0)
    order = np.argsort(np.where(paid, -(G / cost), np.inf), axis=-1, kind="stable")
    g, ub, paid, cost = (np.take_along_axis(a, order, axis=-1) for a in (G, ub, paid, cost))
    # the budget left before each coordinate if all before it took their caps,
    # as a left fold; past one that takes less than its cap it is <= _EPS
    spent = np.where(paid, cost * ub, 0.0)[..., :-1]
    remaining = np.subtract.accumulate(
        np.concatenate([np.ones(G.shape[:-1] + (1,)), spent], axis=-1), axis=-1)
    stop = np.logical_or.accumulate((remaining <= _EPS) | ((g <= 0.0) & (not equality)), axis=-1)
    take = np.where(stop, 0.0, np.minimum(ub, remaining / cost))
    x = np.empty_like(G)
    np.put_along_axis(x, order, np.where(paid, take, np.where(g > 0.0, ub, 0.0)), axis=-1)
    return x


def polytope_inequalities(C, sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit A x <= b rows of the joint offline region, x the flattened n*m
    variable (row-major), plus per-variable upper caps.

    Rows: one budget row per objective (C_i pattern on row i's variables),
    then one sum row per simplex column. Box columns live entirely in the caps.
    The region is down-closed, bounded, and contains the origin.
    """
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    simplex = [t for t, s in enumerate(sets) if not isinstance(s, Box)]
    A = np.zeros((n + len(simplex), n, m))
    A[np.arange(n), np.arange(n)] = C
    A[n + np.arange(len(simplex)), :, simplex] = 1.0
    b = np.concatenate([np.ones(n), [sets[t].scale for t in simplex]])
    caps = np.stack([s.coordinate_caps() for s in sets], axis=1)  # (n, m)
    return A.reshape(len(b), n * m), b, caps.ravel()


def polytope_linmax(region, G) -> np.ndarray:
    """argmax <G, X> over the region (A, b, caps) from `polytope_inequalities`.

    With only the n budget rows (all columns boxes) the problem splits into
    one fractional knapsack per row, solved in closed form; any simplex sum
    row forces a dense LP (HiGHS).
    """
    A, b, caps = region
    G = np.asarray(G, dtype=float)
    n, m = G.shape
    if len(b) == n:
        C = A.reshape(n, n, m)[np.arange(n), np.arange(n)]
        return budget_linmax(G, C, caps.reshape(n, m))

    from scipy.optimize import linprog

    res = linprog(-G.ravel(), A_ub=A, b_ub=b,
                  bounds=list(zip(np.zeros(n * m), caps)), method="highs")
    if not res.success:
        raise RuntimeError(f"inner LP failed: {res.message}")
    return res.x.reshape(n, m)


def vertex_is_optimal(region, v, G) -> bool:
    """True when a KKT certificate proves v an argmax of <G, X> over the LP
    region (A, b, caps) from `polytope_inequalities`.

    With the constraints tight at v (rows with A v >= b - tol, caps with
    v >= cap - tol, zero bounds with v <= tol), non-negative least squares
    looks for multipliers with G = A_act' lam + mu_up - mu_lo; a residual of
    at most 1e-12 |G| certifies v. The closed-form region (box columns only)
    is never checked: `polytope_linmax` is cheaper there than the check.
    """
    A, b, caps = region
    G = np.asarray(G, dtype=float)
    if len(b) == G.shape[0]:
        return False
    g = G.ravel()
    x = np.asarray(v, dtype=float).ravel()
    eye = np.eye(len(g))
    M = np.hstack([A[A @ x >= b - _ACTIVE_TOL].T,
                   eye[:, x >= caps - _ACTIVE_TOL], -eye[:, x <= _ACTIVE_TOL]])
    if M.shape[1] == 0:  # nothing tight (nnls aborts on an empty matrix)
        return not np.any(g)
    from scipy.optimize import nnls

    try:
        _, residual = nnls(M, g)
    except RuntimeError:  # iteration limit: no certificate, solve the LP
        return False
    return bool(residual <= _KKT_RTOL * np.linalg.norm(g))
