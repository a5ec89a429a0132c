"""Exact linear maximization helpers used by the offline baseline and bound code.

The joint offline region is built once as arrays and reused by every linmax.
"""

import numpy as np

from .feasible import Box

_EPS = 1e-12
# vertex_is_optimal: a constraint within _ACTIVE_TOL of its bound counts as
# tight, and the multipliers must rebuild G to _KKT_RTOL * |G|
_ACTIVE_TOL = 1e-9
_KKT_RTOL = 1e-12


def budget_linmax(g, c, ub, *, equality: bool = False) -> np.ndarray:
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
        ub = caps.reshape(n, m)
        return np.stack([budget_linmax(G[i], C[i], ub[i]) for i in range(n)])

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
