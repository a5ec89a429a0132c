"""Exact linear maximization helpers used by the offline baseline and bound code."""

import numpy as np

from .feasible import Box

_EPS = 1e-12


def budget_linmax(g, c, ub, *, equality: bool = False,
                  minimize: bool = False) -> np.ndarray:
    """Exact solution of max/min g'x s.t. c'x <= 1 (or = 1), 0 <= x <= ub.

    Costs must be non-negative; zero-cost coordinates are handled separately.
    Greedy by value-to-cost density, which is exact for a single budget row.
    """
    g = np.asarray(g, dtype=float)
    c = np.asarray(c, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if minimize:
        return budget_linmax(-g, c, ub, equality=equality)
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
        if remaining <= _EPS:
            break
        if not equality and g[j] <= 0.0:
            break
        take = min(ub[j], remaining / c[j])
        x[j] = take
        remaining -= c[j] * take
    return x


def polytope_inequalities(C, sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit A x <= b rows of the joint offline region, x the flattened n*m
    variable (row-major), plus per-variable upper caps.

    Rows: one budget row per objective (C_i pattern on row i's variables) and
    one sum row per simplex column. Box columns live entirely in the caps.
    The region is down-closed, bounded, and contains the origin.
    """
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    caps = np.stack([s.coordinate_caps() for s in sets], axis=1)  # (n, m)
    a_rows = []
    b_vals = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i] = C[i]
        a_rows.append(row.ravel())
        b_vals.append(1.0)
    for t, s in enumerate(sets):
        if not isinstance(s, Box):
            row = np.zeros((n, m))
            row[:, t] = 1.0
            a_rows.append(row.ravel())
            b_vals.append(s.scale)
    return np.array(a_rows), np.array(b_vals), caps.ravel()


def polytope_linmax(C, sets, G) -> np.ndarray:
    """argmax <G, X> over {X >= 0 : column t in sets[t], row budgets C_i . X_i <= 1}.

    With box columns the problem splits into one fractional knapsack per row
    and is solved in closed form; any simplex column forces a dense LP (HiGHS).
    """
    C = np.asarray(C, dtype=float)
    G = np.asarray(G, dtype=float)
    n, m = C.shape

    if all(isinstance(s, Box) for s in sets):
        X = np.zeros((n, m))
        caps = np.stack([s.coordinate_caps() for s in sets], axis=1)  # (n, m)
        for i in range(n):
            X[i] = budget_linmax(G[i], C[i], caps[i])
        return X

    from scipy.optimize import linprog

    A, b, caps = polytope_inequalities(C, sets)
    res = linprog(
        -G.ravel(),
        A_ub=A,
        b_ub=b,
        bounds=list(zip(np.zeros(n * m), caps)),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"inner LP failed: {res.message}")
    return res.x.reshape(n, m)
