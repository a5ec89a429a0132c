"""Per-step feasible sets with exact linear maximization and support functions.

Two shapes cover every application here: scaled boxes and scaled simplices.
Both contain the origin and admit closed-form linear maximization. Ties at
zero inner product resolve to zero so that saturated budgets are never pushed
past their boundary.
"""

import numpy as np


class Box:
    """{x : 0 <= x_j <= bounds_j}."""

    kind = "scaled_box"

    def __init__(self, bounds):
        bounds = np.asarray(bounds, dtype=float) + 0.0  # a -0.0 bound becomes +0.0
        if bounds.ndim != 1 or not np.all(np.isfinite(bounds)) or np.any(bounds < 0):
            raise ValueError("bounds must be a finite non-negative vector")
        self.bounds = bounds

    @property
    def n(self) -> int:
        return len(self.bounds)

    def linear_argmax(self, d) -> np.ndarray:
        # bounds are +0.0 or positive, so the coordinates left out are +0.0
        return self.bounds * (np.asarray(d, dtype=float) > 0.0)

    def support(self, d) -> float:
        d = np.asarray(d, dtype=float)
        return float(self.bounds @ np.maximum(d, 0.0))

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -tol) and np.all(x <= self.bounds + tol))

    def coordinate_caps(self) -> np.ndarray:
        return self.bounds.copy()


class Simplex:
    """{x : x >= 0, sum x <= scale}."""

    kind = "scaled_simplex"

    def __init__(self, n: int, scale: float):
        if n < 1 or not 0 < scale < np.inf:
            raise ValueError("need n >= 1 and finite scale > 0")
        self._n = int(n)
        self.scale = float(scale)

    @property
    def n(self) -> int:
        return self._n

    def linear_argmax(self, d) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        out = np.zeros(self._n)
        j = int(d.argmax())
        if d[j] > 0.0:
            out[j] = self.scale
        return out

    def support(self, d) -> float:
        d = np.asarray(d, dtype=float)
        return float(self.scale * max(0.0, float(np.max(d))))

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -tol) and float(np.sum(x)) <= self.scale + tol)

    def coordinate_caps(self) -> np.ndarray:
        return np.full(self._n, self.scale)
