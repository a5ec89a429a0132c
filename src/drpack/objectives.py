"""Monotone DR-submodular objectives with exact gradients.

Three families are provided: non-concave quadratics whose curvature matrix is
element-wise non-positive, exact multilinear extensions of small monotone
submodular set functions, and linear objectives. All objectives vanish at the
origin, have non-negative anti-tone gradients on their domain, and expose
exact values/gradients. The multilinear extension contracts its table one
element at a time: O(2^v) per value, O(v 2^v) per full gradient, and exact
at integral vertices.

Behaviour that varies by kind lives on the classes: `domain_cap` caps every
coordinate; `grad_range(chat, box) -> (sup, inf)` bounds each gradient
coordinate over the budget face {0 <= x <= box, chat'x = 1} (sup) and over
{0 <= x <= box, chat'x <= 1} (inf); `alpha_lower(chat, box)` is a certified
lower bound, in closed form, on the curvature alpha over that second region;
`smoothness(box)` bounds the gradient's Lipschitz constant. The box passed to
all three is already capped.

Each objective also has the arrival oracle used by the online solver,
`arrival_grad(prefix_row, t) -> (g0, slope)`. While arrival t is open only
coordinate t moves, so gradient coordinate t at the committed prefix plus
x_t in position t equals g0 + slope * x_t. The result depends only on
prefix_row[:t]: slope is H[t, t] for a quadratic and 0 for linear and
multilinear objectives (the multilinear coordinate t does not depend on x_t).
`arrival_slopes` holds that slope for every t.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linops import budget_linmax

MAX_GROUND_SET = 20
VALUE_FLOOR = 1e-9
_L_TOL = 1e-12
# Cap on B * 2^v in one multilinear contraction block: its 512 KB temporaries
# stay in cache and are reused by the allocator, where 8 MB ones are mapped
# and page-faulted afresh on every fold.
_BLOCK_ELEMENTS = 1 << 16


def _require_finite(name, values):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")


def _as_vector(x, m, name="x"):
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise ValueError(f"{name} must have shape ({m},), got {x.shape}")
    return x


_STEP = np.array([-1.0, 1.0])  # multilinear weights of a forward difference


def _weights(X) -> np.ndarray:
    """Per-element weights [1 - x_j, x_j] of X, shape X.shape + (2,)."""
    W = np.empty(np.shape(X) + (2,))
    W[..., 0] = 1.0 - X
    W[..., 1] = X
    return W


def check_ground_set(v) -> int:
    """v as a ground-set size in [0, MAX_GROUND_SET]; call before sizing anything 2^v."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v <= MAX_GROUND_SET:
        raise ValueError(f"ground set size must be an integer in [0, {MAX_GROUND_SET}], got {v!r}")
    return int(v)


def _membership(v) -> np.ndarray:
    """(2^v, v) 0/1 matrix whose row S, column j says whether element j is in S."""
    v = check_ground_set(v)
    return ((np.arange(2**v)[:, None] >> np.arange(v)) & 1).astype(float)


class SetFunctionTable:
    """Set function on a ground set of v elements, stored as a dense 2^v table.

    Subsets are keyed by bitmask: bit j set means element j is in the subset.
    The empty set must map to 0.
    """

    def __init__(self, values):
        v = max(len(values).bit_length() - 1, 0)
        if len(values) != 1 << v:
            raise ValueError("table length must be a power of two")
        self.v = check_ground_set(v)
        self.values = np.asarray(values, dtype=float)
        _require_finite("set function values", self.values)
        if self.values[0] != 0.0:
            raise ValueError("set function must be normalized: f(empty)=0")

    def value(self, mask: int) -> float:
        return float(self.values[mask])

    def _gains(self, masks) -> np.ndarray:
        """f(j | S - j) = f(S + j) - f(S - j) for each bitmask S in masks and
        each element j, shape masks.shape + (v,)."""
        S = np.asarray(masks)[..., None]
        bits = 1 << np.arange(self.v)
        return self.values[S | bits] - self.values[S & ~bits]

    def is_monotone(self, tol: float = 0.0) -> bool:
        return bool(np.all(self._gains(np.arange(2**self.v)) >= -tol))

    def is_submodular(self, tol: float = 1e-12) -> bool:
        # f(j | S) >= f(j | S + k): the gains of the subsets without bit k
        # dominate those of the same subsets with it
        G = self._gains(np.arange(2**self.v))
        for k in range(self.v):
            pairs = G.reshape(-1, 2, 1 << k, self.v)
            if np.any(pairs[:, 0] + tol < pairs[:, 1]):
                return False
        return True

    def total_curvature(self) -> float:
        """1 - min_j f(j | V\\j)/f(j), minimum over elements with f(j) > 0."""
        single, top = self._gains(np.array([0, 2**self.v - 1]))
        counted = single > 0.0
        if not np.any(counted):
            raise ValueError("all singletons are zero; total curvature undefined")
        return float(1.0 - np.min(top[counted] / single[counted]))

    @classmethod
    def cardinality(cls, v: int):
        return cls.modular(np.ones(v))

    @classmethod
    def modular(cls, weights):
        weights = np.asarray(weights, dtype=float)
        return cls(_membership(len(weights)) @ weights)

    @classmethod
    def coverage(cls, covers, element_weights):
        """Weighted coverage: f(S) = total weight of the universe covered by S.

        covers[j] is an iterable of universe indices covered by ground element j.
        """
        element_weights = np.asarray(element_weights, dtype=float)
        universe = len(element_weights)
        incidence = np.zeros((universe, len(covers)))
        for j, items in enumerate(covers):
            # bincount refuses negative indices, the column any beyond the universe
            incidence[:, j] = np.bincount(np.asarray(items, dtype=int), minlength=universe) > 0
        covered = incidence @ _membership(len(covers)).T > 0  # [u, S]: S covers item u
        values = np.zeros(covered.shape[1])
        for u, weight in enumerate(element_weights):
            # a running total in universe-index order
            values[covered[u]] += weight
        return cls(values)

    @classmethod
    def concave_of_modular(cls, weights, coefficients):
        """f(S) = sum_r coefficients[r] * sqrt(sum_{j in S} weights[r, j])."""
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        coefficients = np.asarray(coefficients, dtype=float)
        if np.any(weights < 0) or np.any(coefficients < 0):
            raise ValueError("weights and coefficients must be non-negative")
        return cls(np.sqrt(_membership(weights.shape[1]) @ weights.T) @ coefficients)


class QuadraticObjective:
    """0.5 x'Hx + h'x + c0 with symmetric H; DR-submodular when H <= 0 element-wise."""

    kind = "quadratic"
    domain_cap = math.inf

    def __init__(self, H, h, c0: float = 0.0):
        H = np.asarray(H, dtype=float)
        h = np.asarray(h, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        for name, values in (("H", H), ("h", h), ("c0", c0)):
            _require_finite(name, values)
        if not np.allclose(H, H.T, atol=1e-12, rtol=0.0):
            raise ValueError("H must be symmetric so that the gradient is Hx + h")
        if h.shape != (H.shape[0],):
            raise ValueError("h has wrong shape")
        self.H = H
        self.h = h
        self.c0 = float(c0)
        self.m = H.shape[0]
        self.arrival_slopes = np.diag(H).copy()

    def _check(self, x):
        x = _as_vector(x, self.m)
        if np.min(x, initial=0.0) < -_L_TOL:
            raise ValueError("x must be non-negative")
        return x

    def value(self, x) -> float:
        x = self._check(x)
        return float(0.5 * x @ (self.H @ x) + self.h @ x + self.c0)

    def grad(self, x) -> np.ndarray:
        x = self._check(x)
        return self.H @ x + self.h

    def grad_coord(self, x, t: int) -> float:
        x = self._check(x)
        return float(self.H[t] @ x + self.h[t])

    def arrival_grad(self, prefix_row, t: int) -> tuple[float, float]:
        x = self._check(prefix_row)
        return float(self.H[t, :t] @ x[:t] + self.h[t]), float(self.arrival_slopes[t])

    def hessian(self, x) -> np.ndarray:
        return self.H.copy()

    def value_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return 0.5 * np.einsum("ij,ij->i", X @ self.H, X) + X @ self.h + self.c0

    def grad_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return X @ self.H + self.h[None, :]

    def _knapsack(self, A, chat, box, equality=False) -> np.ndarray:
        """max A[t]'x over {0 <= x <= box, chat'x <= 1 (or = 1)} for every row t."""
        X = budget_linmax(A, chat, box, equality=equality)
        return (A[:, None, :] @ X[:, :, None])[:, 0, 0]  # rounded as A[t] @ X[t] is

    def grad_range(self, chat, box) -> tuple[np.ndarray, np.ndarray]:
        # the gradient is affine, so each bound is an exact fractional knapsack
        if chat @ box >= 1.0 - 1e-12:
            sup = self._knapsack(self.H, chat, box, equality=True) + self.h
        else:
            sup = self.h.copy()  # anti-tone gradient peaks at the origin
        return sup, self.h - self._knapsack(-self.H, chat, box)

    def alpha_lower(self, chat, box) -> float:
        # With M = -H, l = h'u and q = u'Mu/2, the ratio minus one is
        # -q/(l - q) = -rho/(1 - rho) for rho = q/l. Each (Mu)_j is at most its
        # knapsack maximum T_j, so rho <= max_j T_j/(2 h_j) over free coordinates.
        free = box > 0.0
        if self.c0 != 0.0 or np.any(self.h[free] <= 0.0):
            return -1.0
        drop = self._knapsack(-self.H, chat, box)[free]
        rho = 0.5 * float(np.max(drop / self.h[free], initial=0.0))
        if not rho < 0.5:  # the bound would reach -1 (or rho is nan)
            return -1.0
        return float(np.clip(-rho / (1.0 - rho), -1.0, 0.0))

    def smoothness(self, box) -> float:
        # the Hessian is constant: exact max row sum of |H|
        return float(np.abs(self.H).sum(axis=1).max())


class LinearObjective:
    """d'x with non-negative coefficients (gradient is constant, so trivially DR)."""

    kind = "linear"
    domain_cap = math.inf

    def __init__(self, d):
        d = np.asarray(d, dtype=float)
        _require_finite("d", d)
        if np.any(d < 0):
            raise ValueError("linear objective needs non-negative coefficients")
        self.d = d
        self.m = len(d)
        self.arrival_slopes = np.zeros(self.m)

    def value(self, x) -> float:
        return float(self.d @ _as_vector(x, self.m))

    def grad(self, x) -> np.ndarray:
        _as_vector(x, self.m)
        return self.d.copy()

    def grad_coord(self, x, t: int) -> float:
        _as_vector(x, self.m)
        return float(self.d[t])

    def arrival_grad(self, prefix_row, t: int) -> tuple[float, float]:
        _as_vector(prefix_row, self.m)
        return float(self.d[t]), 0.0

    def hessian(self, x) -> np.ndarray:
        return np.zeros((self.m, self.m))

    def value_many(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.d

    def grad_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(self.d, X.shape).copy()

    def grad_range(self, chat, box) -> tuple[np.ndarray, np.ndarray]:
        return self.d, self.d

    def alpha_lower(self, chat, box) -> float:
        return 0.0  # <d, u>/<d, u> - 1 == 0 identically

    def smoothness(self, box) -> float:
        return 0.0


class MultilinearObjective:
    """Exact multilinear extension of a set function.

    F(x) = sum_S f(S) prod_{i in S} x_i prod_{j not in S} (1 - x_j), i.e. the
    expectation of f under independent inclusion with probabilities x.
    Domain is the unit cube.

    Every method contracts the table against per-element weights [w_out, w_in]:
    [1 - x_j, x_j] gives the value, and [-1, 1] on coordinate t (on s and t)
    gives gradient coordinate t (Hessian entry s, t).
    """

    kind = "multilinear"
    domain_cap = 1.0

    def __init__(self, table: SetFunctionTable):
        self.table = table
        self.m = table.v
        self.arrival_slopes = np.zeros(self.m)

    def _check(self, x):
        x = _as_vector(x, self.m)
        if np.min(x) < -_L_TOL or np.max(x) > 1.0 + _L_TOL:
            raise ValueError("x must lie in the unit cube")
        return np.clip(x, 0.0, 1.0)

    def _contract(self, W) -> np.ndarray:
        """sum_S f(S) prod_j W[b, j, (j in S)] for each stack b of W, shape (B, v, 2).

        Folds the table one element at a time, from the highest bit down, in
        blocks of stacks that hold at most _BLOCK_ELEMENTS table entries.
        """
        out = np.empty(len(W))
        rows = max(1, _BLOCK_ELEMENTS >> self.m)
        for lo in range(0, len(W), rows):
            w = W[lo:lo + rows]
            T = self.table.values[None, :]
            half = T.shape[1]
            for j in reversed(range(self.m)):
                # bit j splits the remaining table into its two halves
                half >>= 1
                T = w[:, j, 0, None] * T[:, :half] + w[:, j, 1, None] * T[:, half:]
            out[lo:lo + rows] = T[:, 0]
        return out

    def value(self, x) -> float:
        return float(self._contract(_weights(self._check(x))[None])[0])

    def grad_coord(self, x, t: int) -> float:
        W = _weights(self._check(x))
        W[t] = _STEP
        return float(self._contract(W[None])[0])

    def arrival_grad(self, prefix_row, t: int) -> tuple[float, float]:
        # grad_coord(x, t) does not read x_t, so the slope is 0
        x = self._check(prefix_row)
        x[t:] = 0.0
        return self.grad_coord(x, t), 0.0

    def grad(self, x) -> np.ndarray:
        return self.grad_many(self._check(x)[None])[0]

    def hessian(self, x) -> np.ndarray:
        s, t = np.triu_indices(self.m, 1)
        W = np.repeat(_weights(self._check(x))[None], len(s), axis=0)
        pairs = np.arange(len(s))
        W[pairs, s] = W[pairs, t] = _STEP
        Hm = np.zeros((self.m, self.m))
        Hm[s, t] = Hm[t, s] = self._contract(W)
        return Hm

    def value_many(self, X) -> np.ndarray:
        return self._contract(_weights(np.clip(np.asarray(X, dtype=float), 0.0, 1.0)))

    def grad_many(self, X) -> np.ndarray:
        # stack (b, t) differences coordinate t of X[b]
        X = np.asarray(X, dtype=float)
        W = np.repeat(_weights(X)[:, None], self.m, axis=1)
        diag = np.arange(self.m)
        W[:, diag, diag] = _STEP
        return self._contract(W.reshape(-1, self.m, 2)).reshape(X.shape)

    def grad_range(self, chat, box) -> tuple[np.ndarray, np.ndarray]:
        # anti-tone gradient: certified (possibly conservative) bounds at the
        # origin and at the element-wise largest feasible point
        active = chat > 0.0
        top = np.minimum(box, np.where(active, 1.0 / np.where(active, chat, 1.0), box))
        sup, inf = self.grad_many(np.stack([np.zeros(self.m), top]))
        return sup, inf

    def alpha_lower(self, chat, box) -> float:
        # <grad F(x), x> = E[sum_{j in R} f(j | R - j)] >= (1 - kappa) F(x) for
        # R drawn with probabilities x, on the whole cube
        return float(np.clip(-self.table.total_curvature(), -1.0, 0.0))

    def smoothness(self, box) -> float:
        # sampled, so not certified; it only feeds the finite-K slack report
        rng = np.random.default_rng(0)
        X = rng.uniform(0.0, box, size=(256, self.m))
        Y = rng.uniform(X, box)
        num = np.linalg.norm(self.grad_many(X) - self.grad_many(Y), axis=1)
        den = np.linalg.norm(X - Y, axis=1)
        ok = den > 1e-12
        return float(np.max(num[ok] / den[ok], initial=0.0))


def prefix_grad_coord(obj, omega, t: int) -> float:
    """Gradient coordinate t at a point supported on coordinates 0..t.

    Encodes the online information restriction: only prefixes of the variable
    vector may be queried. Raises if omega has mass beyond position t.
    Evaluated through the arrival oracle as g0 + slope * omega[t].
    """
    omega = _as_vector(omega, obj.m, "omega")
    if t < 0 or t >= obj.m:
        raise ValueError("coordinate out of range")
    if np.any(omega[t + 1:] != 0.0):
        raise ValueError("omega must be zero beyond the prefix coordinate")
    g0, slope = obj.arrival_grad(omega, t)
    return g0 + slope * float(omega[t])


@dataclass
class DrCheckResult:
    ok: bool
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    coord: int | None = None


def check_dr(obj, trials: int = 1000, rng_seed: int = 0,
             tol: float = 1e-9) -> DrCheckResult:
    """Sample ordered pairs x <= y in the unit cube; check grad(x) >= grad(y)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    X = rng.uniform(0.0, 1.0, size=(trials, obj.m))
    Y = rng.uniform(X, 1.0)
    GX = obj.grad_many(X)
    GY = obj.grad_many(Y)
    gap = GY - GX
    worst = np.unravel_index(np.argmax(gap), gap.shape)
    if gap[worst] > tol:
        return DrCheckResult(False, X[worst[0]], Y[worst[0]], int(worst[1]))
    return DrCheckResult(True)


@dataclass
class CurvatureReport:
    """Sampled curvature alpha in [-1, 0] and the point that attains it."""
    alpha: float
    witness: np.ndarray


def _ratio_and_jac(obj, u, floor):
    g = obj.grad(u)
    val = obj.value(u)
    if val <= floor:
        return np.inf, np.zeros_like(u)
    ratio = float(g @ u) / val
    jac = (obj.hessian(u) @ u + g) / val - (g @ u) * g / val**2
    return ratio, jac


def estimate_alpha(obj, chat, domain_box=None, *, samples: int = 2048,
                   refinements: int = 20, seed: int = 0) -> CurvatureReport:
    """Estimate inf <grad H(u), u>/H(u) - 1 over {u >= 0, chat'u <= 1, u in box}.

    Dense grid (dimension <= 4) plus random sampling, followed by multi-start
    local descent (SLSQP). Points where H is below a small value floor are
    excluded to avoid 0/0 at the origin. The sampled minimum upper-bounds the
    true infimum, so the returned alpha is an optimistic (>= exact) estimate;
    it is clamped to [-1, 0]. This is a diagnostic: bounds use the certified
    `obj.alpha_lower(chat, box)`, the other end of the interval. Alpha is at
    most 0, so when that certificate is 0 it is exact and returned unsampled.
    """
    from scipy.optimize import minimize

    chat = _as_vector(chat, obj.m, "chat")
    if np.any(chat < 0) or not np.any(chat > 0):
        raise ValueError("chat must be non-negative with at least one positive entry")
    box = np.ones(obj.m) if domain_box is None else np.asarray(domain_box, dtype=float)
    box = np.minimum(box, obj.domain_cap)

    if obj.alpha_lower(chat, box) == 0.0:
        # every feasible point attains it; this one has chat'u <= 1/2
        witness = np.minimum(box, 0.5 / obj.m / np.maximum(chat, 1e-30))
        return CurvatureReport(0.0, witness)

    corner_value = obj.value(box)
    if corner_value <= 0.0:
        raise ValueError("objective is degenerate on the domain box")
    floor = VALUE_FLOOR * corner_value

    cands = []
    if obj.m <= 4:
        axes = [np.linspace(0.0, b, 25) for b in box]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, obj.m)
        cands.append(grid[grid @ chat <= 1.0 + 1e-12])
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, box, size=(samples, obj.m))
    budget = raw @ chat
    scale = np.minimum(1.0, 1.0 / np.maximum(budget, 1e-30))
    cands.append(raw * scale[:, None])
    on_face = raw / np.maximum(budget, 1e-30)[:, None]
    ok = np.all(on_face <= box[None, :] + 1e-12, axis=1) & (budget > 1e-30)
    cands.append(on_face[ok])
    pts = np.vstack([c for c in cands if len(c)])

    vals = obj.value_many(pts)
    keep = vals > floor
    if not np.any(keep):
        raise ValueError("objective is degenerate on the feasible region")
    pts, vals = pts[keep], vals[keep]
    ratios = np.einsum("ij,ij->i", obj.grad_many(pts), pts) / vals

    order = np.argsort(ratios, kind="stable")
    best_ratio = float(ratios[order[0]])
    best_point = pts[order[0]].copy()

    constraints = [
        {"type": "ineq", "fun": lambda u: 1.0 - chat @ u, "jac": lambda u: -chat},
        {"type": "ineq", "fun": lambda u: obj.value(u) - floor, "jac": obj.grad},
    ]
    bounds = [(0.0, float(b)) for b in box]
    for idx in order[:refinements]:
        try:
            res = minimize(
                lambda u: _ratio_and_jac(obj, u, floor),
                pts[idx],
                jac=True,
                method="SLSQP",
                bounds=bounds,
                constraints=constraints,
                options={"maxiter": 200, "ftol": 1e-12},
            )
        except (ValueError, FloatingPointError):  # pragma: no cover - solver hiccup
            continue
        if not res.success:
            continue
        u = np.clip(res.x, 0.0, box)
        if chat @ u > 1.0 + 1e-9 or obj.value(u) <= floor:
            continue
        r = float(obj.grad(u) @ u / obj.value(u))
        if r < best_ratio:
            best_ratio, best_point = r, u

    alpha = float(np.clip(best_ratio - 1.0, -1.0, 0.0))
    return CurvatureReport(alpha, best_point)


def estimate_smoothness(obj, domain_box) -> float:
    """Upper bound on the gradient Lipschitz constant along signed directions:
    exact for quadratic and linear objectives, sampled for multilinear ones
    (it only feeds the finite-iteration slack report)."""
    return obj.smoothness(np.minimum(np.asarray(domain_box, dtype=float), obj.domain_cap))
