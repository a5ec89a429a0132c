"""Concave budget penalties and competitive-ratio bound calculators.

A penalty G maps a budget row's load u = c'x to a non-positive value added to
the objective; its derivative acts as the dual price of the row. Two designs
are provided, one for a single budget row and one for several, each with an
optional relaxation parameter epsilon that permits loads up to 1 + epsilon.
Both satisfy G(0) = 0, concavity, monotone non-increase, and the boundary
condition G'(1 + epsilon) = -U that shuts a row off once its budget is spent.

U and L are the offline upper/lower bounds on the value-to-weight ratio of
arriving coordinates; `compute_UL` extracts them from an objective and a cost
row over the region the solver can actually visit (non-negative orthant
intersected with the domain box and the budget).
"""

import math
from dataclasses import dataclass, field

import numpy as np

_E = math.e
L_SHRINK = 1.0 - 1e-9


@dataclass(frozen=True)
class PenaltyModel:
    regime: str
    U: float
    L: float
    epsilon: float = 0.0
    # s = 1 + epsilon and the rate gamma (multi_constraint) or beta (single)
    _s: float = field(init=False, repr=False, compare=False)
    _rate: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.regime not in ("single_constraint", "multi_constraint"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if not all(math.isfinite(v) for v in (self.U, self.L, self.epsilon)):
            raise ValueError("U, L and epsilon must be finite")
        if not 0.0 < self.L <= self.U:
            raise ValueError("need 0 < L <= U")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        if self.regime == "multi_constraint":
            rate = math.log1p(self.U * (_E - 1.0) / self.L)
        else:
            rate = 1.0 + math.log(self.U / self.L)
        object.__setattr__(self, "_s", 1.0 + self.epsilon)
        object.__setattr__(self, "_rate", rate)

    @property
    def load_cap(self) -> float:
        return 1.0 + self.epsilon

    def value(self, u: float) -> float:
        if u < 0.0:
            raise ValueError("load must be non-negative")
        s, rate = self._s, self._rate
        if self.regime == "multi_constraint":
            lead = self.L * s / ((_E - 1.0) * rate)
            return lead * -math.expm1(u * rate / s) + self.L * u / (_E - 1.0)
        theta = s / rate
        if u < theta:
            return -self.L * u
        return -theta * (self.L / _E) * math.exp(rate * u / s)

    def derivative(self, u: float) -> float:
        if u < 0.0:
            raise ValueError("load must be non-negative")
        s, rate = self._s, self._rate
        if self.regime == "multi_constraint":
            return self.L / (_E - 1.0) * -math.expm1(u * rate / s)
        if u < s / rate:
            return -self.L
        return -(self.L / _E) * math.exp(rate * u / s)


@dataclass(frozen=True)
class ZeroPenalty:
    """No-op penalty for rows without a budget (load never constrains); it
    fits only a row whose costs are all zero."""

    regime = "zero"  # a class constant, not a field

    @property
    def load_cap(self) -> float:
        return math.inf

    def value(self, u: float) -> float:
        return 0.0

    def derivative(self, u: float) -> float:
        return 0.0


@dataclass
class BoundReport:
    """Competitive-ratio lower bound plus the run-level quantities around it."""

    regime: str
    theoretical_cr: float
    per_row_terms: np.ndarray
    alpha_used: np.ndarray
    U: np.ndarray
    L: np.ndarray
    epsilon: float = 0.0
    finite_k_slack: float | None = None
    empirical_cr: float | None = None


def theoretical_cr(regime: str, alphas, Us, Ls, epsilon: float = 0.0) -> BoundReport:
    """Worst-case competitive-ratio lower bound for the given penalty design.

    multi:  (1+eps) / max_i { -(1+eps) a_i + ln(1 + U_i (e-1)/L_i) * e/(e-1) }
    single: (1+eps) / ( -(1+eps) a + 1 + ln(U/L) )

    The result is capped at 1. With all U=L, all alphas 0 and epsilon 0 the
    multi-row bound equals 1 - 1/e and the single-row bound equals 1.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    Us = np.atleast_1d(np.asarray(Us, dtype=float))
    Ls = np.atleast_1d(np.asarray(Ls, dtype=float))
    if np.any(alphas < -1.0 - 1e-12) or np.any(alphas > 1e-12):
        raise ValueError("alphas must lie in [-1, 0]")
    if np.any(Ls <= 0) or np.any(Us < Ls):
        raise ValueError("need 0 < L_i <= U_i")
    s = 1.0 + epsilon
    if regime == "multi_constraint":
        terms = -s * alphas + np.log1p(Us * (_E - 1.0) / Ls) * _E / (_E - 1.0)
    elif regime == "single_constraint":
        if len(alphas) != 1:
            raise ValueError("single-constraint bound takes one row")
        terms = -s * alphas + 1.0 + np.log(Us / Ls)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    cr = min(1.0, s / float(np.max(terms)))
    return BoundReport(regime, cr, terms, alphas, Us, Ls, epsilon)


def compute_UL(obj, chat, domain_box) -> tuple[float, float]:
    """Value-to-weight bounds (U, L) for one objective/cost row.

    U = max_t sup { grad_t H(x) : x >= 0, chat'x = 1, x <= box } / c_t
    L = min_t inf { grad_t H(x) : x >= 0, chat'x <= 1, x <= box } / c_t

    Zero-cost coordinates are excluded from the max/min (they never consume
    budget). The per-coordinate sup/inf come from the objective's
    `grad_range`: exact fractional-knapsack solutions for the affine
    quadratic/linear gradients, and certified (possibly conservative) corner
    bounds for the anti-tone multilinear ones. The returned L is shrunk by
    1 - 1e-9 so exact-ratio ties still produce strictly positive directions.
    """
    chat = np.asarray(chat, dtype=float)
    box = np.asarray(domain_box, dtype=float)
    if chat.shape != (obj.m,) or box.shape != (obj.m,):
        raise ValueError("chat/domain_box must match the objective dimension")
    active = chat > 0.0
    if not np.any(active):
        raise ValueError("all coordinates have zero cost; bounds undefined")

    sup, inf = obj.grad_range(chat, np.minimum(box, obj.domain_cap))
    U = float(np.max(sup[active] / chat[active]))
    L = float(np.min(inf[active] / chat[active]))
    if L <= 0.0:
        raise ValueError(
            "lower value-to-weight bound is not positive: the gradient vanishes at "
            "a feasible point (a quadratic_sec5 row's gradient does at the all-ones "
            "corner when the budget admits it), and the penalties need L > 0"
        )
    return U, L * L_SHRINK
