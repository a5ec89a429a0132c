"""Seeded instance generators for the experiment families.

Every family is a pure function of (spec, seed); the PRNG is PCG64 via
numpy's default_rng, so instances are reproducible across platforms. Families:

- quadratic_sec5:   random monotone non-concave quadratics F(x) = (x/2 - 1)'Hx
                    with symmetric H, entries uniform in [-100, 0], h = -H 1;
                    costs uniform in [0, 1]; unit-box column sets.
- adwords:          bids uniform in [0.1, 1]; the objective of each row equals
                    its budget row, so every value-to-weight ratio is exactly
                    1; simplex column sets.
- online_lp:        linear objectives, costs uniform in [0.1, 1] and
                    value-to-weight ratios uniform in [1, 3]; unit-box column
                    sets.
- knapsack_single:  one budget row, costs uniform in [0.05, 0.3]; a linear
                    objective (ratios uniform in [1, e]) or, with
                    params={"objective": "multilinear"}, the multilinear
                    extension of a concave-of-modular function; scalar box
                    sets.
- welfare_simplex:  n agents with coverage valuations, simplex column sets,
                    and no budget rows (cost matrix is zero).
- gap:              simplex column sets plus per-bin budget rows (costs
                    uniform in [0.1, 0.5]) with concave-of-modular bin
                    valuations.

`params` is empty except for knapsack_single's "objective"; any other key is
rejected.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import OnlineInstance
from .feasible import Box, Simplex
from .objectives import LinearObjective, MultilinearObjective, QuadraticObjective, SetFunctionTable

FAMILIES = (
    "quadratic_sec5",
    "adwords",
    "online_lp",
    "knapsack_single",
    "welfare_simplex",
    "gap",
)


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int
    m: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        read = {"objective"} if self.family == "knapsack_single" else set()
        unknown = sorted(set(self.params) - read)
        if unknown:
            raise ValueError(f"{self.family} does not read params {unknown}")


def _symmetric_uniform(rng, m, low, high):
    A = rng.uniform(low, high, size=(m, m))
    return np.tril(A) + np.tril(A, -1).T


def _random_concave_of_modular(rng, v, pieces=3):
    W = rng.uniform(0.2, 1.0, size=(pieces, v))
    coef = rng.uniform(0.5, 1.5, size=pieces)
    return SetFunctionTable.concave_of_modular(W, coef)


def _random_coverage(rng, v):
    universe = 2 * v
    weights = rng.uniform(0.5, 1.5, size=universe)
    covers = []
    for _ in range(v):
        size = int(rng.integers(1, max(2, universe // 2)))
        covers.append(rng.choice(universe, size=size, replace=False))
    return SetFunctionTable.coverage(covers, weights)


def generate(spec: GeneratorSpec) -> OnlineInstance:
    """Build the instance for a generator spec (deterministic in the seed)."""
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n, spec.m

    if spec.family == "quadratic_sec5":
        objectives = []
        for _ in range(n):
            H = _symmetric_uniform(rng, m, -100.0, 0.0)
            objectives.append(QuadraticObjective(H, -H.sum(axis=1)))
        C = rng.uniform(0.0, 1.0, size=(n, m))
        sets = [Box(np.ones(n)) for _ in range(m)]
        return OnlineInstance(C, sets, objectives)

    if spec.family == "adwords":
        C = rng.uniform(0.1, 1.0, size=(n, m))
        objectives = [LinearObjective(C[i].copy()) for i in range(n)]
        sets = [Simplex(n, 1.0) for _ in range(m)]
        return OnlineInstance(C, sets, objectives)

    if spec.family == "online_lp":
        C = rng.uniform(0.1, 1.0, size=(n, m))
        ratios = rng.uniform(1.0, 3.0, size=(n, m))
        objectives = [LinearObjective(C[i] * ratios[i]) for i in range(n)]
        sets = [Box(np.ones(n)) for _ in range(m)]
        return OnlineInstance(C, sets, objectives)

    if spec.family == "knapsack_single":
        if n != 1:
            raise ValueError("knapsack_single takes a single budget row")
        c = rng.uniform(0.05, 0.3, size=m)
        kind = spec.params.get("objective", "linear")
        if kind == "linear":
            ratios = rng.uniform(1.0, math.e, size=m)
            objectives = [LinearObjective(c * ratios)]
        elif kind == "multilinear":
            objectives = [MultilinearObjective(_random_concave_of_modular(rng, m))]
        else:
            raise ValueError(f"unknown knapsack objective {kind!r}")
        sets = [Box(np.ones(1)) for _ in range(m)]
        return OnlineInstance(c[None, :], sets, objectives)

    if spec.family == "welfare_simplex":
        objectives = [MultilinearObjective(_random_coverage(rng, m)) for _ in range(n)]
        C = np.zeros((n, m))
        sets = [Simplex(n, 1.0) for _ in range(m)]
        return OnlineInstance(C, sets, objectives)

    if spec.family == "gap":
        C = rng.uniform(0.1, 0.5, size=(n, m))
        objectives = [
            MultilinearObjective(_random_concave_of_modular(rng, m)) for _ in range(n)
        ]
        sets = [Simplex(n, 1.0) for _ in range(m)]
        return OnlineInstance(C, sets, objectives)

    raise AssertionError("unreachable")
