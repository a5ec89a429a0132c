"""SetFunctionTable's array forms against its earlier per-subset loops, and the
ground-set cap refusing before any 2^v allocation.

Tables are drawn from the table constructors and from small value sets, then
perturbed, so that non-monotone and non-submodular tables, exact ties and
gains within the submodularity tolerance all come up.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drpack.generators import GeneratorSpec, generate
from drpack.objectives import MAX_GROUND_SET, SetFunctionTable, check_ground_set
from oracles import (reference_coverage, reference_is_monotone, reference_is_submodular,
                     reference_total_curvature)

NOT_MONOTONE = [0.0, 1.0, 0.5, 0.8]  # f({0, 1}) < f({0})
NOT_SUBMODULAR = [0.0, 1.0, 1.0, 3.0]  # f(1 | {0}) = 2 > f(1 | {}) = 1


def test_explicit_tables_fail_each_check():
    bad_monotone = SetFunctionTable(NOT_MONOTONE)
    assert not bad_monotone.is_monotone() and bad_monotone.is_submodular()
    bad_submodular = SetFunctionTable(NOT_SUBMODULAR)
    assert bad_submodular.is_monotone() and not bad_submodular.is_submodular()
    # a gain that grows by less than the tolerance still counts as submodular
    assert SetFunctionTable([0.0, 1.0, 1.0, 2.0 + 1e-13]).is_submodular()
    assert not SetFunctionTable([0.0, 1.0, 1.0, 2.0 + 1e-13]).is_submodular(tol=0.0)


levels = st.sampled_from([0.0, 0.5, 1.0, 2.0])
deltas = st.one_of(st.sampled_from([-1.0, -1e-12, -1e-13, 1e-13, 1e-12, 0.5]),
                   st.floats(-1.0, 1.0))


@st.composite
def tables(draw):
    v = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["coverage", "concave_of_modular", "modular", "levels"]))
    if kind == "coverage":
        universe = int(rng.integers(1, 2 * v + 1))
        covers = [rng.choice(universe, size=int(rng.integers(0, universe + 1)), replace=False)
                  for _ in range(v)]
        values = SetFunctionTable.coverage(covers, rng.uniform(0.5, 1.5, universe)).values
    elif kind == "concave_of_modular":
        values = SetFunctionTable.concave_of_modular(rng.uniform(0.0, 1.0, (2, v)),
                                                     rng.uniform(0.5, 1.5, 2)).values
    elif kind == "modular":
        values = SetFunctionTable.modular(rng.choice([0.0, 1.0, 2.0], size=v)).values
    else:
        values = np.array([0.0] + draw(st.lists(levels, min_size=2**v - 1, max_size=2**v - 1)))
    values = values.copy()
    for mask, delta in draw(st.lists(st.tuples(st.integers(1, 2**v - 1), deltas), max_size=3)):
        values[mask] += delta
    return values


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from([0.0, 1e-12, 1e-6]))
@example(np.array(NOT_MONOTONE), 1e-12)
@example(np.array(NOT_SUBMODULAR), 1e-12)
@example(np.zeros(4), 0.0)
def test_array_checks_equal_the_subset_loops(values, tol):
    table = SetFunctionTable(values)
    assert table.is_monotone() == reference_is_monotone(values)
    assert table.is_submodular(tol) == reference_is_submodular(values, tol)
    try:
        expected = reference_total_curvature(values)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            table.total_curvature()
    else:
        assert table.total_curvature() == expected


# weights of very different sizes, so that the summation order shows in the bits
weights = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([1e16, -1e16, 1.0, 1e-16, 0.1]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coverage_equals_the_subset_loop(data):
    v = data.draw(st.integers(1, 8))
    universe = data.draw(st.integers(1, 12))
    covers = [data.draw(st.lists(st.integers(0, universe - 1), max_size=universe))
              for _ in range(v)]
    w = data.draw(st.lists(weights, min_size=universe, max_size=universe))
    assert np.array_equal(SetFunctionTable.coverage(covers, w).values,
                          reference_coverage(covers, w))


def test_coverage_refuses_negative_universe_indices():
    with pytest.raises(ValueError, match="negative"):
        SetFunctionTable.coverage([[0], [-1]], [1.0, 1.0])


# ------------------------------------------------------------ ground-set cap

def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc (numpy buffers included) during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refused(call):
    def run():
        with pytest.raises(ValueError, match="ground set size"):
            call()
    return run


def test_traced_peak_sees_numpy_buffers():
    assert traced_peak(lambda: np.zeros(1 << 18)) >= 1 << 21


too_large_table = np.zeros(2 ** (MAX_GROUND_SET + 1))
too_large = [
    pytest.param(lambda: SetFunctionTable(too_large_table), id="table-2^21"),
    pytest.param(lambda: SetFunctionTable.modular(np.ones(40)), id="modular-40"),
    pytest.param(lambda: generate(GeneratorSpec("gap", 2, 21, 0)), id="gap-21"),
    pytest.param(lambda: generate(GeneratorSpec("welfare_simplex", 2, 21, 0)),
                 id="welfare_simplex-21"),
    pytest.param(lambda: generate(GeneratorSpec("knapsack_single", 1, 21, 0,
                                                {"objective": "multilinear"})),
                 id="knapsack_single-multilinear-21"),
]


@pytest.mark.parametrize("call", too_large)
def test_cap_refuses_before_any_large_allocation(call):
    # a 2^21 table alone is 16 MB
    assert traced_peak(refused(call)) < 1 << 20


@pytest.mark.parametrize("v", [-1, 2.5, True, "3", MAX_GROUND_SET + 1])
def test_cap_refuses_malformed_sizes(v):
    with pytest.raises(ValueError, match="ground set size"):
        check_ground_set(v)
    assert check_ground_set(np.int64(MAX_GROUND_SET)) == MAX_GROUND_SET
