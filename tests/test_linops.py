"""The whole-stack fractional-knapsack kernel against the one-row greedy loop.

Values are drawn from small sets as well as from intervals, so that zero
costs, zero caps, density ties and non-positive values come up often.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drpack.linops import budget_linmax
from drpack.objectives import QuadraticObjective
from oracles import reference_budget_linmax, reference_quadratic_bounds

values = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-10.0, 10.0))
costs = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(1e-3, 5.0))
caps = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 4.0]), st.floats(0.0, 5.0))


@st.composite
def stacks(draw):
    rows, m = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    G = np.array(draw(st.lists(values, min_size=rows * m, max_size=rows * m)))
    # a cost or cap row shared by every g row, or one per g row
    c_rows = draw(st.sampled_from([1, rows]))
    ub_rows = draw(st.sampled_from([1, rows]))
    c = np.array(draw(st.lists(costs, min_size=c_rows * m, max_size=c_rows * m)))
    ub = np.array(draw(st.lists(caps, min_size=ub_rows * m, max_size=ub_rows * m)))
    return G.reshape(rows, m), c.reshape(c_rows, m), ub.reshape(ub_rows, m)


def _reference_rows(G, c, ub, equality):
    """The loop's solution per row, or None if some row's budget cannot be met."""
    c, ub = np.broadcast_to(c, G.shape), np.broadcast_to(ub, G.shape)
    try:
        return np.stack([reference_budget_linmax(G[r], c[r], ub[r], equality=equality)
                         for r in range(len(G))])
    except ValueError as exc:
        assert "cannot be met" in str(exc)
        return None


@settings(max_examples=300, deadline=None)
@given(stack=stacks(), equality=st.booleans())
# caps worth half the budget: met only as an inequality
@example(stack=(np.array([[1.0, 2.0], [3.0, -1.0]]), np.full((1, 2), 0.25),
                np.ones((1, 2))), equality=True)
@example(stack=(np.array([[1.0, 2.0], [3.0, -1.0]]), np.full((1, 2), 0.25),
                np.ones((1, 2))), equality=False)
def test_stack_kernel_equals_the_greedy_loop(stack, equality):
    G, c, ub = stack
    expected = _reference_rows(G, c, ub, equality)
    shared = (c[0], ub[0]) if len(c) == len(ub) == 1 else (c, ub)
    if expected is None:
        with pytest.raises(ValueError, match="cannot be met"):
            budget_linmax(G, *shared, equality=equality)
        return
    assert np.array_equal(budget_linmax(G, *shared, equality=equality), expected)
    # a 1-D g is one row and comes back 1-D
    c_b, ub_b = np.broadcast_to(c, G.shape), np.broadcast_to(ub, G.shape)
    for r in range(len(G)):
        x = budget_linmax(G[r], c_b[r], ub_b[r], equality=equality)
        assert x.shape == G[r].shape
        assert np.array_equal(x, expected[r])


def test_kernel_rejects_negative_costs():
    with pytest.raises(ValueError, match="non-negative"):
        budget_linmax(np.ones((2, 2)), [1.0, -1.0], [1.0, 1.0])


@st.composite
def quadratics(draw):
    m = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    H = np.tril(rng.uniform(-2.0, 0.0, (m, m)) * (rng.uniform(size=(m, m)) < 0.8))
    H = H + np.tril(H, -1).T
    h = -H.sum(axis=1) + draw(st.sampled_from([0.0, 0.5]))
    chat = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.9)
    box = rng.choice([0.0, 0.5, 1.0], size=m, p=[0.1, 0.3, 0.6])
    return QuadraticObjective(H, h), chat * draw(st.sampled_from([0.2, 1.0, 5.0])), box


@settings(max_examples=60, deadline=None)
@given(q=quadratics())
def test_quadratic_bounds_equal_the_per_coordinate_loops(q):
    obj, chat, box = q
    sup, inf, alpha = reference_quadratic_bounds(obj, chat, box)
    got_sup, got_inf = obj.grad_range(chat, box)
    assert np.array_equal(got_sup, sup)
    assert np.array_equal(got_inf, inf)
    assert obj.alpha_lower(chat, box) == alpha
