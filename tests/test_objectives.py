import numpy as np
import pytest

from drpack.objectives import (_BLOCK_ELEMENTS, CurvatureReport,
                               LinearObjective, MultilinearObjective,
                               QuadraticObjective, SetFunctionTable, check_dr,
                               estimate_alpha, estimate_smoothness,
                               prefix_grad_coord)

from oracles import (central_diff_grad, multilinear_grad_recursive,
                     multilinear_value_recursive, ratio_grid_min)


def coverage_pair():
    # f({1}) = f({2}) = f({1,2}) = 1
    return SetFunctionTable([0.0, 1.0, 1.0, 1.0])


def zoo():
    rng = np.random.default_rng(7)
    H = np.tril(rng.uniform(-2.0, 0.0, (4, 4)))
    H = H + np.tril(H, -1).T
    quad = QuadraticObjective(H, -H.sum(axis=1))
    lin = LinearObjective(rng.uniform(0.5, 2.0, 5))
    multi = MultilinearObjective(
        SetFunctionTable.concave_of_modular(rng.uniform(0.2, 1.0, (3, 5)),
                                            rng.uniform(0.5, 1.5, 3)))
    cover = MultilinearObjective(coverage_pair())
    return [quad, lin, multi, cover]


# ---------------------------------------------------------------- evaluation

def test_multilinear_cardinality_eval():
    F = MultilinearObjective(SetFunctionTable.cardinality(2))
    x = np.array([0.5, 0.5])
    expected = multilinear_value_recursive(F.table.values, x)
    assert expected == pytest.approx(1.0, abs=1e-15)
    assert F.value(x) == pytest.approx(1.0, abs=1e-12)


def test_zero_at_origin_exact():
    for obj in zoo():
        assert obj.value(np.zeros(obj.m)) == 0.0


def test_multilinear_matches_table_at_vertices():
    tab = SetFunctionTable.concave_of_modular(
        np.random.default_rng(1).uniform(0.2, 1.0, (2, 4)), [1.0, 0.7])
    F = MultilinearObjective(tab)
    for mask in range(2**4):
        x = np.array([(mask >> j) & 1 for j in range(4)], dtype=float)
        assert F.value(x) == pytest.approx(tab.value(mask), abs=1e-12)


def test_eval_errors():
    F = MultilinearObjective(coverage_pair())
    with pytest.raises(ValueError):
        F.value([0.5, 1.5])
    with pytest.raises(ValueError):
        F.value([0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        QuadraticObjective([[-1.0]], [1.0]).value([-0.5])


def test_constructors_reject_non_finite_data():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            LinearObjective([1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            SetFunctionTable([0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            QuadraticObjective([[-1.0]], [bad])
        with pytest.raises(ValueError, match="finite"):
            QuadraticObjective([[bad]], [1.0])


def random_multilinear(rng, v):
    return MultilinearObjective(SetFunctionTable.concave_of_modular(
        rng.uniform(0.2, 1.0, (3, v)), rng.uniform(0.5, 1.5, 3)))


def test_multilinear_agrees_with_recursive_path():
    rng = np.random.default_rng(3)
    for v in (6, 8):
        F = random_multilinear(rng, v)
        f = F.table.values
        X = rng.uniform(0, 1, (50, v))
        want_value = np.array([multilinear_value_recursive(f, x) for x in X])
        want_grad = np.array([[multilinear_grad_recursive(f, x, t) for t in range(v)]
                              for x in X])
        assert np.allclose(F.value_many(X), want_value, rtol=0.0, atol=1e-12)
        assert np.allclose(F.grad_many(X), want_grad, rtol=0.0, atol=1e-12)
        for x, value, grad in zip(X, want_value, want_grad):
            assert F.value(x) == pytest.approx(value, abs=1e-12)
            assert np.allclose(F.grad(x), grad, rtol=0.0, atol=1e-12)
            t = int(rng.integers(0, v))
            assert F.grad_coord(x, t) == pytest.approx(grad[t], abs=1e-12)


def test_multilinear_hessian_is_the_corner_second_difference():
    rng = np.random.default_rng(4)
    for v in (6, 8):
        F = random_multilinear(rng, v)
        for x in rng.uniform(0, 1, (5, v)):
            want = np.zeros((v, v))
            for s in range(v):
                for t in range(s + 1, v):
                    corner = {}
                    for bs in (0.0, 1.0):
                        for bt in (0.0, 1.0):
                            y = x.copy()
                            y[s], y[t] = bs, bt
                            corner[bs, bt] = multilinear_value_recursive(F.table.values, y)
                    want[s, t] = want[t, s] = (corner[1, 1] - corner[1, 0]
                                               - corner[0, 1] + corner[0, 0])
            assert np.allclose(F.hessian(x), want, rtol=0.0, atol=1e-12)


def test_multilinear_batches_larger_than_a_block_match_single_points():
    # 2^v * len(X) and 2^v * v * len(X) exceed the contraction block, so
    # value_many and grad_many each cross block boundaries
    rng = np.random.default_rng(5)
    v = 10
    F = random_multilinear(rng, v)
    X = rng.uniform(0, 1, (1500, v))
    assert 2**v * len(X) > _BLOCK_ELEMENTS
    values = F.value_many(X)
    grads = F.grad_many(X)
    for i in range(len(X)):
        assert values[i] == F.value(X[i])
        assert np.array_equal(grads[i], F.grad(X[i]))


# ------------------------------------------------------------------ gradient

def test_quadratic_grad_formula():
    q = QuadraticObjective([[-1.0]], [1.0])
    assert q.grad([0.5])[0] == pytest.approx(0.5, abs=1e-15)


def test_coverage_grad_frozen():
    F = MultilinearObjective(coverage_pair())
    g = F.grad([0.5, 0.0])
    oracle = [multilinear_grad_recursive(F.table.values, [0.5, 0.0], t) for t in (0, 1)]
    assert np.allclose(oracle, [1.0, 0.5], atol=1e-15)
    assert np.allclose(g, [1.0, 0.5], atol=1e-12)


def test_grad_at_origin_dominates():
    rng = np.random.default_rng(11)
    for obj in zoo():
        g0 = obj.grad(np.zeros(obj.m))
        for _ in range(20):
            x = rng.uniform(0, 1, obj.m)
            assert np.all(g0 >= obj.grad(x) - 1e-9)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(5)
    for obj in zoo():
        for _ in range(100):
            x = rng.uniform(0.05, 0.95, obj.m)
            g = obj.grad(x)
            fd = central_diff_grad(obj.value, x)
            denom = np.maximum(np.abs(g), 1e-3)
            assert np.max(np.abs(g - fd) / denom) < 1e-6


def test_value_nondecreasing_along_rays():
    rng = np.random.default_rng(13)
    for obj in zoo():
        direction = rng.uniform(0.1, 1.0, obj.m)
        direction /= direction.max()
        steps = np.linspace(0, 1, 11)
        vals = [obj.value(s * direction) for s in steps]
        assert np.all(np.diff(vals) >= -1e-9)


def test_concave_along_signed_directions():
    rng = np.random.default_rng(17)
    for obj in zoo():
        for _ in range(50):
            x = rng.uniform(0.1, 0.6, obj.m)
            v = rng.uniform(0.05, 1.0, obj.m) * rng.choice([-1.0, 1.0])
            headroom = (1.0 - x) / v if v[0] > 0 else x / -v
            t = rng.uniform(0, np.min(headroom))
            lhs = obj.value(x + t * v)
            rhs = obj.value(x) + t * float(obj.grad(x) @ v)
            assert lhs <= rhs + 1e-9


# --------------------------------------------------------------- prefix grad

def test_prefix_grad_consistency():
    for obj in zoo():
        omega = np.zeros(obj.m)
        assert prefix_grad_coord(obj, omega, 0) == pytest.approx(
            obj.grad(omega)[0], abs=1e-12)


def test_arrival_grad_is_affine_in_the_open_coordinate():
    rng = np.random.default_rng(3)
    for obj in zoo():
        for t in range(obj.m):
            x = np.zeros(obj.m)
            x[:t + 1] = rng.uniform(0.0, 1.0, t + 1)
            row = x.copy()
            row[t:] = rng.uniform(0.0, 1.0, obj.m - t)  # the oracle must not read these
            g0, slope = obj.arrival_grad(row, t)
            assert g0 + slope * x[t] == pytest.approx(obj.grad(x)[t], abs=1e-12)


def test_prefix_grad_coverage():
    F = MultilinearObjective(coverage_pair())
    assert prefix_grad_coord(F, np.array([0.5, 0.0]), 1) == pytest.approx(0.5)


def test_prefix_grad_rejects_future_mass():
    F = MultilinearObjective(coverage_pair())
    with pytest.raises(ValueError):
        prefix_grad_coord(F, np.array([0.0, 0.3]), 0)


# ------------------------------------------------------------------ DR check

def test_check_dr_pass_fail():
    ok = check_dr(QuadraticObjective([[-1.0, -0.5], [-0.5, 0.0]], [2.0, 1.0]),
                  trials=500, rng_seed=0)
    assert ok.ok

    bad = check_dr(QuadraticObjective([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]),
                   trials=500, rng_seed=0)
    assert not bad.ok
    assert bad.coord is not None and np.all(bad.x <= bad.y)

    assert check_dr(LinearObjective([1.0, 2.0]), trials=10, rng_seed=0).ok


def test_check_dr_zoo_thousand_pairs():
    for obj in zoo():
        assert check_dr(obj, trials=1000, rng_seed=42).ok


# ----------------------------------------------------------------- curvature

def test_alpha_linear_exact_zero():
    rep = estimate_alpha(LinearObjective([1.0, 3.0]), [1.0, 1.0])
    assert rep.alpha == 0.0
    rep = estimate_alpha(LinearObjective(np.ones(4)), np.ones(4))
    assert rep.alpha == 0.0 and np.ones(4) @ rep.witness <= 1.0


def test_alpha_coverage_one_third():
    F = MultilinearObjective(coverage_pair())
    grid_best, grid_arg = ratio_grid_min(F, [1.0, 1.0], [1.0, 1.0], points=201)
    assert grid_best - 1.0 == pytest.approx(-1.0 / 3.0, abs=1e-3)
    rep = estimate_alpha(F, [1.0, 1.0])
    assert rep.alpha == pytest.approx(-1.0 / 3.0, abs=1e-6)
    assert np.allclose(rep.witness, [0.5, 0.5], atol=1e-4)
    assert F.table.total_curvature() == pytest.approx(1.0)


def test_alpha_one_dim_quadratic():
    q = QuadraticObjective([[-1.0]], [1.0])
    grid_best, _ = ratio_grid_min(q, [1.0], [1.0], points=1001)
    assert grid_best - 1.0 == pytest.approx(-1.0, abs=2e-3)
    rep = estimate_alpha(q, [1.0])
    assert rep.alpha == pytest.approx(-1.0, abs=1e-9)


def test_alpha_range_and_kappa_relation_small():
    rng = np.random.default_rng(23)
    for trial in range(5):
        tab = SetFunctionTable.concave_of_modular(rng.uniform(0.2, 1.0, (2, 5)),
                                                  rng.uniform(0.5, 1.5, 2))
        assert tab.is_monotone() and tab.is_submodular()
        F = MultilinearObjective(tab)
        chat = rng.uniform(0.5, 1.5, 5)
        rep = estimate_alpha(F, chat, refinements=6, seed=trial)
        assert -1.0 <= rep.alpha <= 0.0
        assert rep.alpha >= -tab.total_curvature() - 1e-6


def test_alpha_rejects_bad_chat():
    with pytest.raises(ValueError):
        estimate_alpha(LinearObjective([1.0]), [0.0])


def test_alpha_rejects_degenerate_objective():
    flat = QuadraticObjective([[0.0]], [0.0])
    with pytest.raises(ValueError):
        estimate_alpha(flat, [1.0])


def test_alpha_lower_linear_is_exactly_zero():
    assert LinearObjective([1.0, 3.0]).alpha_lower(np.ones(2), np.ones(2)) == 0.0


def test_alpha_lower_multilinear_is_minus_kappa():
    # coverage with kappa = 1 certifies only -1; its sampled alpha is -1/3
    F = MultilinearObjective(coverage_pair())
    assert F.alpha_lower(np.ones(2), np.ones(2)) == -1.0
    tab = SetFunctionTable.concave_of_modular([[1.0, 0.5, 0.25]], [1.0])
    F = MultilinearObjective(tab)
    assert F.alpha_lower(np.ones(3), np.ones(3)) == pytest.approx(-tab.total_curvature())


def test_alpha_lower_one_dim_quadratics_are_exact():
    # H = -a, h = 1 on [0, 1]: T = a, rho = a/2 and the ratio - 1 is least at
    # u = 1, where it equals -(a/2)/(1 - a/2); at a = 1, rho reaches 1/2
    q = QuadraticObjective([[-1.0]], [1.0])
    assert q.alpha_lower(np.ones(1), np.ones(1)) == -1.0
    q = QuadraticObjective([[-0.5]], [1.0])
    assert q.alpha_lower(np.ones(1), np.ones(1)) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert estimate_alpha(q, [1.0]).alpha == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_quadratic_has_no_constant_term():
    # every objective vanishes at the origin, so there is no c0 to set
    with pytest.raises(TypeError):
        QuadraticObjective([[-1.0]], [1.0], c0=0.5)
    assert QuadraticObjective([[-1.0]], [1.0]).value([0.0]) == 0.0


def test_alpha_lower_quadratic_falls_back_to_minus_one():
    H = [[-0.1, 0.0], [0.0, -0.1]]
    assert QuadraticObjective(H, [1.0, 1.0]).alpha_lower(np.ones(2), np.ones(2)) > -1.0
    assert QuadraticObjective(H, [1.0, 0.0]).alpha_lower(np.ones(2), np.ones(2)) == -1.0
    # a coordinate the box pins at 0 never moves, so its h does not matter
    assert QuadraticObjective(H, [1.0, 0.0]).alpha_lower(np.ones(2), np.array([1.0, 0.0])) > -1.0



def test_arrival_slopes_are_the_arrival_oracle_slopes():
    for obj in zoo():
        zero = np.zeros(obj.m)
        expected = [obj.arrival_grad(zero, t)[1] for t in range(obj.m)]
        assert obj.arrival_slopes.tolist() == expected

# ----------------------------------------------------------- set functions

def test_total_curvature_examples():
    assert SetFunctionTable.modular([1.0, 2.0, 0.5]).total_curvature() == pytest.approx(0.0)
    assert coverage_pair().total_curvature() == pytest.approx(1.0)
    rng = np.random.default_rng(29)
    for _ in range(5):
        tab = SetFunctionTable.concave_of_modular(rng.uniform(0.2, 1.0, (2, 4)),
                                                  rng.uniform(0.5, 1.5, 2))
        assert 0.0 <= tab.total_curvature() <= 1.0


def test_total_curvature_all_zero_singletons():
    with pytest.raises(ValueError):
        SetFunctionTable([0.0, 0.0, 0.0, 0.0]).total_curvature()


def test_generated_tables_are_monotone_submodular():
    rng = np.random.default_rng(31)
    cover = SetFunctionTable.coverage(
        [rng.choice(8, size=3, replace=False) for _ in range(4)],
        rng.uniform(0.5, 1.5, 8))
    assert cover.is_monotone() and cover.is_submodular()
    com = SetFunctionTable.concave_of_modular(rng.uniform(0.2, 1.0, (3, 4)),
                                              rng.uniform(0.5, 1.5, 3))
    assert com.is_monotone() and com.is_submodular()


# ---------------------------------------------------------------- smoothness

def test_smoothness_values():
    q = QuadraticObjective([[-2.0, 0.0], [0.0, -1.0]], [3.0, 3.0])
    assert estimate_smoothness(q, np.ones(2)) == pytest.approx(2.0)
    assert estimate_smoothness(LinearObjective([1.0, 2.0]), np.ones(2)) == 0.0
    F = MultilinearObjective(coverage_pair())
    assert estimate_smoothness(F, np.ones(2)) >= 0.0
