import numpy as np
import pytest

from drpack.feasible import Box, Simplex

from oracles import box_support_enum


def random_sets():
    rng = np.random.default_rng(0)
    return [
        Box(np.ones(3)),
        Box(rng.uniform(0.5, 2.0, 4)),
        Simplex(3, 1.0),
        Simplex(5, rng.uniform(0.5, 2.0)),
    ], rng


def test_argmax_box_sign_rule():
    b = Box(np.ones(3))
    assert np.array_equal(b.linear_argmax([1.0, -2.0, 0.0]), [1.0, 0.0, 0.0])


def test_argmax_zero_for_nonpositive_direction():
    for s, d in [(Box(np.ones(3)), [-1.0, 0.0, -0.5]),
                 (Simplex(3, 1.0), [-1.0, 0.0, -0.5])]:
        assert np.array_equal(s.linear_argmax(d), np.zeros(3))


def test_argmax_simplex_best_coordinate():
    s = Simplex(3, 1.0)
    assert np.array_equal(s.linear_argmax([0.5, 2.0, -1.0]), [0.0, 1.0, 0.0])


def test_argmax_zeros_are_positive_and_ties_go_first():
    # off its support a vertex is +0.0, even for a -0.0 bound or a NaN entry
    v = Box([-0.0, 2.0, 1.0]).linear_argmax([1.0, np.nan, -1.0])
    assert np.array_equal(v, np.zeros(3)) and not np.any(np.signbit(v))
    assert np.array_equal(Simplex(3, 1.0).linear_argmax([2.0, 2.0, 1.0]), [1.0, 0.0, 0.0])


def test_support_box_vertex_enumeration():
    b = Box(np.ones(3))
    d = np.array([1.0, -2.0, 3.0])
    assert box_support_enum(b.bounds, d) == pytest.approx(4.0)
    assert b.support(d) == pytest.approx(4.0, abs=1e-15)


def test_support_zero_for_nonpositive_direction():
    sets, _ = random_sets()
    for s in sets:
        assert s.support(-np.ones(s.n)) == 0.0


def test_support_subadditive_and_homogeneous():
    sets, rng = random_sets()
    for s in sets:
        for _ in range(50):
            a = rng.normal(size=s.n)
            b = rng.normal(size=s.n)
            assert s.support(a) + s.support(b) >= s.support(a + b) - 1e-12
            lam = rng.uniform(0, 3.0)
            assert s.support(lam * a) == pytest.approx(lam * s.support(a), abs=1e-12)


def test_support_equals_argmax_inner_product():
    sets, rng = random_sets()
    for s in sets:
        for _ in range(100):
            d = rng.normal(size=s.n)
            assert s.support(d) == float(s.linear_argmax(d) @ d)


def test_argmax_dominates_random_members():
    sets, rng = random_sets()
    for s in sets:
        for _ in range(1000):
            d = rng.normal(size=s.n)
            v = s.linear_argmax(d)
            if isinstance(s, Box):
                x = rng.uniform(0, s.bounds)
            else:
                raw = rng.uniform(0, 1, s.n)
                x = raw / raw.sum() * s.scale * rng.uniform(0, 1)
            assert v @ d >= x @ d - 1e-12
            assert s.contains(v, 1e-12)


def test_contains_examples():
    b = Box(np.ones(2))
    assert b.contains([0.5, 1.0], 0.0)
    assert not b.contains([1.0 + 1e-7, 0.0], 1e-9)
    assert not Simplex(2, 1.0).contains([0.6, 0.5], 1e-9)


def test_bad_construction():
    with pytest.raises(ValueError):
        Box([-1.0, 1.0])
    with pytest.raises(ValueError):
        Simplex(0, 1.0)
    with pytest.raises(ValueError):
        Simplex(2, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            Box([bad, 1.0])
        with pytest.raises(ValueError):
            Simplex(2, bad)
