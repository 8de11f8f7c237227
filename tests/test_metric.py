"""Invariant metric tests: Hadamard action, probe basis, inner product, sampling."""

import numpy as np
import pytest

from conftest import probe_grid, random_tangent
from flagdesic import (
    FlagPartition,
    GaussianRational,
    InvariantMetric,
    Mode,
    TangentVector,
    hadamard_action,
    metric_inner,
    random_metric,
    weyl_vector,
)
from flagdesic.roots import Root


def test_normal_metric_acts_as_identity():
    rng = np.random.default_rng(2)
    p = FlagPartition((2, 1, 1))
    x = random_tangent(p, rng)
    y = hadamard_action(InvariantMetric.normal(p), x)
    assert y.matrix.allclose(x.matrix, tol=0.0) or (y.matrix - x.matrix).is_zero()


def test_single_block_eigenvector_property():
    p = FlagPartition((1, 1, 1))
    x = TangentVector.from_blocks(p, {(1, 2): [[2.0 - 1j]]})
    g = InvariantMetric.from_pairs(p, {(1, 2): 5.0})
    y = hadamard_action(g, x)
    assert np.array_equal(y.matrix.data, 5.0 * x.matrix.data)


def test_hadamard_block_scaling_f3():
    p = FlagPartition((1, 1, 1))
    x = TangentVector.from_blocks(p, {(1, 2): [[1.0]], (1, 3): [[1.0]], (2, 3): [[1.0]]})
    g = InvariantMetric.from_pairs(p, {(1, 2): 1.0, (1, 3): 2.0, (2, 3): 3.0})
    y = hadamard_action(g, x).matrix.data
    assert (y[0, 1], y[0, 2], y[1, 2], y[2, 1]) == (1.0, 2.0, 3.0, -3.0)


def test_hadamard_partition_mismatch():
    rng = np.random.default_rng(4)
    x = random_tangent(FlagPartition((2, 1)), rng)
    g = InvariantMetric.normal(FlagPartition((1, 1, 1)))
    with pytest.raises(ValueError, match="partition"):
        hadamard_action(g, x)


def test_hadamard_exact_mode_with_probe():
    # the metric acts on Float vectors only: an exact one is refused, not rounded
    p = FlagPartition((1, 1, 1))
    x = TangentVector.from_blocks(
        p,
        {(1, 2): [[GaussianRational(1, 1)]], (1, 3): [[GaussianRational(2)]]},
        Mode.EXACT,
    )
    with pytest.raises(ValueError, match="hadamard_action is Float-mode only"):
        hadamard_action(InvariantMetric.from_pairs(p, {(1, 2): 0.1}), x)


def test_basis_metric_support_and_flag():
    # a 0/1 probe is no metric; its grid keeps block (1, 2) and zeroes the rest
    p = FlagPartition((1, 1, 1))
    with pytest.raises(ValueError, match="must be positive"):
        InvariantMetric(p, {(1, 2): 1.0, (1, 3): 0.0, (2, 3): 0.0})
    rng = np.random.default_rng(6)
    x = random_tangent(p, rng)
    y = x.matrix.data * probe_grid(p, 1, 2)
    assert y[0, 1] == x.matrix.data[0, 1]
    assert y[0, 2] == 0.0
    assert y[1, 2] == 0.0


def test_basis_metrics_sum_to_normal():
    p = FlagPartition((2, 2, 1))
    total = np.zeros((5, 5))
    for i, j in p.positive_pairs():
        total = total + probe_grid(p, i, j)
    normal = InvariantMetric.normal(p).multiplier_table
    assert np.array_equal(total, np.repeat(np.repeat(normal, p.parts, 0), p.parts, 1))


def test_metric_decomposition_identity():
    # lambda . x equals the lambda-weighted sum of probe actions, exactly
    rng = np.random.default_rng(8)
    p = FlagPartition((2, 1, 1))
    x = random_tangent(p, rng)
    g = random_metric(p, 99)
    combined = np.zeros_like(x.matrix.data)
    for i, j in p.positive_pairs():
        combined = combined + g.lam[(i, j)] * (x.matrix.data * probe_grid(p, i, j))
    assert np.array_equal(combined, hadamard_action(g, x).matrix.data)


def test_metric_inner_weyl_value():
    p = FlagPartition((1, 1, 1))
    x = weyl_vector(p, Root(p, 1, 2, 1, 1), "A")
    assert metric_inner(InvariantMetric.normal(p), x, x) == pytest.approx(2.0)


def test_metric_inner_block_orthogonality():
    p = FlagPartition((1, 1, 1))
    x = TangentVector.from_blocks(p, {(1, 2): [[1.0 + 2j]]})
    y = TangentVector.from_blocks(p, {(1, 3): [[3.0 - 1j]]})
    g = random_metric(p, 1)
    assert metric_inner(g, x, y) == pytest.approx(0.0)


def test_metric_inner_symmetry_and_bilinearity():
    rng = np.random.default_rng(10)
    p = FlagPartition((2, 2))
    g = random_metric(p, 3)
    for _ in range(10):
        x = random_tangent(p, rng)
        y = random_tangent(p, rng)
        z = random_tangent(p, rng)
        sxy = metric_inner(g, x, y)
        assert abs(sxy - metric_inner(g, y, x)) <= 1e-12 * max(abs(sxy), 1.0)
        c = rng.uniform(0.1, 3.0)
        lhs = metric_inner(g, TangentVector(p, x.matrix.scale(c) + y.matrix), z)
        rhs = c * metric_inner(g, x, z) + metric_inner(g, y, z)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_metric_inner_positive_definite():
    rng = np.random.default_rng(12)
    for parts in [(1, 1, 1), (2, 1), (2, 2, 1)]:
        p = FlagPartition(parts)
        for k in range(34):
            g = random_metric(p, 1000 + k)
            x = random_tangent(p, rng)
            assert metric_inner(g, x, x) > 0.0


def test_metric_inner_rejects_degenerate_probe():
    # a probe table cannot be built as a metric, so metric_inner never sees one
    p = FlagPartition((1, 1, 1))
    with pytest.raises(ValueError, match=r"metric multiplier \(1, 3\) must be positive, got 0.0"):
        InvariantMetric(p, {(1, 2): 1.0, (1, 3): 0.0, (2, 3): 0.0})


def test_random_metric_reproducible_and_bounded():
    p = FlagPartition((3, 2, 1))
    g1 = random_metric(p, 123)
    g2 = random_metric(p, 123)
    assert g1.lam == g2.lam
    assert random_metric(p, 124).lam != g1.lam
    for v in g1.lam.values():
        assert 1e-2 <= v <= 1e2


def test_metric_table_validation():
    p = FlagPartition((1, 1, 1))
    with pytest.raises(ValueError, match="positive"):
        InvariantMetric.from_pairs(p, {(1, 2): -1.0})
    with pytest.raises(ValueError):
        InvariantMetric(p, {(1, 2): 1.0})  # incomplete table
    with pytest.raises(ValueError):
        InvariantMetric.from_pairs(p, {(1, 4): 1.0})
