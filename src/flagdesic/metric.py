"""Invariant metrics as positive block-constant termwise multipliers.

A metric is a symmetric table {lambda_ij > 0} over unordered block pairs; it
acts on tangent matrices entry by entry (Hadamard product with the
block-constant multiplier matrix). The degenerate 0/1 probe multipliers
L_ij share the data shape but are flagged and excluded from metric-only
operations; the bracket certificate evaluates [X, L_ij X] on block slabs and
never builds them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .flag import FlagPartition, TangentVector
from .linalg import CMatrix, Immutable, Mode


class InvariantMetric(Immutable):
    """Multiplier table lambda_ij indexed by block pairs i < j. Equality is identity.

    ``degenerate=True`` marks probe multipliers (zeros allowed); those are not
    metrics and are rejected by metric-only operations.
    """

    def __init__(self, partition: FlagPartition, lam: dict, degenerate: bool = False):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "degenerate", degenerate)
        expected = set(self.partition.positive_pairs())
        got = set(self.lam)
        if got != expected:
            raise ValueError(
                f"multiplier table must cover exactly the pairs {sorted(expected)}, "
                f"got {sorted(got)}"
            )
        for pair, v in self.lam.items():
            v = float(v)
            if self.degenerate:
                if v < 0:
                    raise ValueError(f"multiplier {pair} is negative: {v}")
            elif v <= 0:
                raise ValueError(f"metric multiplier {pair} must be positive, got {v}")

    @classmethod
    def from_pairs(cls, partition: FlagPartition, values):
        """Build from a partial {(i,j): lambda} mapping; missing pairs get 1."""
        lam = {pair: 1.0 for pair in partition.positive_pairs()}
        for (i, j), v in dict(values).items():
            key = (i, j) if i < j else (j, i)
            if key not in lam:
                raise ValueError(f"block pair ({i},{j}) invalid for this partition")
            lam[key] = float(v)
        return cls(partition, lam)

    @classmethod
    def normal(cls, partition: FlagPartition):
        """The normal metric: every multiplier equal to 1."""
        return cls.from_pairs(partition, {})

    def value(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("diagonal multipliers are not part of the metric")
        return float(self.lam[(i, j) if i < j else (j, i)])

    def max_lambda(self) -> float:
        return max(float(v) for v in self.lam.values())

    @cached_property
    def multiplier_table(self) -> np.ndarray:
        """s x s symmetric real table of the multipliers; the diagonal is zero."""
        pairs = np.array(list(self.lam), dtype=int).reshape(-1, 2) - 1
        table = np.zeros((self.partition.s, self.partition.s))
        table[pairs[:, 0], pairs[:, 1]] = np.array(list(self.lam.values()), dtype=float)
        return table + table.T

    @cached_property
    def multiplier_matrix(self) -> np.ndarray:
        """n x n real multiplier grid; diagonal blocks are zero."""
        return _block_grid(self.partition, self.multiplier_table)


def _block_grid(partition: FlagPartition, table: np.ndarray) -> np.ndarray:
    """n x n array constant on each block, from an s x s table."""
    return np.repeat(np.repeat(table, partition.parts, axis=0), partition.parts, axis=1)


def hadamard_action(g: InvariantMetric, x: TangentVector) -> TangentVector:
    """Termwise product: block (i, j) of the result is lambda_ij * a_ij.

    The multipliers enter in the mode of ``x``: Exact tangent vectors stay
    exact, each float multiplier applied as its exact rational value
    Fraction(lambda) (0/1 probes in particular stay exactly 0/1).
    """
    if g.partition != x.partition:
        raise ValueError("metric and tangent vector live on different partitions")
    table = g.multiplier_table
    if x.mode is Mode.EXACT:
        from fractions import Fraction

        table = np.vectorize(Fraction, otypes=[object])(table)
    data = x.matrix.data * _block_grid(x.partition, CMatrix(table, x.mode).data)
    return TangentVector(x.partition, CMatrix(data, x.mode))


def basis_metric(partition: FlagPartition, i: int, j: int) -> InvariantMetric:
    """Degenerate probe multiplier: 1 on the (i, j)/(j, i) blocks, 0 elsewhere.

    Not positive definite, hence flagged. Every multiplier table is a positive
    combination of these, which is why the bracket certificate may test only
    them; it evaluates them on block slabs and never builds one.
    """
    if i == j:
        raise ValueError("probe multipliers connect two distinct blocks")
    key = (i, j) if i < j else (j, i)
    if key not in partition.positive_pairs():
        raise ValueError(f"block pair ({i},{j}) invalid for this partition")
    lam = {pair: 0.0 for pair in partition.positive_pairs()}
    lam[key] = 1.0
    return InvariantMetric(partition, lam, degenerate=True)


def metric_inner(g: InvariantMetric, x: TangentVector, y: TangentVector) -> float:
    """Riemannian inner product -tr((lambda . x) y); positive definite on m."""
    if g.degenerate:
        raise ValueError("degenerate probe multipliers are not metrics")
    if g.partition != x.partition or g.partition != y.partition:
        raise ValueError("partition mismatch")
    if x.mode is not Mode.FLOAT or y.mode is not Mode.FLOAT:
        raise ValueError("metric_inner is Float-mode only")
    gx = hadamard_action(g, x)
    val = np.trace(gx.matrix.data @ y.matrix.data)
    return float(-val.real)
