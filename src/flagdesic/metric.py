"""Invariant metrics as positive block-constant termwise multipliers.

A metric is a symmetric table {lambda_ij > 0} over unordered block pairs; it
acts on Float tangent matrices entry by entry (Hadamard product with the
block-constant multiplier matrix). The 0/1 probe multipliers L_ij, of which
every table is a positive combination, are not metrics: the bracket
certificate evaluates [X, L_ij X] from block products and never builds them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .flag import FlagPartition, TangentVector
from .linalg import Immutable, Mode, _build


class InvariantMetric(Immutable):
    """Multiplier table lambda_ij > 0 indexed by block pairs i < j. Equality is identity."""

    def __init__(self, partition: FlagPartition, lam: dict):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "lam", lam)
        expected = set(self.partition.positive_pairs())
        got = set(self.lam)
        if got != expected:
            raise ValueError(
                f"multiplier table must cover exactly the pairs {sorted(expected)}, "
                f"got {sorted(got)}"
            )
        for pair, v in self.lam.items():
            if not np.isfinite(float(v)):
                raise ValueError(f"metric multiplier {pair} must be finite, got {float(v)}")
            if float(v) <= 0:
                raise ValueError(f"metric multiplier {pair} must be positive, got {float(v)}")

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

    def max_lambda(self) -> float:
        return max(float(v) for v in self.lam.values())

    @cached_property
    def multiplier_table(self) -> np.ndarray:
        """s x s symmetric real table of the multipliers; the diagonal is zero."""
        pairs = np.array(list(self.lam), dtype=int).reshape(-1, 2) - 1
        table = np.zeros((self.partition.s, self.partition.s))
        table[pairs[:, 0], pairs[:, 1]] = np.array(list(self.lam.values()), dtype=float)
        return table + table.T


def hadamard_action(g: InvariantMetric, x: TangentVector) -> TangentVector:
    """Termwise product of a Float tangent vector: block (i, j) of the result is
    lambda_ij * a_ij."""
    x.matrix._require_float("hadamard_action")
    if g.partition != x.partition:
        raise ValueError("metric and tangent vector live on different partitions")
    p = x.partition
    grid = np.repeat(np.repeat(g.multiplier_table, p.parts, axis=0), p.parts, axis=1)
    return TangentVector(p, _build(x.matrix.data * grid, Mode.FLOAT))


def metric_inner(g: InvariantMetric, x: TangentVector, y: TangentVector) -> float:
    """The invariant metric itself, as the Riemannian inner product -tr((lambda . x) y)
    on m: positive definite, and lambda-weighted block by block."""
    if g.partition != x.partition or g.partition != y.partition:
        raise ValueError("partition mismatch")
    if x.mode is not Mode.FLOAT or y.mode is not Mode.FLOAT:
        raise ValueError("metric_inner is Float-mode only")
    gx = hadamard_action(g, x)
    val = np.trace(gx.matrix.data @ y.matrix.data)
    return float(-val.real)
