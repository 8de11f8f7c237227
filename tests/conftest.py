"""Shared test helpers: seeded samplers for tangent vectors and matrices, and the
reference constructions the library itself does not need (compositions, the 0/1 probe
grids, the metric document writer, exp(t a) as a matrix)."""

import numpy as np
from hypothesis import HealthCheck, settings

from flagdesic import CMatrix, FlagPartition, Mode, TangentVector
from flagdesic.examples import _as_rng, _sample_cross_pairs
from flagdesic.linalg import killing_flow

settings.register_profile(
    "ci", derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def random_tangent(partition: FlagPartition, rng: np.random.Generator) -> TangentVector:
    """Generic dense tangent vector: complex Gaussian upper blocks, skew-completed."""
    blocks = {}
    for i, j in partition.positive_pairs():
        ri = partition.parts[i - 1]
        cj = partition.parts[j - 1]
        blocks[(i, j)] = rng.normal(size=(ri, cj)) + 1j * rng.normal(size=(ri, cj))
    return TangentVector.from_blocks(partition, blocks)


def random_skew(n: int, rng: np.random.Generator) -> CMatrix:
    """Generic skew-Hermitian matrix (diagonal allowed to be nonzero)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return CMatrix((z - z.conj().T) / 2.0, Mode.FLOAT)


def random_complex(rows: int, cols: int, rng: np.random.Generator) -> CMatrix:
    z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return CMatrix(z, Mode.FLOAT)


def compositions(n: int):
    """All ordered partitions of n (2^(n-1) of them), as tuples."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def essentially_diagonal(partition: FlagPartition, seed, values, mode: Mode = Mode.EXACT):
    """Essentially diagonal tangent vector whose entries are drawn from ``values``, on the
    cross-block pairs ``random_essentially_diagonal`` samples: exact for exact values."""
    rng = _as_rng(seed)
    arr = np.zeros((partition.total, partition.total), dtype=object)
    for r, c in _sample_cross_pairs(partition, rng, keep_prob=0.8):
        arr[r - 1, c - 1] = values[rng.integers(len(values))]
    u = CMatrix(arr, mode)
    return TangentVector(partition, u - u.H)


def probe_grid(partition: FlagPartition, i: int, j: int) -> np.ndarray:
    """n x n grid of the 0/1 probe multiplier L_ij: 1 on blocks (i, j) and (j, i), 0 elsewhere."""
    grid = np.zeros((partition.total, partition.total))
    (r0, r1), (c0, c1) = partition.block_range(i), partition.block_range(j)
    grid[r0:r1, c0:c1] = grid[c0:c1, r0:r1] = 1.0
    return grid


def serialize_metric(g) -> dict:
    """The metric document of ``g``, every pair's multiplier given."""
    return {
        "parts": list(g.partition.parts),
        "lambda": {f"{i},{j}": float(v) for (i, j), v in g.lam.items()},
    }


def exp_t(a: CMatrix, t: float) -> CMatrix:
    """exp(t a) for a Float skew-Hermitian a: one sample of ``killing_flow(a)``."""
    return CMatrix(killing_flow(a)[1](t), Mode.FLOAT)


def exp_defect(a: CMatrix, t: float) -> float:
    """||exp(t a) - I||_F: how far the Killing field is from closing at time t."""
    return (exp_t(a, t) - CMatrix(np.eye(a.n_rows), Mode.FLOAT)).fro()
