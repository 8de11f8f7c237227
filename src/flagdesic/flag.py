"""Block skeleton of the flag manifold F(n; n_1,...,n_s).

Partitions, block coordinates, tangent vectors, block-wise norms, and the
positive roots of a partition (``build_roots``, ``t_roots``: their types live
in ``roots``, loaded on the first call). Block and inner indices are 1-based
everywhere in the public API.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Mapping

import numpy as np

from .linalg import SKEW_TOL_FACTOR, CMatrix, Immutable, Mode, _unit_scale, require_skew_hermitian


class _ByValue(Immutable):
    """Immutable type that compares and hashes by ``_key()``, the tuple of its fields."""

    __slots__ = ()

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


class FlagPartition(_ByValue):
    """Ordered partition (n_1,...,n_s) of n, with cumulative offsets (0, n_1, ..., n)."""

    def __init__(self, parts: tuple):
        if any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) for p in parts):
            raise ValueError(f"partition parts must be integers, got {tuple(parts)!r}")
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "offsets", (0, *accumulate(parts)))

    def _key(self) -> tuple:
        return (self.parts,)

    @property
    def block_index(self) -> np.ndarray:
        """0-based block of each 0-based global index, as an int array of length n."""
        return np.repeat(np.arange(self.s), self.parts)

    @property
    def total(self) -> int:
        return self.offsets[-1]

    @property
    def s(self) -> int:
        return len(self.parts)

    def block_range(self, i: int) -> tuple:
        """Half-open 0-based row range of block i (1-based)."""
        if not 1 <= i <= self.s:
            raise ValueError(f"block index {i} out of range 1..{self.s}")
        return self.offsets[i - 1], self.offsets[i]

    def block_of(self, g: int) -> int:
        """Block index (1-based) containing the 1-based global index g."""
        if not 1 <= g <= self.total:
            raise ValueError(f"global index {g} out of range 1..{self.total}")
        return bisect_left(self.offsets, g)

    def positive_pairs(self) -> list:
        """All block pairs (i, j) with i < j."""
        return [(i, j) for i in range(1, self.s + 1) for j in range(i + 1, self.s + 1)]

    def dim_m(self) -> int:
        """Real dimension of the tangent space: n^2 - sum n_i^2."""
        return self.total**2 - sum(p * p for p in self.parts)


def build_roots(partition: FlagPartition):
    """Positive K-roots and positive M-roots of the partition."""
    from .roots import Root

    k_pos = []
    for i in range(1, partition.s + 1):
        ni = partition.parts[i - 1]
        for a in range(1, ni + 1):
            for b in range(a + 1, ni + 1):
                k_pos.append(Root(partition, i, i, a, b))
    m_pos = []
    for i, j in partition.positive_pairs():
        for a in range(1, partition.parts[i - 1] + 1):
            for b in range(1, partition.parts[j - 1] + 1):
                m_pos.append(Root(partition, i, j, a, b))
    return k_pos, m_pos


def t_roots(partition: FlagPartition) -> list:
    """Positive T-roots: all block pairs (i, j) with i < j."""
    from .roots import TRoot

    return [TRoot(i, j) for i, j in partition.positive_pairs()]


class TangentVector(Immutable):
    """Element of the tangent space m: skew-Hermitian with zero diagonal blocks.
    Equality is identity."""

    def __init__(self, partition: FlagPartition, matrix: CMatrix):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "matrix", matrix)
        n = self.partition.total
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match partition total {n}"
            )
        require_skew_hermitian(self.matrix)
        p = self.partition
        in_diag = ~off_block_mask(p)  # row-major, so grouped block by block
        blocks = np.repeat(np.arange(1, p.s + 1), np.square(p.parts))
        if self.mode is Mode.EXACT:
            for i in blocks[self.matrix.nonzero()[in_diag]][:1]:  # the first nonzero block, if any
                raise ValueError(f"diagonal block {i} is not zero (not in m)")
            return
        diag = self.matrix.data[in_diag]
        tol = SKEW_TOL_FACTOR * self.matrix.fro()
        s = _unit_scale(self.matrix.data)  # so no square over- or underflows
        norms = np.sqrt(np.bincount(blocks, np.abs(diag * s) ** 2)) / s
        for i in np.flatnonzero(norms > tol)[:1]:
            raise ValueError(f"diagonal block {i} is not zero (norm {norms[i]:.3e} > {tol:.3e})")

    @property
    def mode(self) -> Mode:
        return self.matrix.mode

    def fro(self) -> float:
        return self.matrix.fro()

    def to_float(self) -> "TangentVector":
        if self.mode is Mode.FLOAT:
            return self
        return TangentVector(self.partition, self.matrix.to_float())

    def scaled(self, c: float) -> "TangentVector":
        """Positive real rescaling (same geodesic direction), Float mode."""
        return TangentVector(self.partition, self.matrix.scale(c))

    def conjugated_by(self, u: CMatrix) -> "TangentVector":
        """U^* A U for a block-diagonal unitary U (Float mode)."""
        return TangentVector(self.partition, u.H @ self.matrix @ u)

    @classmethod
    def from_blocks(
        cls,
        partition: FlagPartition,
        blocks: Mapping,
        mode: Mode = Mode.FLOAT,
    ) -> "TangentVector":
        """Build from upper blocks {(i, j): rows or CMatrix}, i < j.

        The blocks fill the strictly block-upper matrix U, and the vector is
        U - U^*: the lower half is a_ji = -a_ij^*. Missing blocks are zero.
        """
        dtype = np.complex128 if mode is Mode.FLOAT else object
        arr = np.zeros((partition.total, partition.total), dtype=dtype)
        for (i, j), blk in blocks.items():
            if not (1 <= i <= partition.s and 1 <= j <= partition.s):
                raise ValueError(f"block key ({i},{j}) out of range 1..{partition.s}")
            if i >= j:
                raise ValueError(f"from_blocks accepts upper block keys only, got ({i},{j})")
            r0, r1 = partition.block_range(i)
            c0, c1 = partition.block_range(j)
            sub = np.asarray(blk.entries() if isinstance(blk, CMatrix) else blk, dtype=dtype)
            if sub.shape != (r1 - r0, c1 - c0):
                raise ValueError(
                    f"block ({i},{j}) has shape {sub.shape}, expected {(r1 - r0, c1 - c0)}"
                )
            arr[r0:r1, c0:c1] = sub
        u = CMatrix(arr, mode)
        return cls(partition, u - u.H)


def off_block_mask(partition: FlagPartition) -> np.ndarray:
    """n x n boolean mask of the entries lying in off-diagonal blocks."""
    return partition.block_index[:, None] != partition.block_index[None, :]


def off_block_positions(partition: FlagPartition) -> list:
    """0-based (row, col) positions lying in off-diagonal blocks, row-major."""
    return [(r, c) for r, c in np.argwhere(off_block_mask(partition)).tolist()]


def block_sums(partition: FlagPartition, arr: np.ndarray) -> np.ndarray:
    """s x s table whose entry [i-1, j-1] is the sum of block (i, j) of ``arr``."""
    starts = partition.offsets[:-1]
    return np.add.reduceat(np.add.reduceat(arr, starts, axis=0), starts, axis=1)


def block_norms_sq(partition: FlagPartition, arr: np.ndarray) -> np.ndarray:
    """s x s table whose entry [i-1, j-1] is the squared Frobenius norm of block (i, j)
    of an n x n complex array."""
    return block_sums(partition, arr.real**2 + arr.imag**2)
