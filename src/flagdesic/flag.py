"""Combinatorial skeleton of the flag manifold F(n; n_1,...,n_s).

Partitions, block coordinates, the type-A root system split into isotropy
(K) and complementary (M) roots, T-roots, and the standard real tangent
vectors spanning each root plane. Block and inner indices are 1-based
everywhere in the public API.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .linalg import (
    SKEW_TOL_FACTOR,
    CMatrix,
    GaussianRational,
    Mode,
    require_skew_hermitian,
)


@dataclass(frozen=True)
class FlagPartition:
    """Ordered partition (n_1,...,n_s) of n, with cumulative offsets."""

    parts: tuple

    def __post_init__(self):
        if any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) for p in self.parts):
            raise ValueError(f"partition parts must be integers, got {tuple(self.parts)!r}")
        parts = tuple(int(p) for p in self.parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @cached_property
    def offsets(self) -> tuple:
        """Cumulative sums (0, n_1, n_1+n_2, ..., n)."""
        acc = [0]
        for p in self.parts:
            acc.append(acc[-1] + p)
        return tuple(acc)

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

    @property
    def is_full_flag(self) -> bool:
        return all(p == 1 for p in self.parts)

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


@dataclass(frozen=True)
class Root:
    """Root eps^i_a - eps^j_b in block coordinates.

    K-roots have i == j (isotropy directions), M-roots i != j (tangent
    directions). Positivity is global-row < global-column.
    """

    partition: FlagPartition
    i: int
    j: int
    a: int
    b: int

    def __post_init__(self):
        p = self.partition
        if not (1 <= self.i <= p.s and 1 <= self.j <= p.s):
            raise ValueError(f"block pair ({self.i},{self.j}) out of range 1..{p.s}")
        if not (1 <= self.a <= p.parts[self.i - 1] and 1 <= self.b <= p.parts[self.j - 1]):
            raise ValueError(f"inner pair ({self.a},{self.b}) out of range for blocks")
        if (self.i, self.a) == (self.j, self.b):
            raise ValueError("a root needs two distinct basis functionals")

    @property
    def kind(self) -> str:
        return "K" if self.i == self.j else "M"

    @property
    def global_row(self) -> int:
        return self.partition.offsets[self.i - 1] + self.a

    @property
    def global_col(self) -> int:
        return self.partition.offsets[self.j - 1] + self.b

    @property
    def positive(self) -> bool:
        return self.global_row < self.global_col


@dataclass(frozen=True)
class TRoot:
    """Block pair (i, j), i != j; the image of an M-root under restriction."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("T-roots connect two distinct blocks")

    @property
    def positive(self) -> bool:
        return self.i < self.j


def build_roots(partition: FlagPartition):
    """Positive K-roots and positive M-roots of the partition."""
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
    return [TRoot(i, j) for i, j in partition.positive_pairs()]


def basis_unit(partition: FlagPartition, root: Root, mode: Mode = Mode.FLOAT) -> CMatrix:
    """Matrix unit with 1 at the root's global (row, col) position."""
    if root.kind != "M":
        raise ValueError("K-roots are isotropy directions, not tangent directions")
    arr = CMatrix.zeros(partition.total, partition.total, mode).data.copy()
    arr[root.global_row - 1, root.global_col - 1] = GaussianRational(1)
    return CMatrix(arr, mode)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Element of the tangent space m: skew-Hermitian with zero diagonal blocks."""

    partition: FlagPartition
    matrix: CMatrix

    def __post_init__(self):
        n = self.partition.total
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match partition total {n}"
            )
        require_skew_hermitian(self.matrix)
        p = self.partition
        diag = self.matrix.data[~off_block_mask(p)]  # row-major, so grouped block by block
        blocks = np.repeat(np.arange(1, p.s + 1), np.square(p.parts))
        if self.mode is Mode.EXACT:
            for i in blocks[[bool(v) for v in diag]][:1]:  # the first nonzero block, if any
                raise ValueError(f"diagonal block {i} is not zero (not in m)")
            return
        tol = SKEW_TOL_FACTOR * self.matrix.fro()
        norms = np.sqrt(np.bincount(blocks, diag.real**2 + diag.imag**2))
        for i in np.flatnonzero(norms > tol)[:1]:
            raise ValueError(f"diagonal block {i} is not zero (norm {norms[i]:.3e} > {tol:.3e})")

    @property
    def mode(self) -> Mode:
        return self.matrix.mode

    def block(self, i: int, j: int) -> CMatrix:
        """Off-diagonal block a_ij (1-based block indices, i != j)."""
        if i == j:
            raise ValueError("diagonal blocks of a tangent vector are zero by definition")
        r0, r1 = self.partition.block_range(i)
        c0, c1 = self.partition.block_range(j)
        return self.matrix.submatrix(r0, r1, c0, c1)

    def fro(self) -> float:
        return self.matrix.fro()

    def to_float(self) -> "TangentVector":
        if self.mode is Mode.FLOAT:
            return self
        return TangentVector(self.partition, self.matrix.to_float())

    def scaled(self, c: float) -> "TangentVector":
        """Positive real rescaling (same geodesic direction)."""
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
        """Build from upper blocks {(i, j): array}, i < j.

        The lower half is completed as a_ji = -a_ij^*; missing blocks are zero.
        """
        arr = CMatrix.zeros(partition.total, partition.total, mode).data.copy()
        for (i, j), blk in blocks.items():
            if not (1 <= i <= partition.s and 1 <= j <= partition.s):
                raise ValueError(f"block key ({i},{j}) out of range 1..{partition.s}")
            if i >= j:
                raise ValueError(f"from_blocks accepts upper block keys only, got ({i},{j})")
            r0, r1 = partition.block_range(i)
            c0, c1 = partition.block_range(j)
            sub = CMatrix(blk.data if isinstance(blk, CMatrix) else blk, mode).data
            if sub.shape != (r1 - r0, c1 - c0):
                raise ValueError(
                    f"block ({i},{j}) has shape {sub.shape}, expected {(r1 - r0, c1 - c0)}"
                )
            arr[r0:r1, c0:c1] = sub
            arr[c0:c1, r0:r1] = -sub.conj().T
        return cls(partition, CMatrix(arr, mode))


def weyl_vector(
    partition: FlagPartition, root: Root, kind: str, mode: Mode = Mode.FLOAT
) -> TangentVector:
    """Real root-plane vector: kind "A" gives E_pq - E_qp, "S" gives i(E_pq + E_qp)."""
    if root.kind != "M":
        raise ValueError("Weyl tangent vectors exist for M-roots only")
    if not root.positive:
        raise ValueError("pass the positive root of the pair")
    if kind not in ("A", "S"):
        raise ValueError(f"kind must be 'A' or 'S', got {kind!r}")
    r, c = root.global_row - 1, root.global_col - 1
    unit = GaussianRational(1) if kind == "A" else GaussianRational(0, 1)
    arr = CMatrix.zeros(partition.total, partition.total, mode).data.copy()
    arr[r, c] = unit
    arr[c, r] = -unit.conjugate()
    return TangentVector(partition, CMatrix(arr, mode))


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


def off_block_norm(partition: FlagPartition, arr: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal-block part of a float array."""
    norms = block_norms_sq(partition, arr)
    return float(np.sqrt(norms[~np.eye(partition.s, dtype=bool)].sum()))


def compositions(n: int) -> Iterable:
    """All ordered partitions of n (2^(n-1) of them), as tuples."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest
