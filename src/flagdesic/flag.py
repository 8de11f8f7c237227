"""Block skeleton of the flag manifold F(n; n_1,...,n_s).

Partitions, block coordinates, tangent vectors, block-wise norms, and the
positive roots of a partition (``build_roots``, ``t_roots``: their types live
in ``roots``, loaded on the first call). Block and inner indices are 1-based
everywhere in the public API. Outside ``linalg``, only this module's block-kernel plumbing
(``_block_arrays``, ``block_norms_sq``, ``_norm_sq``) reads an Exact ``data``, the 2 x 2
embedding: ``_block_arrays`` gives every block kernel its numbers and its tolerance. The block
condition a_ij a_jm = 0, the gate of canonical forms and return distances, is scanned here.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Mapping

import numpy as np

from .linalg import (DEFAULT_EQUI_TOL, SKEW_TOL_FACTOR, CMatrix, Immutable, Mode, _build, _unit_scale,
                     require_skew_hermitian)


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
        _, _, norms, tol = _block_arrays(self, SKEW_TOL_FACTOR)
        diag, total = np.diag(norms), norms.sum()
        for i in np.flatnonzero(diag > tol**2 * total)[:1]:
            if self.mode is Mode.EXACT:
                raise ValueError(f"diagonal block {i + 1} is not zero (not in m)")
            fro = self.matrix.fro()
            raise ValueError(f"diagonal block {i + 1} is not zero "
                             f"(norm {math.sqrt(diag[i] / total) * fro:.3e} > {tol * fro:.3e})")

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
        exact = mode is Mode.EXACT
        x = np.zeros((partition.total, partition.total), dtype=object if exact else np.complex128)
        exact_blocks = []
        for (i, j), blk in blocks.items():
            if not (1 <= i <= partition.s and 1 <= j <= partition.s):
                raise ValueError(f"block key ({i},{j}) out of range 1..{partition.s}")
            if i >= j:
                raise ValueError(f"from_blocks accepts upper block keys only, got ({i},{j})")
            r0, r1 = partition.block_range(i)
            c0, c1 = partition.block_range(j)
            if not (exact and isinstance(blk, CMatrix) and blk.mode is mode):
                blk = np.asarray(blk.entries() if isinstance(blk, CMatrix) else blk, x.dtype)
            if blk.shape != (r1 - r0, c1 - c0):
                raise ValueError(
                    f"block ({i},{j}) has shape {blk.shape}, expected {(r1 - r0, c1 - c0)}"
                )
            if exact:  # placed below, by its integers rather than its entries
                blk = CMatrix(blk, mode) if isinstance(blk, np.ndarray) else blk
                exact_blocks.append((np.s_[r0:r1, c0:c1], blk))
            else:
                x[r0:r1, c0:c1] = blk
        if exact:  # every block over their common denominator
            y, den = np.zeros_like(x), math.lcm(*(b.den for _, b in exact_blocks))
            for at, b in exact_blocks:
                x[at], y[at] = (v * (den // b.den) for v in b.int_parts())
        u = CMatrix.from_ints(x, y, den) if exact else _build(x, mode)
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
    of a complex array, or the exact int of an integer embedding over the doubled
    partition: the embedding holds every entry twice, so its table is halved."""
    if arr.dtype == object:
        return block_sums(partition, arr * arr) // 2
    return block_sums(partition, arr.real**2 + arr.imag**2)


def _norm_sq(arr: np.ndarray):
    """Squared Frobenius norm of a complex array, or the exact int of an integer embedding
    (halved, as it holds every entry twice)."""
    return (arr * arr).sum() // 2 if arr.dtype == object else np.vdot(arr, arr).real


def _block_arrays(x: TangentVector, tol: float, balance: bool = False):
    """(partition, array, squared block norms, tolerance): the one block layout of each
    mode, for the one residual rule of the block kernels: a residual sqrt(num / den),
    violated where num > tol^2 * den.

    Float: the matrix times ``_unit_scale``, so no square or product over- or
    underflows, and ``tol``. Exact: ``data``, the integer embedding of D*A, over the
    doubled partition, so block (i, j) stays block (i, j), and tol = 0: int / int rounds
    correctly at any size, and num > 0 * den is the strict zero test. Every residual is
    a ratio of norms, so the scale and D cancel from it.

    ``balance`` gives mu.X instead, mu_ij = 2^-e_ij with e_ij = math.frexp(the largest
    |re| or |im| of block (i, j))[1], so that every nonzero block's largest part lies in
    [1/2, 1); Exact uses the integers 2^(E - e_ij), E the largest e_ij, so both modes give
    the same residuals. mu acts termwise, as an invariant metric does, so every
    a_ij a_jm = 0 stays as it is, and a block far smaller than another still counts.
    """
    p, a = x.partition, x.matrix.data
    if x.mode is Mode.EXACT:
        p, tol = FlagPartition(tuple(2 * k for k in p.parts)), 0
    if balance:
        mags = np.abs(a) if x.mode is Mode.EXACT else np.maximum(np.abs(a.real), np.abs(a.imag))
        starts = p.offsets[:-1]
        top = np.maximum.reduceat(np.maximum.reduceat(mags, starts, axis=0), starts, axis=1)
        bi = p.block_index
        if x.mode is Mode.FLOAT:
            e = np.frexp(top)[1][bi][:, bi]
            a = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)  # exact, past 2**1023 too
        else:  # e_ij + bit length of D, from ints, on the nonzero blocks
            d, bd = x.matrix.den, x.matrix.den.bit_length()
            live, e = top != 0, np.zeros_like(top)
            e[live] = [m.bit_length() + (m << bd >= d << m.bit_length()) for m in top[live]]
            a = a * (1 << (e.max() - e))[bi][:, bi]
    elif x.mode is Mode.FLOAT:
        a = a * _unit_scale(a)
    return p, a, block_norms_sq(p, a), tol


class NotEquigeodesic(ValueError):
    """Raised when an operation requires an equigeodesic input and gets none."""

    def __init__(self, message, violating_triple=None):
        super().__init__(message)
        self.violating_triple = violating_triple


def _scan_block_products(x: TangentVector, tol: float):
    """Normalized ||a_ij a_jm|| / (||a_ij|| ||a_jm||) over all ordered triples.

    Returns (worst residual, first violating triple or None, argmax triple),
    both triples the first in lexicographic (i, j, m) order. One middle block
    j at a time: A[:, J] @ A[J, :] holds every product a_ij a_jm at once, and
    only the rows and columns of blocks joined to j by a nonzero block count.
    """
    p, a, norms, tol = _block_arrays(x, tol, balance=True)
    nonzero = norms != 0
    np.fill_diagonal(nonzero, False)
    parts = np.array(p.parts)
    block_of = p.block_index
    first_bad = None
    peaks = []  # (-residual, triple) of the largest residual per middle block
    for j in range(p.s):
        # only the blocks joined to j by a nonzero block can give a nonzero product
        near = np.flatnonzero(nonzero[:, j] | nonzero[j, :])
        if near.size < 2:
            continue
        idx = np.flatnonzero(np.isin(block_of, near))
        lo, hi = p.offsets[j], p.offsets[j + 1]
        prod = block_norms_sq(FlagPartition(tuple(parts[near])), a[idx, lo:hi] @ a[lo:hi, idx])
        live = np.outer(nonzero[near, j], nonzero[j, near])
        np.fill_diagonal(live, False)
        num = np.where(live, prod, 0)
        den = np.where(live, np.outer(norms[near, j], norms[j, near]), 1)
        res = np.sqrt((num / den).astype(float))
        bad = num > tol**2 * den
        if bad.any():
            i, m = near[np.argwhere(bad)[0]]
            triple = (int(i) + 1, j + 1, int(m) + 1)
            first_bad = triple if first_bad is None else min(first_bad, triple)
        i, m = divmod(int(np.argmax(res)), near.size)
        if res[i, m] > 0.0:
            peaks.append((-float(res[i, m]), (int(near[i]) + 1, j + 1, int(near[m]) + 1)))
    neg_worst, argmax = min(peaks, default=(-0.0, None))
    return -neg_worst, first_bad, argmax


def _require_equigeodesic(x: TangentVector) -> None:
    """Raise NotEquigeodesic, naming the first violating triple, unless the block condition holds."""
    worst, first_bad, _ = _scan_block_products(x, DEFAULT_EQUI_TOL)
    if first_bad is not None:
        raise NotEquigeodesic(f"input is not equigeodesic: blocks {first_bad} have "
                              f"residual {worst:.3e}", violating_triple=first_bad)
