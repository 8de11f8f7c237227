"""Block skeleton of the flag manifold F(n; n_1,...,n_s).

Partitions, block coordinates, tangent vectors, block-wise norms, and the
positive roots of a partition (``build_roots``, ``t_roots``: their types live
in ``roots``, loaded on the first call). Block and inner indices are 1-based
everywhere in the public API. A ``TangentVector`` holds a point of m exactly, so every block
kernel may read a_ji = -a_ij^* and zero diagonal blocks; membership of m is the exact answer of
``require_skew_hermitian`` plus zero diagonal blocks, and only a matrix off m takes the tolerance
route. Outside ``linalg``, only this module reads an Exact ``data``: ``from_blocks`` places each
block's ``data`` by one rule, and ``_block_arrays`` gives every block kernel its numbers and its
squared tolerance (with ``block_norms_sq``); ``_equigeodesic_scan`` is the one walk that forms
the block products, and it reads both equigeodesic routes' verdicts off each table it forms.
It owns the block layout: ``_upper_blocks`` lists the nonzero upper blocks, and ``off_block_mask``
masks the off-diagonal blocks; each indexes ``[..., rows, cols]``, a Float ``data`` or both
parts of an Exact one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Mapping

import numpy as np

from .linalg import (DEFAULT_EQUI_TOL, SKEW_TOL_FACTOR, CMatrix, Immutable, Mode, _build, _mul,
                     _unit_scale, require_skew_hermitian)


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
    """Element of the tangent space m: skew-Hermitian with zero diagonal blocks, exactly.
    Equality is identity. A matrix in m (``require_skew_hermitian`` answers True: each entry is
    finite and equal to its mirror; and each diagonal-block entry is 0) is stored as given, with
    no norm taken. Only a matrix off m is tested to tolerance: a Float A within SKEW_TOL_FACTOR *
    ||A|| of m is stored as its nearest point of m (Fan & Hoffman), (A - A^*) / 2 with zero
    diagonal blocks, each entry that already mirrors bit for bit; an Exact one raises."""

    def __init__(self, partition: FlagPartition, matrix: CMatrix):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "matrix", matrix)
        n = self.partition.total
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match partition total {n}"
            )
        a, off = matrix.data, off_block_mask(partition)
        # a.T: the mask is symmetric, and numpy masks leading axes ~7x faster than a[..., ~off]
        if require_skew_hermitian(matrix) and not a.T[~off].any():
            return  # A is in m: each entry mirrors, its diagonal blocks are 0; no norm is taken
        _, norms, tol2 = _block_arrays(self, SKEW_TOL_FACTOR)
        diag, total = np.diag(norms), norms.sum()
        for i in np.flatnonzero(diag > tol2 * total)[:1]:
            if self.mode is Mode.EXACT:
                raise ValueError(f"diagonal block {i + 1} is not zero (not in m)")
            fro = self.matrix.fro()
            raise ValueError(f"diagonal block {i + 1} is not zero (norm "
                             f"{math.sqrt(diag[i] / total) * fro:.3e} > {SKEW_TOL_FACTOR * fro:.3e})")
        h = -matrix.H.data
        m = np.where(off, np.where(a == h, a, a / 2 + h / 2), 0)  # halved first: no sum overflows
        object.__setattr__(self, "matrix", _build(m, Mode.FLOAT))

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

        The blocks fill the strictly block-upper matrix U, and the vector is U - U^*: the
        lower half is a_ji = -a_ij^*. Missing blocks are zero. Each block becomes a CMatrix
        of ``mode``, and its ``data`` goes into U's over the blocks' common denominator.
        """
        lead, dtype = ((2,), object) if mode is Mode.EXACT else ((), np.complex128)
        placed = []
        for (i, j), blk in blocks.items():
            if not (1 <= i <= partition.s and 1 <= j <= partition.s):
                raise ValueError(f"block key ({i},{j}) out of range 1..{partition.s}")
            if i >= j:
                raise ValueError(f"from_blocks accepts upper block keys only, got ({i},{j})")
            r0, r1 = partition.block_range(i)
            c0, c1 = partition.block_range(j)
            if not (isinstance(blk, CMatrix) and blk.mode is mode):
                blk = np.asarray(blk.entries() if isinstance(blk, CMatrix) else blk, dtype)
            if blk.shape != (r1 - r0, c1 - c0):
                raise ValueError(
                    f"block ({i},{j}) has shape {blk.shape}, expected {(r1 - r0, c1 - c0)}"
                )
            blk = CMatrix(blk, mode) if isinstance(blk, np.ndarray) else blk
            placed.append((np.s_[..., r0:r1, c0:c1], blk))
        den = math.lcm(*(b.den for _, b in placed))
        u = np.zeros((*lead, partition.total, partition.total), dtype)
        for at, b in placed:
            u[at] = b.data if b.den == den else b.data * (den // b.den)
        u = _build(u, mode, den)
        return cls(partition, u - u.H)


def off_block_mask(partition: FlagPartition) -> np.ndarray:
    """n x n boolean mask of the off-diagonal blocks' entries."""
    b = partition.block_index
    return b[:, None] != b[None, :]


def off_block_positions(partition: FlagPartition) -> list:
    """0-based (row, col) positions lying in off-diagonal blocks, row-major."""
    return [(r, c) for r, c in np.argwhere(off_block_mask(partition)).tolist()]


def block_sums(starts: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """s x s table whose entry [i-1, j-1] is the sum of block (i, j) of the square ``arr``, for
    the blocks' 0-based ``starts``, a partition's ``offsets[:-1]``."""
    return np.add.reduceat(np.add.reduceat(arr, starts, axis=0), starts, axis=1)


def _upper_blocks(partition: FlagPartition, a: np.ndarray, nonzero: np.ndarray):
    """((i, j), block (i, j) of ``a``) for each i < j, in ``positive_pairs()`` order, whose block of
    the boolean ``nonzero`` holds an entry: counts, not norms, as a tiny entry's square underflows."""
    counts = block_sums(partition.offsets[:-1], nonzero)
    for i, j in partition.positive_pairs():
        if counts[i - 1, j - 1]:
            yield (i, j), a[..., slice(*partition.block_range(i)), slice(*partition.block_range(j))]


def block_norms_sq(starts: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """s x s table whose entry [i-1, j-1] is the squared Frobenius norm of block (i, j), for the
    blocks' 0-based ``starts``, of a complex array, or the exact int of an Exact pair [x, y]."""
    if arr.dtype == object:
        return block_sums(starts, (arr * arr).sum(axis=0))
    return block_sums(starts, arr.real**2 + arr.imag**2)


def _block_arrays(x: TangentVector, tol: float, balance: bool = False):
    """(array, squared block norms, squared tolerance): the numbers of each mode, for the one
    residual rule of the block kernels: a residual sqrt(num / den), violated where
    num > tol2 * den, tol2 = tol * tol correctly rounded, inf past the float range.

    Float: the matrix times ``_unit_scale``, so no square or product over- or
    underflows, and ``tol``. Exact: ``data``, the integer pair [x, y] of D*A, and tol = 0:
    int / int rounds correctly at any size, and num > 0 * den is the strict zero test. Every
    residual is a ratio of norms, so the scale and D cancel from it.

    ``balance`` gives mu.X instead, mu_ij = 2^-e_ij with e_ij = math.frexp(the largest
    |re| or |im| of block (i, j))[1], so that every nonzero block's largest part lies in
    [1/2, 1); Exact uses the integers 2^(E - e_ij), E the largest e_ij, so both modes give
    the same residuals. mu acts termwise, as an invariant metric does, so every
    a_ij a_jm = 0 stays as it is, and a block far smaller than another still counts.
    """
    a, starts = x.matrix.data, x.partition.offsets[:-1]
    tol = 0 if x.mode is Mode.EXACT else tol
    if balance:
        mags = np.maximum(*map(np.abs, a if x.mode is Mode.EXACT else (a.real, a.imag)))
        top = np.maximum.reduceat(np.maximum.reduceat(mags, starts, axis=0), starts, axis=1)
        bi = x.partition.block_index
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
    return a, block_norms_sq(starts, a), tol * tol


class NotEquigeodesic(ValueError):
    """Raised when an operation requires an equigeodesic input and gets none."""

    def __init__(self, message, violating_triple=None):
        super().__init__(message)
        self.violating_triple = violating_triple


def _equigeodesic_scan(x: TangentVector, tol: float):
    """((worst, first violating triple or None), (worst, first violating probe or None)): both
    equigeodesic routes from one walk of mu.X, ``_block_arrays(x, tol, balance=True)``. Per middle
    block j (0-based) joined to two or more blocks, near those blocks, num is the table of
    ||a_ij a_jm||^2 over i, m in near (0 at i = m), from one ``_mul`` of A[:, J] and A[J, :] on
    near's rows and columns, its blocks starting at the running sums of near's sizes; one at a
    time, as all s would hold up to s^3 numbers. The block condition reads it per triple against
    ||a_ij||^2 ||a_jm||^2, its first violating triple the least (i, j, m). The certificate keeps
    its column sums c[j, m] = sum_k ||a_kj a_jm||^2, and reads every probe (i, j) with a_ij != 0
    at once: 2 (c_ij + c_ji) against ||mu.X||^2 (||a_ij||^2 + ||a_ji||^2)."""
    p, (a, norms, tol2) = x.partition, _block_arrays(x, tol, balance=True)
    nonzero, parts, block_of = norms != 0, np.array(p.parts), p.block_index
    worst, firsts, c = 0.0, [], np.zeros_like(norms)  # firsts: the first triple of each middle block
    for j in range(p.s):
        near = np.flatnonzero(nonzero[j])
        if near.size < 2:
            continue
        idx, (lo, hi), sizes = np.flatnonzero(nonzero[j][block_of]), p.offsets[j:j + 2], parts[near]
        num = block_norms_sq(np.cumsum(sizes) - sizes, _mul(a[..., idx, lo:hi], a[..., lo:hi, idx]))
        np.fill_diagonal(num, 0)  # i = m: a_ij a_ji is no triple
        den = np.outer(norms[near, j], norms[j, near])
        worst = max(worst, math.sqrt((num / den).max()))
        bad = num > tol2 * den
        if bad.any():  # argmax: the first True in row-major order, the least (i, m)
            i, m = divmod(int(bad.argmax()), near.size)
            firsts.append((int(near[i]) + 1, j + 1, int(near[m]) + 1))
        c[j, near] = num.sum(axis=0)
    probes = np.argwhere(np.triu(nonzero, 1))  # row-major: positive_pairs() order
    i, j = probes.T
    num, den = 2 * (c[i, j] + c[j, i]), norms.sum() * (norms[i, j] + norms[j, i])
    probe = [(i + 1, j + 1) for i, j in probes[num > tol2 * den][:1].tolist()]
    return ((worst, min(firsts, default=None)),
            (math.sqrt((num / den).max(initial=0.0)), min(probe, default=None)))


def _require_equigeodesic(x: TangentVector) -> float:
    """Return the block condition's worst residual, or raise NotEquigeodesic at its first triple."""
    (worst, first_bad), _ = _equigeodesic_scan(x, DEFAULT_EQUI_TOL)
    if first_bad is not None:
        raise NotEquigeodesic(f"input is not equigeodesic: blocks {first_bad} have "
                              f"residual {worst:.3e}", violating_triple=first_bad)
    return worst
