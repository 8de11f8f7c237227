"""Root types of F(n; n_1,...,n_s) and the tangent vectors of the root planes.

Roots split into isotropy (K) and complementary (M) roots; T-roots are block
pairs; each positive M-root plane is spanned by two standard real tangent
vectors, which are equigeodesic. ``flag.build_roots`` and ``flag.t_roots``
import this module when first called, so of the commands only
``flagdesic roots`` loads it.
"""

from __future__ import annotations

import numpy as np

from .flag import FlagPartition, TangentVector, _ByValue
from .linalg import CMatrix, Mode, _build


class Root(_ByValue):
    """Root eps^i_a - eps^j_b in block coordinates.

    K-roots have i == j (isotropy directions), M-roots i != j (tangent
    directions). Positivity is global-row < global-column.
    """

    def __init__(self, partition: FlagPartition, i: int, j: int, a: int, b: int):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        p = self.partition
        if not (1 <= self.i <= p.s and 1 <= self.j <= p.s):
            raise ValueError(f"block pair ({self.i},{self.j}) out of range 1..{p.s}")
        if not (1 <= self.a <= p.parts[self.i - 1] and 1 <= self.b <= p.parts[self.j - 1]):
            raise ValueError(f"inner pair ({self.a},{self.b}) out of range for blocks")
        if (self.i, self.a) == (self.j, self.b):
            raise ValueError("a root needs two distinct basis functionals")

    def _key(self) -> tuple:
        return self.partition, self.i, self.j, self.a, self.b

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


class TRoot(_ByValue):
    """Block pair (i, j), i != j; the image of an M-root under restriction."""

    def __init__(self, i: int, j: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        if self.i == self.j:
            raise ValueError("T-roots connect two distinct blocks")

    def _key(self) -> tuple:
        return self.i, self.j

    @property
    def positive(self) -> bool:
        return self.i < self.j


def basis_unit(partition: FlagPartition, root: Root) -> CMatrix:
    """Float matrix unit E_pq with 1 at the M-root's global (row, col) position: the
    root space of the root."""
    if root.kind != "M":
        raise ValueError("K-roots are isotropy directions, not tangent directions")
    arr = np.zeros((partition.total, partition.total), dtype=complex)
    arr[root.global_row - 1, root.global_col - 1] = 1
    return _build(arr, Mode.FLOAT)


def weyl_vector(partition: FlagPartition, root: Root, kind: str) -> TangentVector:
    """Real root-plane vector: kind "A" gives E_pq - E_qp, "S" gives i(E_pq + E_qp).

    These Float vectors span the root planes, and each is equigeodesic: its only
    nonzero blocks are a_ij and a_ji, so every product a_ij a_jm with i != m has a
    zero factor.
    """
    if root.kind != "M":
        raise ValueError("Weyl tangent vectors exist for M-roots only")
    if not root.positive:
        raise ValueError("pass the positive root of the pair")
    if kind not in ("A", "S"):
        raise ValueError(f"kind must be 'A' or 'S', got {kind!r}")
    u = basis_unit(partition, root)
    if kind == "S":
        u = u.scale(1j)
    return TangentVector(partition, u - u.H)
