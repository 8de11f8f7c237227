"""Built-in example documents, then seeded samplers of vectors, unitaries and metrics.

Of the commands only ``flagdesic examples`` imports this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .documents import serialize_vector
from .flag import FlagPartition, TangentVector
from .linalg import CMatrix, Mode

if TYPE_CHECKING:
    from .metric import InvariantMetric

#: lambda sampling range for random_metric (log-uniform).
RANDOM_LAMBDA_RANGE = (1e-2, 1e2)


#: The built-in examples: name -> (parts, {upper block (i, j): rows of real integer entries}).
_FIXTURES = {
    "f3-u12": ((1, 1, 1), {(1, 2): [[1]]}),
    # two orthogonal column blocks, not block-diagonal, already essentially
    # diagonal with values a=1, b=2
    "fn-211": ((3, 1, 1), {(1, 2): [[1], [0], [0]], (1, 3): [[0], [2], [0]]}),
    # sigma = (1,2,3,4): sigma1, sigma2 on the (1,2) block diagonal, sigma3 at
    # the bottom-left of (1,3), sigma4 at the bottom-right of (2,3)
    "f9-333": ((3, 3, 3), {
        (1, 2): [[1, 0, 0], [0, 2, 0], [0, 0, 0]],
        (1, 3): [[0, 0, 0], [0, 0, 0], [3, 0, 0]],
        (2, 3): [[0, 0, 0], [0, 0, 0], [0, 0, 4]],
    }),
    "f4-x2y3": ((1, 1, 1, 1), {(1, 2): [[2]], (3, 4): [[3]]}),
}


def fixture_names() -> list:
    return sorted(_FIXTURES)


def fixture_vector(name: str, mode: str = "float") -> TangentVector:
    """One of the built-in examples, in float or exact mode."""
    if name not in _FIXTURES:
        raise KeyError(name)
    if mode not in ("float", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    parts, blocks = _FIXTURES[name]
    return TangentVector.from_blocks(FlagPartition(parts), blocks, Mode(mode))


def fixture_document(name: str, mode: str = "float") -> dict:
    """The document of one of the built-in examples, in float or exact form."""
    return serialize_vector(fixture_vector(name, mode))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_block_unitary(partition: FlagPartition, seed) -> CMatrix:
    """Haar-distributed element of U(n_1) + ... + U(n_s) (block-diagonal): the group
    whose conjugation takes an equigeodesic vector to its canonical form and back."""
    rng = _as_rng(seed)
    n = partition.total
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(1, partition.s + 1):
        lo, hi = partition.block_range(i)
        nb = hi - lo
        z = rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        q = q * (d / np.abs(d))
        out[lo:hi, lo:hi] = q
    return CMatrix(out, Mode.FLOAT)


def _sample_cross_pairs(partition: FlagPartition, rng: np.random.Generator, keep_prob: float):
    """Disjoint global index pairs crossing block boundaries."""
    pool = list(rng.permutation(partition.total) + 1)
    chosen = []
    skipped = []
    while pool:
        u = pool.pop()
        partner = None
        for k, v in enumerate(pool):
            if partition.block_of(v) != partition.block_of(u):
                partner = k
                break
        if partner is None:
            continue
        v = pool.pop(partner)
        if rng.random() < keep_prob:
            chosen.append((min(u, v), max(u, v)))
        else:
            skipped.append((min(u, v), max(u, v)))
    if not chosen and skipped:
        chosen.append(skipped[0])
    return chosen


def random_essentially_diagonal(partition: FlagPartition, seed) -> TangentVector:
    """Essentially diagonal skew-Hermitian sample with zero diagonal blocks.

    One nonzero entry per row and column at most, all of them crossing block
    boundaries; magnitudes are uniform in [0.3, 3] with random phase.
    """
    rng = _as_rng(seed)
    pairs = _sample_cross_pairs(partition, rng, keep_prob=0.8)
    arr = np.zeros((partition.total, partition.total), dtype=complex)
    for r, c in pairs:
        arr[r - 1, c - 1] = rng.uniform(0.3, 3.0) * np.exp(2j * np.pi * rng.uniform())
    u = CMatrix(arr, Mode.FLOAT)
    return TangentVector(partition, u - u.H)


def random_equigeodesic(partition: FlagPartition, seed) -> TangentVector:
    """Random equigeodesic vector.

    An essentially diagonal sample conjugated by a random block-diagonal
    unitary: the converse of the canonical form construction.
    """
    rng = _as_rng(seed)
    base = random_essentially_diagonal(partition, rng)
    u = random_block_unitary(partition, rng)
    return base.conjugated_by(u)


def random_metric(partition: FlagPartition, seed) -> InvariantMetric:
    """Multipliers drawn i.i.d. log-uniform on [1e-2, 1e2]; deterministic per seed."""
    from .metric import InvariantMetric

    rng = np.random.default_rng(seed)
    lo, hi = np.log10(RANDOM_LAMBDA_RANGE[0]), np.log10(RANDOM_LAMBDA_RANGE[1])
    lam = {pair: float(10.0 ** rng.uniform(lo, hi)) for pair in partition.positive_pairs()}
    return InvariantMetric(partition, lam)
