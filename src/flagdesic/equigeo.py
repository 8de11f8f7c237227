"""Geodesic and equigeodesic tests, structure predicates, and the canonical form.

A tangent vector is a geodesic direction for one metric when the m-part of
[X, lambda.X] vanishes; it is equigeodesic (geodesic for every invariant
metric) exactly when all cross products of its blocks vanish:

    a_ij a_jm = 0   for all ordered distinct triples (i, j, m).

Two routes decide this: the block condition above and a finite bracket certificate probing
[X, L_ij X] over the 0/1 multiplier basis. ``equigeodesic_verdicts`` gives both from one walk of
the block products of mu.X (every nonzero block at one scale), ``flag._equigeodesic_scan``: the
block condition reads each table per triple, the certificate sums it per probe, and each names
its own witness, its first violating triple (i, j, m) or probe (i, j). Both apply one residual
rule in both modes: a residual sqrt(num / den), violated where num > tol2 * den, tol2 = tol * tol,
and 0 on Exact ints. The tests check each route against its own product-form reference.

Equigeodesic matrices admit a block-unitary canonical form: conjugation by a
suitable U = U_1 + ... + U_s (direct sum) turns A into an essentially diagonal
J whose positive entries a_k are the nonzero singular values of the blocks and
determine the spectrum {+/- i a_k}.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .flag import (FlagPartition, TangentVector, _block_arrays, _equigeodesic_scan,
                   _require_equigeodesic, _upper_blocks)
from .linalg import (DEFAULT_EQUI_TOL, PAST_FLOAT_RANGE, CMatrix, Mode, _build, _unit_scale, commutator,
                     project_m)

if TYPE_CHECKING:
    from .metric import InvariantMetric

#: Singular values below RANK_TOL * (largest sigma across all blocks) are rank noise.
RANK_TOL = 1e-9

#: Canonical-form residual contract, relative to ||A||_F.
CANON_RESIDUAL_TOL = 1e-9

#: Entry threshold for essential diagonality, relative to the largest modulus.
ESSENTIAL_ENTRY_TOL = 1e-9


class EquigeodesicVerdict(NamedTuple):
    is_equigeodesic: bool
    method: str  # "block-condition" or "bracket-certificate"
    worst_residual: float
    violating_triple: Optional[tuple] = None  # the block condition's first (i, j, m)
    violating_probe: Optional[tuple] = None  # the certificate's first (i, j), a metric direction


class CanonicalForm(NamedTuple):
    """Block-diagonal unitary U with essentially diagonal J = U^* A U.

    ``pairs`` lists the extracted entries (global row, global col, a_k) with
    row < col and a_k > 0, sorted by descending a_k to 12 significant digits (the
    ones the CLI prints), then by (row, col); coordinates are 1-based.
    """

    U: CMatrix
    J: CMatrix
    pairs: tuple
    residual: float


class ConjugationInvariants(NamedTuple):
    """Numerical block ranks and singular values, per unordered block pair."""

    ranks: dict
    singular_values: dict


def _require_tol(tol: float) -> None:
    # a nan tol would fail the block condition and pass the certificate on one vector
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")


# ---------------------------------------------------------------------------
# geodesic test for one metric
# ---------------------------------------------------------------------------


def is_geodesic_vector(x: TangentVector, g: InvariantMetric, tol: float = DEFAULT_EQUI_TOL):
    """Whether [X, lambda.X]_m vanishes for this one metric.

    Returns (verdict, residual) with the residual normalized by
    ||X||_F^2 * max(lambda); exact inputs are evaluated in Float.
    """
    from .metric import hadamard_action  # here, so only commands given a metric load it

    _require_tol(tol)
    if g.partition != x.partition:
        raise ValueError("partition mismatch")
    xf = x.to_float()
    xf = xf.scaled(_unit_scale(xf.matrix.data))  # exact, and the residual is scale-free
    y = hadamard_action(g, xf).matrix.data
    s = _unit_scale(y)  # exact, so [X, lambda.X] cannot overflow, whatever the multipliers
    bracket = project_m(commutator(xf.matrix, _build(y * s, Mode.FLOAT)), x.partition)
    scale = xf.fro() ** 2 * (g.max_lambda() * s)
    if scale == 0.0:
        return True, 0.0
    residual = bracket.fro() / scale
    return residual <= tol, residual


# ---------------------------------------------------------------------------
# equigeodesic tests
# ---------------------------------------------------------------------------


def equigeodesic_verdicts(x: TangentVector, tol: float = DEFAULT_EQUI_TOL) -> tuple:
    """(block condition, bracket certificate): both routes' verdicts from one walk of the block
    products, ``flag._equigeodesic_scan``, in the order ``is_equigeodesic`` and
    ``equigeodesic_certificate`` return them one by one."""
    _require_tol(tol)
    (worst, triple), (cert_worst, probe) = _equigeodesic_scan(x, tol)
    return (EquigeodesicVerdict(triple is None, "block-condition", worst, triple),
            EquigeodesicVerdict(probe is None, "bracket-certificate", cert_worst, None, probe))


def is_equigeodesic(x: TangentVector, tol: float = DEFAULT_EQUI_TOL) -> EquigeodesicVerdict:
    """Block condition: every ordered product a_ij a_jm (i, j, m distinct) vanishes.

    Compares ||a_ij a_jm||_F^2 against tol^2 * ||a_ij||_F^2 ||a_jm||_F^2, which makes
    the verdict scale-invariant; Exact mode is the same test at tol = 0, a strict
    zero test. Vacuously true when the partition has fewer than three blocks.
    """
    return equigeodesic_verdicts(x, tol)[0]


def equigeodesic_certificate(x: TangentVector, tol: float = DEFAULT_EQUI_TOL) -> EquigeodesicVerdict:
    """Bracket certificate: [X, L_ij X]_m = 0 for every 0/1 probe multiplier L_ij.

    The probes form a basis of all multiplier tables, so the s(s-1)/2 bracket
    evaluations quantify over every invariant metric at once. X lies in m exactly, so
    Y = L_ij X is a_ij + a_ji and YX = (XY)^*: [X, Y] vanishes on (I u J)^2 and its squared
    norm is twice that of XY on the rows k outside I u J, sum_k ||a_kj a_ji||^2 + ||a_ki a_ij||^2:
    column sums of the block condition's tables; a probe with a_ij = 0 is skipped.
    The residual is ||[X, Y]|| / (||X|| ||Y||) of mu.X, so a chain of small blocks cannot hide
    beside one large block. The witness is the first probe (i, j) whose residual breaks the
    rule: a metric direction L_ij for which X is not geodesic.
    """
    return equigeodesic_verdicts(x, tol)[1]


# ---------------------------------------------------------------------------
# structure predicates
# ---------------------------------------------------------------------------


def is_essentially_diagonal(m: CMatrix) -> bool:
    """At most one nonzero entry in each row and each column.

    Float entries count as nonzero above ESSENTIAL_ENTRY_TOL times the largest
    modulus; Exact entries are tested exactly.
    """
    if m.mode is Mode.EXACT:
        nonzero = m.nonzero()
    else:
        mags = np.abs(m.data)
        nonzero = mags > ESSENTIAL_ENTRY_TOL * float(mags.max(initial=0.0))
    return bool(nonzero.sum(axis=0).max(initial=0) <= 1 and nonzero.sum(axis=1).max(initial=0) <= 1)


def is_essentially_block_diagonal(x: TangentVector) -> bool:
    """At most one nonzero block a_ij in each block-row and each block-column.

    A sufficient condition for the equigeodesic characterization a_ij a_jm = 0:
    each such product then has a zero factor. Float blocks count above
    ESSENTIAL_ENTRY_TOL * ||A||_F, Exact blocks when nonzero.
    """
    _, norms, tol2 = _block_arrays(x, ESSENTIAL_ENTRY_TOL)
    nonzero = norms > tol2 * norms.sum()
    return bool(nonzero.sum(axis=0).max() <= 1 and nonzero.sum(axis=1).max() <= 1)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def _block_svds(p: FlagPartition, a: np.ndarray):
    """Compact SVD of every nonzero upper block of the n x n array ``a``, cut once at
    sigma > RANK_TOL * sigma_max (the largest across all blocks); returns
    ({pair: (u, s, vh)} holding only the kept singular triples, the sum of the squares cut).

    Exactly-zero blocks have rank zero and are left out.
    """
    svds = {pair: np.linalg.svd(blk, full_matrices=False) for pair, blk in _upper_blocks(p, a, a != 0)}
    threshold = RANK_TOL * max((float(s[0]) for _, s, _ in svds.values()), default=0.0)
    cut = 0.0
    for pair, (u, s, vh) in svds.items():
        k = int(np.sum(s > threshold))  # s is descending
        cut += float(np.sum(s[k:] ** 2))
        svds[pair] = u[:, :k], s[:k], vh[:k]
    return svds, cut


def canonicalize(x: TangentVector) -> CanonicalForm:
    """Reduce an equigeodesic vector to its essentially diagonal form.

    Per block index, the image spaces of the incoming blocks are mutually orthogonal (this is what
    the equigeodesic condition buys), so one block-diagonal unitary U aligns every block with its
    singular vectors at once: U_i is the Q of one Householder QR of [V_i | I], V_i the singular
    vectors kept in block i. Raises NotEquigeodesic on inputs that fail the block condition, decided
    on the vector as given (exactly, on an Exact one); the form is computed on its float copy.
    Each kept singular triple of ``_block_svds`` gets one row and one column of J;
    the values it cuts are left out of J, so the residual may exceed the
    CANON_RESIDUAL_TOL contract by their norm. RuntimeError means that the block condition
    holds, to its tolerance, but no form is certified: a larger residual, or kept singular
    vectors that do not fit a block (more than its size, or some |r_kk| < 1/2).
    U and J are computed on the matrix times ``_unit_scale``, so no product over- or
    underflows and U is that of the matrix; the pair values and the residual are
    divided back, and a pair value past the float range raises ValueError.
    """
    worst, tol = _require_equigeodesic(x), 0.0 if x.mode is Mode.EXACT else DEFAULT_EQUI_TOL
    x = x.to_float()
    p = x.partition
    scale = _unit_scale(x.matrix.data)
    A = x.matrix.data * scale

    svds, cut = _block_svds(p, A)

    # gather singular-vector columns per block: left vectors of a_ij live in block i,
    # right vectors in block j; each takes the next place of its block as it comes,
    # and (row, col) of J is the pair of places of one singular triple
    collected = [[] for _ in range(p.s)]
    slots = []
    for (i, j), (u, _, vh) in svds.items():
        left, right = collected[i - 1], collected[j - 1]
        for k in range(len(vh)):
            slots.append((p.offsets[i - 1] + len(left), p.offsets[j - 1] + len(right)))
            left.append(u[:, k])
            right.append(vh[k, :].conj())

    # Q of [V_i | I] orthonormalizes V_i in order and completes it; |r_kk| is what is left
    # of vector k off the ones before it, and d / |d| turns column k back onto that vector
    u_full = np.zeros_like(A)  # complex128
    for bi, vecs in enumerate(collected):
        lo, hi = p.offsets[bi], p.offsets[bi + 1]
        q, r = np.linalg.qr(np.column_stack(vecs + [np.eye(hi - lo)]))
        d = np.diagonal(r)[:len(vecs)]
        if len(vecs) > hi - lo or np.any(np.abs(d) < 0.5):
            raise RuntimeError("the block condition holds, but the singular vectors kept at "
                               f"the rank cut do not fit block {bi + 1}")
        q[:, :len(vecs)] *= d / np.abs(d)
        u_full[lo:hi, lo:hi] = q

    j_raw = u_full.conj().T @ A @ u_full

    # each place is handed out once: J is essentially diagonal by construction
    pairs = []
    j_clean = np.zeros(A.shape)  # real, so dividing it by the scale is exact
    for row, col in slots:
        a_k = float(j_raw[row, col].real)
        pairs.append((row + 1, col + 1, a_k / scale))
        j_clean[row, col] = a_k
        j_clean[col, row] = -a_k
    if any(math.isinf(a) for *_, a in pairs):
        raise ValueError(PAST_FLOAT_RANGE)

    residual = _build(j_raw - j_clean, Mode.FLOAT).fro()
    # each singular value the cut drops stays in J_raw twice, at a_ij and a_ji
    bound = CANON_RESIDUAL_TOL * float(np.linalg.norm(A)) + math.sqrt(2.0 * cut)
    if residual > bound:
        raise RuntimeError(
            f"canonical form residual {residual / scale:.3e} exceeds {bound / scale:.3e}; the "
            f"block condition's worst residual is {worst:.3e}, within its tolerance {tol:.3e}"
        )
    # the key rounds to the 12 digits the listing prints, so pairs equal in exact
    # arithmetic are listed by place, not by rounding noise in their last bits
    pairs.sort(key=lambda rc: (-float(f"{rc[2]:.12g}"), rc[0], rc[1]))
    j = (j_clean / scale).astype(np.complex128)
    return CanonicalForm(U=_build(u_full, Mode.FLOAT), J=_build(j, Mode.FLOAT),
                         pairs=tuple(pairs), residual=residual / scale)


def conjugation_invariants(x: TangentVector) -> ConjugationInvariants:
    """Block ranks and singular values, invariant under block-unitary conjugation.

    The values are those ``_block_svds`` keeps: its global cut sigma > RANK_TOL * sigma_max
    keeps a zero block perturbed by conjugation noise at rank zero.
    """
    x.matrix._require_float("conjugation_invariants")
    svds, _ = _block_svds(x.partition, x.matrix.data)
    values = {pair: tuple(svds[pair][1].tolist()) if pair in svds else ()
              for pair in x.partition.positive_pairs()}
    return ConjugationInvariants({pair: len(v) for pair, v in values.items()}, values)
