"""Dense complex-matrix kernels used by every other module.

Two computation modes run through the whole library:

* ``Mode.FLOAT``  -- numpy complex128 matrices, tolerance-based predicates.
* ``Mode.EXACT``  -- object arrays of ``gaussian.GaussianRational`` (pairs of
  ``fractions.Fraction``), exact ring arithmetic and exact zero tests. The
  block and spectral kernels run on ``integer_embedding``: the matrix times the
  lcm of its entry denominators, as a real array of Python ints, so no Fraction
  is normalised inside their loops.

The ``CMatrix`` constructor coerces entries once: to complex128 in Float mode,
and through ``gaussian._as_exact`` in Exact mode, which accepts ``int``,
``Fraction`` and ``GaussianRational`` and rejects floats. Every matrix
operation is then one numpy expression that serves both modes, since numpy's
object loops call the GaussianRational operators. Only zero tests differ:
exact ones test each entry with ``bool``, never through a float. A matrix
never mixes modes; mixed-mode binary operations raise ``ValueError``.
"""

from __future__ import annotations

import contextlib
import math
import sys
from enum import Enum
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from .flag import FlagPartition
    from .gaussian import GaussianRational

#: Relative tolerance used by residual checks unless a caller overrides it.
DEFAULT_RTOL = 1e-9

#: Skew-Hermitian validation is relative to the Frobenius norm: tau = factor * ||a||_F.
SKEW_TOL_FACTOR = 1e-9


class Mode(Enum):
    """Computation mode of a scalar or matrix."""

    FLOAT = "float"
    EXACT = "exact"


class NotSkewHermitian(ValueError):
    """Input matrix is not skew-Hermitian (within tolerance in Float mode)."""


class ExactSpectrumUnavailable(ValueError):
    """The exact spectral extraction failed; caller should fall back to Float."""


class Immutable:
    """Base of the library's immutable value types: ``__init__`` validates and stores
    each field once with ``object.__setattr__``, and any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


#: A matrix entry: builtin complex in Float mode, GaussianRational in Exact mode.
Scalar = Union[complex, "GaussianRational"]


class CMatrix(Immutable):
    """Dense complex matrix in one of the two scalar modes.

    ``data`` is complex128 for Float and an object array of GaussianRational
    for Exact; it is frozen after construction. Equality is identity.
    """

    def __init__(self, data: np.ndarray, mode: Mode):
        if mode not in (Mode.FLOAT, Mode.EXACT):  # pragma: no cover
            raise ValueError(f"unknown mode {mode!r}")
        arr = np.array(data, dtype=np.complex128 if mode is Mode.FLOAT else object)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if mode is Mode.EXACT:
            from .gaussian import _to_exact

            arr = _to_exact(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "mode", mode)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_complex(cls, rows) -> "CMatrix":
        return cls(rows, Mode.FLOAT)

    @classmethod
    def from_exact(cls, rows: Sequence[Sequence]) -> "CMatrix":
        """Build an Exact matrix; entries may be int, Fraction or GaussianRational."""
        return cls(rows, Mode.EXACT)

    @classmethod
    def zeros(cls, rows: int, cols: int, mode: Mode = Mode.FLOAT) -> "CMatrix":
        return cls(np.zeros((rows, cols), dtype=int), mode)

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        """The n x n Float identity."""
        return cls(np.eye(n, dtype=np.complex128), Mode.FLOAT)

    # -- shape -------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    # -- arithmetic ---------------------------------------------------------

    def _check_binary(self, other: "CMatrix", op: str, matmul: bool = False):
        if not isinstance(other, CMatrix):
            raise ValueError(f"{op}: expected CMatrix, got {type(other).__name__}")
        if self.mode is not other.mode:
            raise ValueError(f"{op}: mode mismatch ({self.mode.value} vs {other.mode.value})")
        if matmul:
            if self.n_cols != other.n_rows:
                raise ValueError(f"{op}: dimension mismatch {self.shape} @ {other.shape}")
        elif self.shape != other.shape:
            raise ValueError(f"{op}: dimension mismatch {self.shape} vs {other.shape}")

    def __add__(self, other: "CMatrix") -> "CMatrix":
        self._check_binary(other, "add")
        return CMatrix(self.data + other.data, self.mode)

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        self._check_binary(other, "subtract")
        return CMatrix(self.data - other.data, self.mode)

    def __neg__(self) -> "CMatrix":
        return CMatrix(-self.data, self.mode)

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        self._check_binary(other, "matmul", matmul=True)
        return CMatrix(np.dot(self.data, other.data), self.mode)

    def scale(self, s: Scalar) -> "CMatrix":
        s = CMatrix([[s]], self.mode).data[0, 0]  # coerced like an entry of this mode
        return CMatrix(self.data * s, self.mode)

    @property
    def H(self) -> "CMatrix":
        """Conjugate transpose."""
        return CMatrix(self.data.conj().T, self.mode)

    def trace(self) -> Scalar:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return np.trace(self.data)

    def fro(self) -> float:
        """Frobenius norm, a float in both modes: the exact sum of squares is rounded once,
        and a Float norm is taken on the ``_unit_scale`` copy, so no square over- or underflows."""
        if self.mode is Mode.FLOAT:
            s = _unit_scale(self.data)
            return float(np.linalg.norm(self.data * s)) / s
        return math.sqrt(sum(v.abs2() for v in self.data.flat))

    def is_zero(self) -> bool:
        return not any(self.data.flat)

    def entry(self, r: int, c: int) -> Scalar:
        v = self.data[r, c]
        return complex(v) if self.mode is Mode.FLOAT else v

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "CMatrix":
        return CMatrix(self.data[r0:r1, c0:c1].copy(), self.mode)

    def to_float(self) -> "CMatrix":
        """The Float matrix of the same entries; an Exact entry that overflows, or is
        nonzero and rounds to 0, raises ValueError naming it."""
        if self.mode is Mode.FLOAT:
            return self
        out = np.zeros(self.shape, dtype=np.complex128)
        for k, v in enumerate(self.data.flat):
            with contextlib.suppress(OverflowError):
                out.flat[k] = complex(v)
            if v and not out.flat[k]:
                r, c = divmod(k, self.n_cols)
                raise ValueError(f"entry ({r + 1}, {c + 1}) is outside the float range: "
                                 "nonzero magnitudes run from 4.9e-324 to 1.8e+308")
        return CMatrix(out, Mode.FLOAT)

    def allclose(self, other: "CMatrix", tol: float = DEFAULT_RTOL) -> bool:
        """Relative Frobenius comparison in Float mode, exact equality in Exact."""
        self._check_binary(other, "allclose")
        if self.mode is Mode.EXACT:
            return (self - other).is_zero()
        scale = max(self.fro(), other.fro(), 1.0)
        return (self - other).fro() <= tol * scale

    def __repr__(self):
        return f"CMatrix({self.n_rows}x{self.n_cols}, {self.mode.value})"


def _unit_scale(arr: np.ndarray) -> float:
    """2**-e with e = math.frexp(largest modulus of ``arr``)[1], capped at 2**1023: times
    it, the largest modulus lies in [1/2, 1), so squares neither overflow nor underflow
    where they matter, and the scaling is exact, so ratios of norms stay bit for bit."""
    e = math.frexp(float(np.max(np.abs(arr), initial=0.0)))[1]
    return math.ldexp(1.0, min(-e, 1023))


# ---------------------------------------------------------------------------
# skew-Hermitian validation
# ---------------------------------------------------------------------------


def require_skew_hermitian(a: CMatrix):
    """Raise NotSkewHermitian unless a + a^* vanishes: exactly in Exact mode, and
    within SKEW_TOL_FACTOR * ||a||_F in Float mode."""
    if not a.is_square:
        raise ValueError("skew-Hermitian test requires a square matrix")
    if a.mode is Mode.EXACT:
        e = integer_embedding(a)[1]
        ok, tol = not (e + e.T).any(), "exact test"  # E antisymmetric <=> a skew-Hermitian
    else:
        bound = SKEW_TOL_FACTOR * a.fro()
        ok, tol = (a + a.H).fro() <= bound, f"tolerance {bound:.3e}"
    if not ok:
        defect = (a + a.H).fro()
        raise NotSkewHermitian(f"matrix is not skew-Hermitian (defect {defect:.3e}, {tol})")


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------


def commutator(a: CMatrix, b: CMatrix) -> CMatrix:
    """Matrix commutator ab - ba (exact in Exact mode)."""
    if not a.is_square or not b.is_square:
        raise ValueError("commutator requires square matrices")
    a._check_binary(b, "commutator")
    return a @ b - b @ a


def project_m(a: CMatrix, partition: "FlagPartition") -> CMatrix:
    """Zero the diagonal blocks of ``a``, i.e. project onto the tangent space m.

    Off-diagonal blocks are returned unchanged. Idempotent, and self-adjoint
    for the trace pairing.
    """
    if a.shape != (partition.total, partition.total):
        raise ValueError(
            f"matrix shape {a.shape} does not match partition of total {partition.total}"
        )
    idx = partition.block_index
    return CMatrix(np.where(idx[:, None] != idx[None, :], a.data, 0), a.mode)


def _hermitian_from_skew(a: CMatrix) -> np.ndarray:
    # a skew-Hermitian => -i a is Hermitian with eigenvalues theta (a v = i theta v)
    h = -1j * a.to_float().data
    return (h + h.conj().T) / 2.0


def skew_spectrum(a: CMatrix) -> list:
    """Sorted real list theta_1 >= ... >= theta_n with eig(a) = {i * theta_k}.

    Float mode solves the Hermitian eigenproblem for -i a. Exact mode returns
    the float values of the exact spectrum from exact_skew_squares, which
    raises ExactSpectrumUnavailable unless every theta^2 is rational.
    """
    if a.mode is Mode.EXACT:
        return exact_skew_squares(a)[0]
    require_skew_hermitian(a)
    w = np.linalg.eigvalsh(_hermitian_from_skew(a))
    return [float(t) for t in w[::-1]]


def killing_flow(a: CMatrix):
    """(w, flow) for a Float skew-Hermitian a, from one eigendecomposition -i a = V diag(w) V^*:
    ``w`` ascending, eig(a) = {i * w_k}, and ``flow(t)`` the array exp(t a) = V diag(e^{i t w}) V^*.
    Callers sampling the Killing field exp(t a) at many t call this once."""
    if a.mode is not Mode.FLOAT:
        raise ValueError("killing_flow is Float-mode only")
    require_skew_hermitian(a)
    w, v = np.linalg.eigh(_hermitian_from_skew(a))
    return w, lambda t: (v * np.exp(1j * t * w)) @ v.conj().T


def unitary_exp(a: CMatrix, t: float) -> CMatrix:
    """exp(t a) for a Float skew-Hermitian a: one sample of ``killing_flow(a)``."""
    return CMatrix(killing_flow(a)[1](t), Mode.FLOAT)


# ---------------------------------------------------------------------------
# exact kernels on the integer embedding
# ---------------------------------------------------------------------------


def integer_embedding(a: CMatrix):
    """(D, E): D is the lcm of the entry denominators of an Exact matrix, and E
    the real embedding of the Gaussian-integer matrix D*a (each entry z becomes
    [[Re z, -Im z], [Im z, Re z]]) as Python ints in an object array.

    Embedding preserves sums and products and doubles every rank; block (i, j)
    of D*a is block (i, j) of E over the partition with every part doubled.
    """
    if a.mode is not Mode.EXACT:
        raise ValueError("integer_embedding requires Exact mode")
    vals = a.data.ravel()
    d = math.lcm(*(f.denominator for v in vals for f in (v.re, v.im)))

    def scaled(fracs):
        ints = [f.numerator * (d // f.denominator) for f in fracs]
        return np.array(ints, dtype=object).reshape(a.shape)

    re, im = scaled(v.re for v in vals), scaled(v.im for v in vals)
    e = np.empty((2 * a.n_rows, 2 * a.n_cols), dtype=object)
    e[0::2, 0::2] = e[1::2, 1::2] = re
    e[1::2, 0::2], e[0::2, 1::2] = im, -im
    return d, e


def _nullity(m: np.ndarray) -> int:
    """Kernel dimension of a square integer matrix, by Bareiss (1968) elimination:
    every entry stays an integer minor, so each division by the last pivot is exact."""
    m = m.copy()
    size = m.shape[0]
    rank, prev = 0, 1
    for c in range(size):
        nonzero = np.flatnonzero(m[rank:, c])
        if nonzero.size == 0:
            continue
        r = rank + int(nonzero[0])
        m[[rank, r]] = m[[r, rank]]
        pivot, below = m[rank, c], slice(rank + 1, size)
        m[below, c + 1:] = (
            pivot * m[below, c + 1:] - np.outer(m[below, c], m[rank, c + 1:])
        ) // prev
        prev, rank = pivot, rank + 1
    return size - rank


def exact_skew_squares(a: CMatrix):
    """Exact spectrum of an Exact skew-Hermitian a, eig(a) = {i * theta_k}.

    Returns (thetas, squares) ordered so that thetas descend; squares[k] is
    the exact Fraction theta_k^2 and thetas[k] its signed float square root.

    For H = -i a, D*H has Gaussian-integer entries and D^2 (-a^2) = (D H)^2 a
    monic integer characteristic polynomial, so a rational theta^2 has a
    denominator dividing D^2. The float spectrum names candidates (its exact
    squares, rounded to the nearest fractions with denominators up to min(D^2, Q),
    Q the largest the float error estimate resolves), and exact nullities on the
    integer embedding accept them with their multiplicities. A rational theta is
    signed by the nullities of D H -/+ D theta; an irrational one has +theta and
    -theta equally often, as the characteristic polynomial of H has rational
    coefficients. Raises ExactSpectrumUnavailable when the accepted
    multiplicities fall short of n.
    """
    from fractions import Fraction

    if a.mode is not Mode.EXACT:
        raise ValueError("exact_skew_squares requires Exact mode")
    n = a.n_rows
    d, e = integer_embedding(a)
    if not a.is_square or (e + e.T).any():  # E antisymmetric <=> a skew-Hermitian
        require_skew_hermitian(a)  # raises, naming the defect
    h = np.empty_like(e)  # embedding of D*H: symmetric, as H is Hermitian
    h[0::2], h[1::2] = e[1::2], -e[0::2]
    eye = np.diag(np.ones(2 * n, dtype=object))
    approx = np.linalg.eigvalsh(_hermitian_from_skew(a.to_float()))
    # estimate (not a proven bound) of each theta^2's float error, 2 n eps ||H||_2^2; inf past range
    top = float(np.max(np.abs(approx), initial=0.0))
    delta = 2 * n * sys.float_info.epsilon * (top * top)
    resolved = math.inf if delta == 0 else max(1, math.floor((2 * delta) ** -0.5))
    d2 = d * d
    spectrum, h_sq = [], None
    for c in {(Fraction(float(t)) ** 2).limit_denominator(min(d2, resolved)) for t in approx}:
        if (c * d2).denominator != 1:
            continue  # D^2 c is not an integer, so c is no eigenvalue
        big = c > sys.float_info.max  # theta^2 beyond the float range: an integer square root
        mag = math.isqrt(c.numerator * c.denominator) / c.denominator if big else math.sqrt(c)
        num, den = math.isqrt(c.numerator), math.isqrt(c.denominator)
        if num * num == c.numerator and den * den == c.denominator:
            plus = _nullity(den * h - num * d * eye) // 2
            minus = _nullity(den * h + num * d * eye) // 2 if num else 0
        else:
            h_sq = h @ h if h_sq is None else h_sq
            plus = minus = _nullity(h_sq - int(c * d2) * eye) // 4
        spectrum += [(mag, c)] * plus + [(-mag, c)] * minus
    if len(spectrum) != n:
        raise ExactSpectrumUnavailable(
            f"exact spectrum undecided: the float spectrum names a rational theta^2 for "
            f"{len(spectrum)} of {n} eigenvalues; a rational theta^2 has a denominator dividing "
            f"D^2 = {d2}; denominators resolved up to {resolved}"
        )
    spectrum.sort(key=lambda tc: tc[0], reverse=True)
    return [t for t, _ in spectrum], [c for _, c in spectrum]
