"""Scalar fields and the dense complex-matrix kernels used by every other module.

Two computation modes run through the whole library:

* ``Mode.FLOAT``  -- numpy complex128 matrices, tolerance-based predicates.
* ``Mode.EXACT``  -- Gaussian rationals (pairs of ``fractions.Fraction``) in
  object arrays, exact ring arithmetic and exact zero tests. The block and
  spectral kernels run on ``integer_embedding``: the matrix times the lcm of
  its entry denominators, as a real array of Python ints, so no Fraction is
  normalised inside their loops.

The ``CMatrix`` constructor coerces entries once: to complex128 in Float mode,
and through ``_as_exact`` in Exact mode, which accepts ``int``, ``Fraction``
and ``GaussianRational`` and rejects floats. Every matrix operation is then one
numpy expression that serves both modes, since numpy's object loops call the
GaussianRational operators. Only zero tests differ: exact ones test each entry
with ``bool``, never through a float. A matrix never mixes modes; mixed-mode
binary operations raise ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from .flag import FlagPartition

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


class GaussianRational:
    """Exact complex scalar p/q + (r/s)i with arbitrary-precision rational parts.

    Instances are immutable by convention and hashable. Arithmetic accepts
    ``int`` and ``Fraction`` operands so that numpy object-dtype reductions
    (which may seed sums with integer zero) work transparently.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse strings like ``"3"``, ``"-1/2"``, ``"i"``, ``"2i"``, ``"1/2-3/4i"``."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty Gaussian rational literal")
        # split into at most two signed tokens
        split = None
        for k in range(1, len(s)):
            if s[k] in "+-":
                if split is not None:
                    raise ValueError(f"cannot parse Gaussian rational {text!r}")
                split = k
        tokens = [s] if split is None else [s[:split], s[split:]]

        def _imag_value(tok: str) -> Fraction:
            body = tok[:-1]
            if body in ("", "+"):
                return Fraction(1)
            if body == "-":
                return Fraction(-1)
            return Fraction(body)

        try:
            if len(tokens) == 1:
                tok = tokens[0]
                if tok.endswith("i"):
                    return cls(0, _imag_value(tok))
                return cls(Fraction(tok), 0)
            re_tok, im_tok = tokens
            if not im_tok.endswith("i"):
                raise ValueError("second term must be imaginary")
            return cls(Fraction(re_tok), _imag_value(im_tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse Gaussian rational {text!r}: {exc}") from None

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return math.sqrt(float(self.abs2()))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imag = f"{abs(self.im)}i"
        if self.re == 0:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational('{self}')"


#: A matrix entry: builtin complex in Float mode, GaussianRational in Exact mode.
Scalar = Union[complex, GaussianRational]


def _as_exact(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value, 0)
    raise ValueError(
        f"Exact matrices hold int, Fraction or GaussianRational entries only; "
        f"got {type(value).__name__} {value!r} (mode mixing is rejected)"
    )


_to_exact = np.vectorize(_as_exact, otypes=[object])


@dataclass(frozen=True, eq=False)
class CMatrix:
    """Dense complex matrix in one of the two scalar modes.

    ``data`` is complex128 for Float and an object array of GaussianRational
    for Exact; it is frozen after construction.
    """

    data: np.ndarray
    mode: Mode

    def __post_init__(self):
        if self.mode not in (Mode.FLOAT, Mode.EXACT):  # pragma: no cover
            raise ValueError(f"unknown mode {self.mode!r}")
        arr = np.array(self.data, dtype=np.complex128 if self.mode is Mode.FLOAT else object)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if self.mode is Mode.EXACT:
            arr = _to_exact(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

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
        """Frobenius norm (float in both modes; the exact sum of squares is rounded once)."""
        if self.mode is Mode.FLOAT:
            return float(np.linalg.norm(self.data))
        return math.sqrt(sum(v.abs2() for v in self.data.flat))

    def is_zero(self, tol: float = 0.0) -> bool:
        if self.mode is Mode.FLOAT:
            return bool(np.max(np.abs(self.data), initial=0.0) <= tol)
        return all(not v for v in self.data.flat)

    def entry(self, r: int, c: int) -> Scalar:
        v = self.data[r, c]
        return complex(v) if self.mode is Mode.FLOAT else v

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "CMatrix":
        return CMatrix(self.data[r0:r1, c0:c1].copy(), self.mode)

    def to_float(self) -> "CMatrix":
        return CMatrix(self.data, Mode.FLOAT)

    def allclose(self, other: "CMatrix", tol: float = DEFAULT_RTOL) -> bool:
        """Relative Frobenius comparison in Float mode, exact equality in Exact."""
        self._check_binary(other, "allclose")
        if self.mode is Mode.EXACT:
            return (self - other).is_zero()
        scale = max(self.fro(), other.fro(), 1.0)
        return (self - other).fro() <= tol * scale

    def __repr__(self):
        return f"CMatrix({self.n_rows}x{self.n_cols}, {self.mode.value})"


# ---------------------------------------------------------------------------
# skew-Hermitian validation
# ---------------------------------------------------------------------------


def require_skew_hermitian(a: CMatrix):
    """Raise NotSkewHermitian unless a + a^* vanishes: exactly in Exact mode, and
    within SKEW_TOL_FACTOR * ||a||_F in Float mode."""
    if not a.is_square:
        raise ValueError("skew-Hermitian test requires a square matrix")
    defect = a + a.H
    if a.mode is Mode.EXACT:
        ok, tol = defect.is_zero(), "exact test"
    else:
        bound = SKEW_TOL_FACTOR * a.fro()
        ok, tol = defect.fro() <= bound, f"tolerance {bound:.3e}"
    if not ok:
        raise NotSkewHermitian(f"matrix is not skew-Hermitian (defect {defect.fro():.3e}, {tol})")


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


def killing_inner(a: CMatrix, b: CMatrix) -> Scalar:
    """Trace pairing tr(ab).

    The ambient Lie-algebra pairing is a positive multiple of this; the factor
    is dropped because every criterion in the library is a zero or sign test.
    """
    if not a.is_square:
        raise ValueError("killing_inner requires square matrices")
    a._check_binary(b, "killing_inner")
    return (a @ b).trace()


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
    require_skew_hermitian(a)
    if a.mode is Mode.FLOAT:
        w = np.linalg.eigvalsh(_hermitian_from_skew(a))
        return [float(t) for t in w[::-1]]
    return exact_skew_squares(a)[0]


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
    denominator dividing D^2. The float spectrum names candidates (nearest
    fractions with denominators up to min(D^2, Q), Q the largest the float
    error bound resolves), and exact nullities on the integer embedding accept
    them with their multiplicities. A rational theta is signed by the nullities
    of D H -/+ D theta; an irrational one has +theta and -theta equally often,
    as the characteristic polynomial of H has rational coefficients. Raises
    ExactSpectrumUnavailable when the accepted multiplicities fall short of n.
    """
    if a.mode is not Mode.EXACT:
        raise ValueError("exact_skew_squares requires Exact mode")
    require_skew_hermitian(a)
    n = a.n_rows
    d, e = integer_embedding(a)
    h = np.empty_like(e)  # embedding of D*H: symmetric, as H is Hermitian
    h[0::2], h[1::2] = e[1::2], -e[0::2]
    eye = np.diag(np.ones(2 * n, dtype=object))
    approx = np.linalg.eigvalsh(_hermitian_from_skew(a.to_float()))
    # estimate (not a proven bound) of the float error of each theta^2: 2 n eps ||H||_2^2
    delta = 2 * n * np.finfo(float).eps * float(np.max(np.abs(approx), initial=0.0)) ** 2
    resolved = math.inf if delta == 0 else max(1, math.floor((2 * delta) ** -0.5))
    d2 = d * d
    spectrum, h_sq = [], None
    for c in {Fraction(float(t) ** 2).limit_denominator(min(d2, resolved)) for t in approx}:
        if (c * d2).denominator != 1:
            continue  # D^2 c is not an integer, so c is no eigenvalue
        mag = math.sqrt(float(c))
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
            f"-a^2 has an irrational eigenvalue within the float error estimate: a rational one "
            f"would have a denominator dividing D^2 = {d2}, and the estimate resolves "
            f"denominators up to {resolved}"
            if d2 <= resolved
            else f"exact spectrum undecided: float precision resolves eigenvalue denominators "
            f"up to {resolved}, but those of -a^2 may reach D^2 = {d2}"
        )
    spectrum.sort(key=lambda tc: tc[0], reverse=True)
    return [t for t, _ in spectrum], [c for _, c in spectrum]
