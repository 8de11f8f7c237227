"""Dense complex-matrix kernels used by every other module.

Two computation modes run through the whole library:

* ``Mode.FLOAT``  -- numpy complex128 matrices, tolerance-based predicates.
* ``Mode.EXACT``  -- the least common denominator ``den`` of the entries and the
  real embedding of den * A as Python ints, each entry x + iy a 2 x 2 block
  [[x, -y], [y, x]], in lowest terms: exact arithmetic and zero tests on ints.

The ``CMatrix`` constructor copies and checks a caller's entries in both modes: complex numbers,
or ``int``, ``Fraction`` and ``GaussianRational`` in Exact mode, which rejects floats. Every
matrix the library computes is stored as it is by ``_build``, an Exact one in lowest terms.
Sums, products, negation, the conjugate transpose (the transpose of an embedding),
zero tests and ``project_m`` are one numpy expression for both modes. ``from_ints``, which
documents and the constructor call, writes the 2 x 2 layout of (x, y, den), ``shape`` halves
it, and only ``int_parts`` slices it, for ``entries``, ``nonzero``, ``fro``, ``to_float`` and
``gaussian.exact_char_poly``. ``read_literal`` reads an exact literal to integers, for
documents and ``GaussianRational.parse``. Exact block kernels run on the embedding; the exact
spectrum is in ``gaussian``, which loads only where a Fraction or GaussianRational goes in or out.
``scale``, ``hadamard``, ``skew_spectrum`` and ``killing_flow`` are Float-mode only. A matrix
never mixes modes; mixed-mode binary operations raise ``ValueError``.
"""

from __future__ import annotations

import contextlib
import math
import re
import sys
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .flag import FlagPartition

#: Relative tolerance used by residual checks unless a caller overrides it.
DEFAULT_RTOL = 1e-9

#: Skew-Hermitian validation is relative to the Frobenius norm: tau = factor * ||a||_F.
SKEW_TOL_FACTOR = 1e-9

#: Default relative tolerance for block products and bracket residuals (``--tol``).
DEFAULT_EQUI_TOL = 1e-8

#: Default continued-fraction denominator bound (``--bound``).
DEFAULT_BOUND = 10**6

#: The ValueError message of a spectrum, or canonical pair value, past the float range.
PAST_FLOAT_RANGE = "the spectrum lies outside the float range: some |theta| exceeds 1.8e+308"


class Mode(Enum):
    """Computation mode of a scalar or matrix."""

    FLOAT = "float"
    EXACT = "exact"


class NotSkewHermitian(ValueError):
    """Input matrix is not skew-Hermitian (within tolerance in Float mode)."""


class Immutable:
    """Base of the library's immutable value types: construction validates and stores
    each field once with ``object.__setattr__``, and any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class CMatrix(Immutable):
    """Dense complex matrix in one of the two scalar modes, built from its entries.

    Float: ``data`` is the complex128 array of the entries and ``den`` is 1. Exact:
    ``data`` is the embedding of den * A, an object array of ints with gcd(den, *data)
    = 1. Both are frozen after construction. Equality is identity.
    """

    def __new__(cls, data: np.ndarray, mode: Mode):
        if mode not in (Mode.FLOAT, Mode.EXACT):  # pragma: no cover
            raise ValueError(f"unknown mode {mode!r}")
        arr = np.array(data, dtype=np.complex128 if mode is Mode.FLOAT else object)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if mode is Mode.EXACT:
            from .gaussian import _parts

            parts = [_parts(v) for v in arr.flat]
            den = math.lcm(*(f.denominator for pair in parts for f in pair))
            ints = [[f.numerator * (den // f.denominator) for f in pair] for pair in parts]
            x, y = np.moveaxis(np.array(ints, dtype=object).reshape(*arr.shape, 2), -1, 0)
            return cls.from_ints(x, y, den)
        return _build(arr, Mode.FLOAT)

    @classmethod
    def from_ints(cls, x: np.ndarray, y: np.ndarray, den: int) -> "CMatrix":
        """The Exact matrix (x + iy) / den in lowest terms, for int object arrays x and y of one
        shape: the one writer of the 2 x 2 layout, which the Exact constructor calls too."""
        arr = np.empty((2 * x.shape[0], 2 * x.shape[1]), dtype=object)
        arr[0::2, 0::2] = arr[1::2, 1::2] = x
        arr[1::2, 0::2], arr[0::2, 1::2] = y, -y
        return _build(arr, Mode.EXACT, den)

    # -- shape -------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple:
        r, c = self.data.shape
        return (r, c) if self.mode is Mode.FLOAT else (r // 2, c // 2)

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
        den = math.lcm(self.den, other.den)  # a Float data array is never multiplied
        a, b = (m.data if m.den == den else m.data * (den // m.den) for m in (self, other))
        return _build(a + b, self.mode, den)

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        self._check_binary(other, "subtract")
        return self + -other

    def __neg__(self) -> "CMatrix":
        return _build(-self.data, self.mode, self.den, reduce=False)

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        self._check_binary(other, "matmul", matmul=True)
        return _build(np.dot(self.data, other.data), self.mode, self.den * other.den)

    def _require_float(self, op: str) -> None:
        if self.mode is not Mode.FLOAT:
            raise ValueError(f"{op} is Float-mode only")

    def scale(self, s: complex) -> "CMatrix":
        self._require_float("scale")
        return _build(self.data * complex(s), Mode.FLOAT)

    @property
    def H(self) -> "CMatrix":
        """Conjugate transpose; transposing an embedding conjugates its entries."""
        flipped = self.data.conj() if self.mode is Mode.FLOAT else self.data
        return _build(flipped.T, self.mode, self.den, reduce=False)

    def fro(self) -> float:
        """Frobenius norm, a float in both modes, inf past its range: Exact rounds the sum of
        squares once (past the range, its integer part's isqrt), Float scales by ``_unit_scale``."""
        if self.mode is Mode.FLOAT:
            s = _unit_scale(self.data)
            return float(np.linalg.norm(self.data * s)) / s
        z, d2 = sum((v * v).sum() for v in self.int_parts()), self.den**2
        with contextlib.suppress(OverflowError):  # else the sum passes the float range
            return math.sqrt(z / d2)
        root = math.isqrt(z // d2)
        return float(root) if root <= sys.float_info.max else math.inf

    def is_zero(self) -> bool:
        return not any(self.data.flat)

    def int_parts(self) -> tuple:
        """Exact mode: read-only int views (x, y) of the embedding, with den * A = x + i y."""
        return self.data[0::2, 0::2], self.data[1::2, 0::2]

    def nonzero(self) -> np.ndarray:
        """Boolean array of the entries that are not exactly zero."""
        if self.mode is Mode.FLOAT:
            return self.data != 0
        x, y = self.int_parts()
        return (x != 0) | (y != 0)

    def entries(self) -> np.ndarray:
        """The entries: the complex128 ``data`` in Float mode, an object array of
        GaussianRational in Exact mode."""
        if self.mode is Mode.FLOAT:
            return self.data
        from fractions import Fraction

        from .gaussian import GaussianRational

        def entry(x, y):
            return GaussianRational(Fraction(x, self.den), Fraction(y, self.den))

        return np.frompyfunc(entry, 2, 1)(*self.int_parts())

    def hadamard(self, grid: np.ndarray) -> "CMatrix":
        """Entrywise product with a real float array of this shape, or one that broadcasts to it."""
        self._require_float("hadamard")
        return _build(self.data * np.broadcast_to(grid, self.shape), Mode.FLOAT)

    def to_float(self) -> "CMatrix":
        """The Float matrix of the same entries; an Exact entry that overflows, or is
        nonzero and rounds to 0, raises ValueError naming it."""
        if self.mode is Mode.FLOAT:
            return self
        out = np.zeros(self.shape, dtype=np.complex128)
        re, im = self.int_parts()
        for k, (x, y) in enumerate(zip(re.flat, im.flat)):
            with contextlib.suppress(OverflowError):  # int / int rounds correctly at any size
                out.flat[k] = complex(x / self.den, y / self.den)
            if (x or y) and not out.flat[k]:
                r, c = divmod(k, self.n_cols)
                raise ValueError(f"entry ({r + 1}, {c + 1}) is outside the float range: "
                                 "nonzero magnitudes run from 4.9e-324 to 1.8e+308")
        return _build(out, Mode.FLOAT)

    def allclose(self, other: "CMatrix", tol: float = DEFAULT_RTOL) -> bool:
        """Relative Frobenius comparison in Float mode, ||a - b|| <= tol * max(||a||, ||b||)
        at every scale, and exact equality in Exact."""
        self._check_binary(other, "allclose")
        if self.mode is Mode.EXACT:
            return (self - other).is_zero()
        return (self - other).fro() <= tol * max(self.fro(), other.fro())

    def __repr__(self):
        return f"CMatrix({self.n_rows}x{self.n_cols}, {self.mode.value})"


def _build(data: np.ndarray, mode: Mode, den: int = 1, reduce: bool = True) -> CMatrix:
    """The matrix of an array the library computed, stored as it is, neither copied nor checked:
    the complex128 entries (Float), or the embedding over ``den`` (Exact), divided by their gcd
    unless ``reduce`` is False, as for -A and A^*, which keep the lowest terms of A."""
    g = math.gcd(den, *data.flat) if reduce and mode is Mode.EXACT else 1
    if g > 1:
        data, den = data // g, den // g
    data.setflags(write=False)
    m = object.__new__(CMatrix)
    object.__setattr__(m, "data", data)
    object.__setattr__(m, "den", den)
    object.__setattr__(m, "mode", mode)
    return m


#: An exact entry: a signed real part with an optional "+ bi" or "- bi" term, or bi alone,
#: where b may be left out for 1; each part an integer, p/q or a decimal, in ASCII digits.
#: ``re`` compiles it on first use, so float documents never do.
_PART = r"(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)"
_LITERAL = (rf"\s*(?:(?P<re>[+-]?{_PART})(?:\s*(?P<sign>[+-])\s*(?P<im>{_PART})?i)?"
            rf"|(?P<sign_only>[+-]?)(?P<im_only>{_PART})?i)\s*")


def read_literal(text: str) -> tuple:
    """(a, b, c, d) with text = a/b + (c/d) i, b, d > 0, for an exact entry like "3", "-1/2",
    "0.25", "i", "2i" or "1/2-3/4i"; ValueError for any other text, naming it."""
    m = re.fullmatch(_LITERAL, text, re.ASCII)
    if m is None:
        raise ValueError(f"cannot parse Gaussian rational {text!r}: each part must be an "
                         "integer, p/q or a decimal, without an exponent")
    real, sign, im = m.group("re", "sign", "im") if m["re"] else ("0", m["sign_only"], m["im_only"])
    out = []
    try:  # int's digit limit, or a zero denominator: int() reads the digits as Fraction() does
        for part in (real, "0" if sign is None else sign + (im or "1")):
            num, _, q = part.lstrip("+-").partition("/")
            whole, _, frac = num.partition(".")
            scale = 10 ** len(frac)
            p, q = int(whole or "0") * scale + int(frac or "0"), int(q or "1") * scale
            if not q:
                raise ValueError("a denominator is zero")
            out += [-p if part[0] == "-" else p, q]
    except ValueError as exc:
        raise ValueError(f"cannot parse Gaussian rational {text!r}: {exc}") from None
    return tuple(out)


def _unit_scale(arr: np.ndarray) -> float:
    """2**-e with e = math.frexp(largest |re| or |im| in ``arr``)[1], capped at 2**1023: times
    it, every part lies in (-1, 1) and every modulus below sqrt(2), so neither a modulus nor
    a square over- or underflows where it matters, and the scaling is exact, so ratios of
    norms stay bit for bit."""
    top = max(np.max(np.abs(arr.real), initial=0.0), np.max(np.abs(arr.imag), initial=0.0))
    e = math.frexp(float(top))[1]
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
        # the embedding is antisymmetric <=> a is skew-Hermitian
        ok, tol = not (a.data + a.data.T).any(), "exact test"
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
    idx = np.repeat(partition.block_index, a.data.shape[0] // partition.total)
    return _build(np.where(idx[:, None] != idx[None, :], a.data, 0), a.mode, a.den)


def _skew_eigh(a: CMatrix, vectors: bool):
    """(w, v) for a skew-Hermitian a: w ascending with eig(a) = {i * w_k}, and v the eigenvectors
    or None. Solved on the ``_unit_scale`` copy, so no sum overflows; a |w_k| past the float
    range raises ValueError."""
    data = a.to_float().data
    s = _unit_scale(data)
    h = -1j * (data * s)
    h = (h + h.conj().T) / 2.0
    w, v = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    if np.max(np.abs(w), initial=0.0) > sys.float_info.max * s:  # so w / s would overflow
        raise ValueError(PAST_FLOAT_RANGE)
    return w / s, v


def skew_spectrum(a: CMatrix) -> list:
    """Sorted real list theta_1 >= ... >= theta_n with eig(a) = {i * theta_k}, for a Float
    skew-Hermitian a, from the Hermitian eigenproblem for -i a. The exact spectrum of an
    Exact matrix is ``gaussian.exact_skew_squares``."""
    a._require_float("skew_spectrum")
    require_skew_hermitian(a)
    w, _ = _skew_eigh(a, vectors=False)
    return [float(t) for t in w[::-1]]


def killing_flow(a: CMatrix):
    """(w, flow) for a Float skew-Hermitian a, from one eigendecomposition -i a = V diag(w) V^*:
    ``w`` ascending, eig(a) = {i * w_k}, and ``flow(t)`` = exp(t a) = I + V diag(expm1(i t w)) V^*:
    I exactly at t = 0, and each entry off I rounded relative to itself. Call it once for many t."""
    a._require_float("killing_flow")
    require_skew_hermitian(a)
    w, v = _skew_eigh(a, vectors=True)
    return w, lambda t: np.eye(w.size) + (v * np.expm1(1j * t * w)) @ v.conj().T
