"""Gaussian rationals, the entries of Exact-mode matrices, and the exact spectral kernels.

An Exact ``CMatrix`` computes on the integer parts [x, y] of its entries (see ``linalg``) and
stores no GaussianRational: these are a caller's entries going in and ``entries()`` coming
out, so they have no arithmetic. Here too is the exact spectrum of exact ``closedness``: the
integer characteristic polynomial of D*H (``exact_char_poly``, on ``CMatrix.data``) and
its roots (``exact_skew_squares``). The only module to import ``fractions`` at module level,
it loads only where a Fraction or GaussianRational goes in or out: exact ``closedness``'s
squares, the Exact ``CMatrix`` constructor, ``entries()`` and writing exact documents.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from fractions import Fraction

import numpy as np

from .linalg import (CMatrix, Immutable, Mode, _build, _skew_eigh, read_literal,
                     require_skew_hermitian)


class GaussianRational(Immutable):
    """Exact complex scalar p/q + (r/s)i with arbitrary-precision rational parts.

    Instances are immutable and hashable, and equal only to GaussianRationals.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse strings like ``"3"``, ``"-1/2"``, ``"0.25"``, ``"i"``, ``"2i"``, ``"1/2-3/4i"``:
        a real part, an imaginary part or both, each an integer, p/q or a decimal of ASCII
        digits, without an exponent; spaces only at the ends and around the joining sign:
        the grammar of exact documents, read by ``linalg.read_literal``."""
        a, b, c, d = read_literal(text)
        return cls(Fraction(a, b), Fraction(c, d))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

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


def _parts(value) -> tuple:
    """(re, im) of an Exact entry, each an int or Fraction."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    if isinstance(value, (int, Fraction)):
        return value, 0
    raise ValueError(
        f"Exact matrices hold int, Fraction or GaussianRational entries only; "
        f"got {type(value).__name__} {value!r} (mode mixing is rejected)"
    )


# ---------------------------------------------------------------------------
# exact kernels on the integer parts
# ---------------------------------------------------------------------------


def exact_char_poly(a: CMatrix) -> np.ndarray:
    """The monic integer characteristic polynomial p of D*H, H = -i a, for an Exact
    skew-Hermitian a over D = a.den: its coefficients, highest first, as an object array.
    Modulo primes q = 5 (mod 8) in (2^19, 2^20), where 2^((q-1)/4) stands for i,
    Faddeev-LeVerrier gives p mod q by float64 BLAS products, exact as sums of n <= 4096
    products of residues stay below 2^53. A coefficient is a sum of principal minors, within
    prod(1 + r_j) by Hadamard's bound, r_j the 2-norm of row j of D*H (Cohen, 2.2), and the
    Chinese remainder theorem joins residues of primes whose product passes twice that."""
    if a.mode is not Mode.EXACT:
        raise ValueError("exact_char_poly requires Exact mode")
    require_skew_hermitian(a)
    (x, y), n = a.data, a.n_rows  # D a = x + i y, D H = y - i x
    rows = (x * x + y * y).sum(axis=1)  # r_j^2
    bound = 2 * math.prod(2 + math.isqrt(r) for r in rows)  # > 2 prod(1 + r_j)
    count = bound.bit_length() // 19 + 1  # primes above 2^19 whose product passes the bound
    primes = list(itertools.islice((q for q in range(2**20 - 3, 2**19, -8)
                                    if all(q % f for f in range(3, 1025, 2))), count))
    if len(primes) < count or n > 4096:  # else a sum of products of residues may pass 2^53
        raise ValueError("the exact characteristic polynomial is out of reach: n > 4096, or "
                         "more primes needed than lie between 2^19 and 2^20")
    q, w = (np.array(v, dtype=np.int64)[:, None, None]
            for v in (primes, [pow(2, q // 4, q) for q in primes]))  # w^2 = -1 (mod q)
    small = np.int64 if max(rows) < 2**126 else object  # int64 where every |x|, |y| < 2^63
    x, y = x.astype(small), y.astype(small)
    m, q = ((y % q - w * (x % q)) % q).astype(np.float64), q.astype(np.float64)
    mk, eye, out = 0.0, np.eye(n), [np.ones(count)]
    for k in range(1, n + 1):  # mk = D H M_{k-1}, M_{k-1} = mk + c_{k-1}, c_k = -tr(mk) / k
        mk = m @ (mk + out[-1][:, None, None] * eye)
        mk -= np.floor(mk / q) * q  # exact below 2^53
        trace = np.trace(mk, axis1=1, axis2=2) % q[:, 0, 0]
        out.append(-trace * [pow(k, -1, p) for p in primes] % q[:, 0, 0])
    total = math.prod(primes)
    basis = np.array([total // p * pow(total // p, -1, p) for p in primes], dtype=object)
    coeffs = np.array(out).astype(np.int64).astype(object) @ basis % total
    return np.where(2 * coeffs > total, coeffs - total, coeffs)


def _deflate(poly, root: int):
    """(quotient, multiplicity): ``poly`` divided by x - root while that leaves no remainder."""
    for mult in itertools.count():
        *quotient, rest = itertools.accumulate(poly, lambda b, c: b * root + c)
        if rest:
            return poly, mult
        poly = quotient


def _none_above(poly, z: int) -> bool:
    """Whether every Taylor coefficient of ``poly`` at z is >= 0, the remainders of repeated
    division by x - z: for a monic real-rooted poly, exactly when no root exceeds z."""
    for _ in range(len(poly) - 1):
        *poly, rest = itertools.accumulate(poly, lambda b, c: b * z + c)
        if rest < 0:
            return False
    return True


#: The ValueError message of a nonzero exact theta whose float rounds to 0 or inf.
_ROUNDS_AWAY = "the spectrum lies outside the float range: some theta rounds to 0 or inf"


def _sqrt_over(z: int, d: int) -> float:
    """sqrt(z) / d as one rounding of isqrt(z * 2^128) / (d * 2^64), with no float square to
    under- or overflow: z = k^2 gives the correctly rounded k/d. ValueError where no float holds it."""
    with contextlib.suppress(OverflowError):
        if (t := math.isqrt(z << 128) / (d << 64)) or not z:
            return t
    raise ValueError(_ROUNDS_AWAY)


def _float_thetas(a: CMatrix) -> list:
    """The float spectrum of an Exact skew-Hermitian a, descending: eigh on the Float copy of
    a * 2^-e built from the integers, where e, the bit length of the largest |x| or |y| less D's,
    puts every part below 2 and rounds one far below the largest to 0. Each theta is scaled
    back by 2^e; ValueError where one passes the float range, or all round to 0."""
    x, y = a.data
    e = max(np.max(np.abs(x)), np.max(np.abs(y))).bit_length() - a.den.bit_length()
    x, y = ((v << max(-e, 0)) / (a.den << max(e, 0)) for v in (x, y))
    w, _ = _skew_eigh(_build((x + 1j * y).astype(complex), Mode.FLOAT), vectors=False)
    with contextlib.suppress(OverflowError):
        if any(thetas := [math.ldexp(t, e) for t in w[::-1].tolist()]):
            return thetas
    raise ValueError(_ROUNDS_AWAY)


def exact_skew_squares(a: CMatrix):
    """Exact spectrum of an Exact skew-Hermitian a, eig(a) = {i * theta_k}: (thetas, squares),
    thetas descending, squares[k] the Fraction theta_k^2 and thetas[k] its signed float root.

    p = ``exact_char_poly(a)`` has the roots D theta_k, so s(x^2) = p(x) (-1)^n p(-x) is monic
    in Z[y] with the roots D^2 theta_k^2 >= 0, a rational one an integer. Newton's method with
    integer floor steps from their sum never passes the largest, as s/s' = 1 / sum 1/(y - y_k),
    and stops less than deg s above it; the integers of that window are tested exactly, and a
    root is divided out with its multiplicity. Toward a mu-fold root a step gains only 1/mu of
    the way, so m = floor(s'^2 / (s'^2 - s s'')) steps, the multiplicity of the roots as seen
    from y, are taken at once where every Taylor coefficient of s at the landing point is >= 0,
    which for the real-rooted s says that no root lies above it; m is halved until one is.
    theta = k/D is signed by the multiplicity of k in p; an irrational theta has -theta as
    often, as p is in Z[x]. A window without a root means an irrational theta^2 and an
    incommensurate spectrum (theta_k = q_k theta_ref with rational q_k makes tr(-a^2) =
    theta_ref^2 sum q_k^2, and so each theta^2, rational): then squares are all None, and
    thetas the float spectrum of ``_float_thetas``. Where sum theta_k^2 = ||a||_F^2 reaches
    n 2^2048, some theta >= 2^1024 rounds to inf: ValueError, before the polynomial is formed."""
    if (a.data * a.data).sum() >= a.n_rows * a.den**2 << 2048:
        raise ValueError(_ROUNDS_AWAY)
    p = exact_char_poly(a)
    s = np.convolve(p, p * (-1) ** np.arange(len(p)))[::2].tolist()
    y, spectrum = -s[1], []  # the sum of the roots
    while len(s) > 1:
        v = dv = d2 = 0
        for c in s:  # Horner: v = s(y), dv = s'(y), d2 = s''(y) / 2
            v, dv, d2 = v * y + c, dv * y + v, d2 * y + dv
        if v >= dv > 0:  # a floor step of at least 1, m of them at once where certified
            step, m = v // dv, dv * dv // (dv * dv - 2 * v * d2)
            while m > 1 and not _none_above(s, y - m * step):
                m //= 2
            y -= m * step
            continue
        size = len(s)
        for z in range(y, max(0, y - (size - 1) * v // dv if v else y) - 1, -1):
            s, mult = _deflate(s, z)
            if mult:
                p, plus = _deflate(p, k) if (k := math.isqrt(z)) ** 2 == z else (p, mult // 2)
                theta, c = _sqrt_over(z, a.den), Fraction(z, a.den**2)
                spectrum += [(theta, c)] * plus + [(-theta, c)] * (mult - plus)
        if len(s) == size:  # the largest root left is irrational
            return _float_thetas(a), [None] * a.n_rows
    return [list(col) for col in zip(*sorted(spectrum, key=lambda tc: tc[0], reverse=True))]
