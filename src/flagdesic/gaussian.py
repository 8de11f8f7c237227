"""Gaussian rationals, the scalar of Exact-mode matrices.

The only module that imports ``fractions`` at module level. The rest of the
library imports this one where an exact value is built, so float commands
never load ``fractions`` or the ``decimal`` module it imports.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .linalg import Immutable


class GaussianRational(Immutable):
    """Exact complex scalar p/q + (r/s)i with arbitrary-precision rational parts.

    Instances are immutable and hashable. Arithmetic accepts ``int`` and
    ``Fraction`` operands so that numpy object-dtype reductions (which may seed
    sums with integer zero) work transparently.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

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
