"""Gaussian rationals, the entries of Exact-mode matrices.

An Exact ``CMatrix`` computes on the integer embedding of its entries (see
``linalg``) and stores no GaussianRational: these are its entries going in and
coming out, so they have no arithmetic. The only module that imports ``fractions``
at module level, so float commands never load ``fractions`` or the ``decimal``
module it imports.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import Immutable

#: An integer, p/q or a decimal, in ASCII digits.
_PART = r"(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)"

#: An exact entry: a signed real part with an optional "+ bi" or "- bi" term, or bi alone,
#: where b may be left out for 1.
_LITERAL = re.compile(
    rf"\s*(?:(?P<re>[+-]?{_PART})(?:\s*(?P<sign>[+-])\s*(?P<im>{_PART})?i)?"
    rf"|(?P<sign_only>[+-]?)(?P<im_only>{_PART})?i)\s*",
    re.ASCII,
)


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
        digits, without an exponent; spaces only at the ends and around the joining sign."""
        m = _LITERAL.fullmatch(text)
        if m is None:
            raise ValueError(f"cannot parse Gaussian rational {text!r}: each part must be an "
                             "integer, p/q or a decimal, without an exponent")
        if m["re"] is None:
            re_part, sign, im = "0", m["sign_only"], m["im_only"]
        else:
            re_part, sign, im = m["re"], m["sign"], m["im"]
        try:  # int's digit limit, or a zero denominator
            return cls(Fraction(re_part), 0 if sign is None else Fraction(sign + (im or "1")))
        except (ValueError, ZeroDivisionError) as exc:
            why = "a denominator is zero" if isinstance(exc, ZeroDivisionError) else exc
            raise ValueError(f"cannot parse Gaussian rational {text!r}: {why}") from None

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
