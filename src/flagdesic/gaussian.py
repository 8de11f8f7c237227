"""Gaussian rationals, the entries of Exact-mode matrices.

An Exact ``CMatrix`` computes on the integer embedding of its entries (see
``linalg``) and stores no GaussianRational: these are its entries going in and
coming out, so they have no arithmetic. The only module that imports ``fractions``
at module level, so float commands never load ``fractions`` or the ``decimal``
module it imports.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Immutable


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
        each part an integer, p/q or a decimal, without an exponent."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty Gaussian rational literal")
        if "e" in s.lower():  # "1e10000000" alone would build a ten-million-digit integer
            raise ValueError(f"cannot parse Gaussian rational {text!r}: each part must be an "
                             "integer, p/q or a decimal, without an exponent")
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
