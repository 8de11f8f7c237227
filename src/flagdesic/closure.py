"""Closedness of the Killing field generated by a tangent vector.

The one-parameter group exp(tA) is a circle exactly when the eigenvalue
imaginary parts theta_1..theta_n are commensurate (all pairwise ratios
rational). Floats can never prove commensurability, so the Float verdict is
tri-state with an explicit denominator bound; Exact mode decides it outright:
an irrational theta^2 refutes it, and otherwise ratios of the rational theta^2
must be squares of rationals (theta_i/theta_j rational iff theta_i^2/theta_j^2
is a rational square), so no irrational square root is ever represented. Every
verdict carries the spectrum it was decided on.

For an equigeodesic A the same spectrum gives the return distance of the
geodesic through o (the off-diagonal-block norm of exp(tA)) in closed form:
the geodesic first returns at half the Killing period (gated by ``flag``'s block condition).

Float ratio testing uses continued-fraction convergents with the residual
scaled by the squared denominator: |rho - p/q| * q^2 is about 1/a_next, so a
tiny scaled residual marks the giant-coefficient cliff that terminates the
expansion of a genuine rational, while quadratic irrationals keep it at
order one forever. Flat residuals cannot work here: every real number has
convergents with |rho - p/q| <= 1/q^2 inside any denominator bound.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .flag import TangentVector, _require_equigeodesic
from .linalg import DEFAULT_BOUND, Mode, skew_spectrum

#: Scaled-residual acceptance threshold: |rho - p/q| * q^2 <= ACCEPT_TOL.
ACCEPT_TOL = 1e-9

#: Scaled-residual rejection threshold: every convergent above this is evidence
#: of incommensurability within the bound.
REJECT_TOL = 1e-6

#: exp(T A) must return to the identity within this times n.
EXP_CONFIRM_TOL = 1e-8


class AllZeroSpectrum(ValueError):
    """The zero vector generates the constant curve; no period exists."""


class Closedness(Enum):
    COMMENSURATE = "commensurate"
    INCOMMENSURATE = "incommensurate"  # exact-mode proof
    INCOMMENSURATE_WITHIN_BOUND = "incommensurate-within-bound"  # float evidence
    UNDETERMINED = "undetermined"


class SpectralData(NamedTuple):
    """Eigenvalue data of a skew-Hermitian matrix: eig = {i * theta_k}.

    ``thetas`` is sorted descending. In Exact mode ``exact_squares`` holds the rational
    theta_k^2 aligned index by index with ``thetas``, or is all None where some theta^2 is
    irrational (``thetas`` then being the float spectrum); in Float mode it is None."""

    thetas: tuple
    exact_squares: Optional[tuple] = None


class ClosednessVerdict(NamedTuple):
    """``reason`` says why a verdict is Undetermined: "continued-fraction" (a
    ratio is neither resolved nor refuted within the bound) or
    "exp-confirmation" (exp(T A) missed the identity). ``defect`` is
    ||exp(T A) - I||_F wherever that check ran. ``thetas`` is the spectrum the
    verdict was decided on, ``SpectralData.thetas``."""

    status: Closedness
    base_frequency: Optional[float] = None
    period: Optional[float] = None
    multipliers: Optional[tuple] = None
    bound_used: Optional[int] = None
    reason: Optional[str] = None
    defect: Optional[float] = None
    thetas: Optional[tuple] = None

    @property
    def closed(self) -> Optional[bool]:
        """True / False / None(unknown); the within-bound verdict counts as False."""
        if self.status is Closedness.COMMENSURATE:
            return True
        if self.status is Closedness.UNDETERMINED:
            return None
        return False


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def matrix_spectral_data(a) -> SpectralData:
    """Spectral data of any skew-Hermitian CMatrix (not only tangent vectors)."""
    if a.mode is Mode.FLOAT:
        return SpectralData(tuple(skew_spectrum(a)))
    from .gaussian import exact_skew_squares  # here, so float requests never load gaussian

    thetas, squares = exact_skew_squares(a)
    return SpectralData(tuple(thetas), tuple(squares))


def spectral_data(x: TangentVector) -> SpectralData:
    return matrix_spectral_data(x.matrix)


# ---------------------------------------------------------------------------
# commensurability
# ---------------------------------------------------------------------------


def _convergents(x: float, max_den: int):
    """Continued-fraction convergents (p, q) of x >= 0 with q <= max_den."""
    p_prev, q_prev = 1, 0
    a = int(math.floor(x))
    p, q = a, 1
    yield p, q
    frac = x - a
    while frac > 1e-15 and q <= max_den:
        val = 1.0 / frac
        a = int(math.floor(val))
        frac = val - a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q > max_den:
            return
        yield p, q


def _assess_ratio(rho: float, bound: int):
    """Classify one ratio: ("rational", p, q) / ("irrational",) / ("undetermined",)."""
    sign = -1 if rho < 0 else 1
    x = abs(rho)
    min_scaled = math.inf
    for p, q in _convergents(x, bound):
        scaled = abs(x - p / q) * q * q
        if scaled <= ACCEPT_TOL:
            return ("rational", sign * p, q)
        min_scaled = min(min_scaled, scaled)
    if min_scaled > REJECT_TOL:
        return ("irrational", None, None)
    return ("undetermined", None, None)


def _multipliers_and_base(ratios, theta_ref: float):
    """From signed rational ratios theta_k/theta_ref, given as integer pairs (p, q)
    with q > 0, the common base frequency.

    Over the lcm ell of the denominators the ratios are N_k / ell with integers
    N_k = p (ell // q). lambda_0 = theta_ref * g / ell with g = gcd(N_k) makes
    the multipliers N_k // g coprime, so 2*pi/lambda_0 is the minimal period.
    """
    ell = math.lcm(*(q for p, q in ratios if p))
    scaled = [p * (ell // q) for p, q in ratios]
    g = math.gcd(*scaled)
    return g / ell * theta_ref, tuple(k // g for k in scaled)


def _exact_ratios(sd: SpectralData):
    """theta_k / theta_ref as signed integer pairs (p, q) from the exact squares, with
    theta_ref the largest |theta|; None when one ratio is irrational."""
    squares = sd.exact_squares
    if squares[0] is None:  # some theta^2 is irrational
        return None
    s_ref = squares[max(range(len(sd.thetas)), key=lambda k: abs(sd.thetas[k]))]
    ratios = []
    for theta, s_k in zip(sd.thetas, squares):
        t = s_k / s_ref
        sp, sq = math.isqrt(t.numerator), math.isqrt(t.denominator)
        if sp * sp != t.numerator or sq * sq != t.denominator:
            return None
        ratios.append((-sp if theta < 0 else sp, sq))
    return ratios


def commensurability(sd: SpectralData, bound: int = DEFAULT_BOUND) -> ClosednessVerdict:
    """Decide (Exact) or bound-test (Float) the commensurability of the spectrum."""
    if bound < 1:
        raise ValueError("denominator bound must be a positive integer")
    theta_ref = max((abs(t) for t in sd.thetas), default=0.0)
    if theta_ref == 0.0:
        raise AllZeroSpectrum("all eigenvalues vanish; the curve is constant")
    if sd.exact_squares is not None:
        ratios, bound = _exact_ratios(sd), None  # a proof: no bound
        if ratios is None:
            return ClosednessVerdict(Closedness.INCOMMENSURATE, thetas=sd.thetas)
    else:
        assessed = [_assess_ratio(theta / theta_ref, bound) for theta in sd.thetas]
        kinds = {kind for kind, _, _ in assessed}
        if "irrational" in kinds:
            return ClosednessVerdict(Closedness.INCOMMENSURATE_WITHIN_BOUND, bound_used=bound,
                                     thetas=sd.thetas)
        if "undetermined" in kinds:
            return ClosednessVerdict(Closedness.UNDETERMINED, bound_used=bound,
                                     reason="continued-fraction", thetas=sd.thetas)
        ratios = [(p, q) for _, p, q in assessed]
    lambda0, multipliers = _multipliers_and_base(ratios, theta_ref)
    period = 2.0 * math.pi / lambda0 if lambda0 else math.inf
    if bound is None and period == math.inf:  # a proof, of a period no float holds
        raise ValueError("the period lies outside the float range: it exceeds 1.8e+308")
    return ClosednessVerdict(
        status=Closedness.COMMENSURATE,
        base_frequency=lambda0,
        period=period,
        multipliers=multipliers,
        bound_used=bound,
        thetas=sd.thetas,
    )


def is_killing_closed(x: TangentVector, bound: int = DEFAULT_BOUND) -> ClosednessVerdict:
    """Spectral data -> commensurability, confirmed by exp(T A) ~ identity.

    The spectrum is computed once, here, and every verdict carries it as
    ``thetas``; an exact verdict whose floats leave the float range raises
    ValueError. The confirmation guards the float path against accepting
    spuriously large denominators; on failure, or on an infinite period (with a
    NaN defect), the verdict downgrades to Undetermined with reason
    "exp-confirmation". It reads the spectrum, as A = V diag(i theta) V^* with V
    unitary: ||exp(T A) - I||_F = ||e^{i T theta} - 1||_2. An exact verdict is a
    proof: it runs no float confirmation and carries no bound and no defect.
    """
    sd = spectral_data(x)
    verdict = commensurability(sd, bound)
    if verdict.status is Closedness.COMMENSURATE and sd.exact_squares is None:
        defect = math.nan  # an infinite period has no exp(T A) to evaluate
        if math.isfinite(verdict.period):
            defect = float(np.linalg.norm(np.exp(1j * verdict.period * np.array(sd.thetas)) - 1.0))
        if not defect <= EXP_CONFIRM_TOL * x.partition.total:  # a nan defect fails too
            return ClosednessVerdict(Closedness.UNDETERMINED, bound_used=bound,
                                     reason="exp-confirmation", defect=defect, thetas=sd.thetas)
        return verdict._replace(defect=defect)
    return verdict


# ---------------------------------------------------------------------------
# the geodesic
# ---------------------------------------------------------------------------


def geodesic_return_distance(x: TangentVector, t):
    """||off-diagonal blocks of exp(tA)||_F = sqrt(sum_k sin^2(theta_k t)) at each t of
    the array ``t``, for an equigeodesic ``x`` (others raise NotEquigeodesic): the
    block-diagonal U of the canonical form keeps off-block norms, and J rotates by
    a_k t in planes holding sin(a_k t) twice. The zeros at t > 0, where the geodesic
    through o is back at o, are exactly the multiples of ``is_killing_closed(x).period
    / 2``, as the multipliers have gcd 1; an incommensurate spectrum has none.
    """
    _require_equigeodesic(x)
    phases = np.multiply.outer(np.asarray(t, dtype=float), spectral_data(x).thetas)
    return np.sqrt(np.sum(np.sin(phases) ** 2, axis=-1))
