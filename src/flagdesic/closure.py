"""Closedness of the Killing field generated by a tangent vector.

The one-parameter group exp(tA) is a circle exactly when the eigenvalue
imaginary parts theta_1..theta_n are commensurate (all pairwise ratios
rational). Floats can never prove commensurability, so the Float verdict is
tri-state with an explicit denominator bound; Exact mode decides it outright
by testing whether ratios of the rational theta^2 values are squares of
rationals (theta_i/theta_j rational iff theta_i^2/theta_j^2 is a rational
square), which avoids ever representing an irrational square root.

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

from .flag import TangentVector, off_block_norm
from .linalg import Mode, exact_skew_squares, killing_flow, skew_spectrum

#: Default continued-fraction denominator bound.
DEFAULT_BOUND = 10**6

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

    ``thetas`` is sorted descending. In Exact mode ``exact_squares`` holds the
    rational theta_k^2 aligned index by index with ``thetas``.
    """

    thetas: tuple
    mode: Mode
    exact_squares: Optional[tuple] = None


class ClosednessVerdict(NamedTuple):
    """``reason`` says why a verdict is Undetermined: "continued-fraction" (a
    ratio is neither resolved nor refuted within the bound) or
    "exp-confirmation" (exp(T A) missed the identity). ``defect`` is
    ||exp(T A) - I||_F wherever that check ran."""

    status: Closedness
    base_frequency: Optional[float] = None
    period: Optional[float] = None
    multipliers: Optional[tuple] = None
    bound_used: Optional[int] = None
    reason: Optional[str] = None
    defect: Optional[float] = None

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
        return SpectralData(tuple(skew_spectrum(a)), Mode.FLOAT)
    thetas, squares = exact_skew_squares(a)
    return SpectralData(tuple(thetas), Mode.EXACT, tuple(squares))


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


def _commensurability_exact(sd: SpectralData) -> ClosednessVerdict:
    thetas = sd.thetas
    squares = sd.exact_squares
    ref_idx = max(range(len(thetas)), key=lambda k: abs(thetas[k]))
    s_ref = squares[ref_idx]
    ratios = []
    for theta, s_k in zip(thetas, squares):
        if s_k == 0:
            ratios.append((0, 1))
            continue
        t = s_k / s_ref
        sp, sq = math.isqrt(t.numerator), math.isqrt(t.denominator)
        if sp * sp != t.numerator or sq * sq != t.denominator:
            return ClosednessVerdict(status=Closedness.INCOMMENSURATE)
        ratios.append((-sp if theta < 0 else sp, sq))
    theta_ref = math.sqrt(float(s_ref))
    lambda0, multipliers = _multipliers_and_base(ratios, theta_ref)
    return ClosednessVerdict(
        status=Closedness.COMMENSURATE,
        base_frequency=lambda0,
        period=2.0 * math.pi / lambda0,
        multipliers=multipliers,
    )


def _commensurability_float(thetas, theta_ref: float, bound: int) -> ClosednessVerdict:
    ratios = []
    saw_irrational = False
    saw_undetermined = False
    for theta in thetas:
        kind, p, q = _assess_ratio(theta / theta_ref, bound)
        if kind == "rational":
            ratios.append((p, q))
        elif kind == "irrational":
            saw_irrational = True
        else:
            saw_undetermined = True
    if saw_irrational:
        return ClosednessVerdict(
            status=Closedness.INCOMMENSURATE_WITHIN_BOUND, bound_used=bound
        )
    if saw_undetermined:
        return ClosednessVerdict(
            status=Closedness.UNDETERMINED, bound_used=bound, reason="continued-fraction"
        )
    lambda0, multipliers = _multipliers_and_base(ratios, theta_ref)
    return ClosednessVerdict(
        status=Closedness.COMMENSURATE,
        base_frequency=lambda0,
        period=2.0 * math.pi / lambda0,
        multipliers=multipliers,
        bound_used=bound,
    )


def commensurability(sd: SpectralData, bound: int = DEFAULT_BOUND) -> ClosednessVerdict:
    """Decide (Exact) or bound-test (Float) the commensurability of the spectrum."""
    if bound < 1:
        raise ValueError("denominator bound must be a positive integer")
    if not sd.thetas:
        raise AllZeroSpectrum("empty spectrum")
    theta_ref = max(abs(t) for t in sd.thetas)
    if theta_ref == 0.0:
        raise AllZeroSpectrum("all eigenvalues vanish; the curve is constant")
    if sd.exact_squares is not None:
        return _commensurability_exact(sd)
    return _commensurability_float(sd.thetas, theta_ref, bound)


def is_killing_closed(
    x: TangentVector, bound: int = DEFAULT_BOUND, sd: Optional[SpectralData] = None
) -> ClosednessVerdict:
    """Spectral data -> commensurability, confirmed by exp(T A) ~ identity.

    ``sd`` is the spectral data of ``x`` when the caller already has it;
    otherwise it is computed here. The confirmation guards the float path
    against accepting spuriously large denominators; on failure the verdict
    downgrades to Undetermined with reason "exp-confirmation". It reads the
    spectrum, as A = V diag(i theta) V^* with V unitary: ||exp(T A) - I||_F =
    ||e^{i T theta} - 1||_2. An exact verdict is a proof: it runs no float
    confirmation and carries no bound and no defect.
    """
    sd = spectral_data(x) if sd is None else sd
    verdict = commensurability(sd, bound)
    if verdict.status is Closedness.COMMENSURATE and sd.exact_squares is None:
        defect = float(np.linalg.norm(np.exp(1j * verdict.period * np.array(sd.thetas)) - 1.0))
        if defect > EXP_CONFIRM_TOL * x.partition.total:
            return ClosednessVerdict(
                Closedness.UNDETERMINED, bound_used=bound, reason="exp-confirmation", defect=defect
            )
        return verdict._replace(defect=defect)
    return verdict


# ---------------------------------------------------------------------------
# coset return probe (heuristic)
# ---------------------------------------------------------------------------


def _golden_minimize(f, a: float, b: float, iters: int = 80):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def coset_return_probe(
    x: TangentVector,
    t_max: float,
    step: Optional[float] = None,
    tol: float = 1e-8,
):
    """Times t in (0, t_max] where exp(tA) is (nearly) block-diagonal.

    d(t) = || off-diagonal blocks of exp(tA) ||_F vanishes exactly when the
    curve returns to the base point, whether or not exp(tA) is the identity.
    Local minima of d with d <= tol are returned as (t, d) candidates.
    This is a sampling heuristic: a reported candidate is evidence of a coset
    return, and an empty list proves nothing about density or openness.
    Float mode only: ``killing_flow`` rejects an Exact ``x``.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if step is not None and step <= 0:
        raise ValueError("step must be positive")
    p = x.partition
    w, flow = killing_flow(x.matrix)
    top = float(np.max(np.abs(w), initial=0.0))
    if top == 0.0:
        return []
    if step is None:
        step = 1e-3 * (2.0 * math.pi / top)

    def dist(t: float) -> float:
        return off_block_norm(p, flow(t))

    ts = np.arange(step, t_max + 0.5 * step, step)
    if ts.size == 0:
        ts = np.array([t_max])
    ds = np.array([dist(float(t)) for t in ts])

    candidates = []
    # k = 0 is skipped: d always vanishes as t -> 0+, which is not a return
    for k in range(1, ts.size):
        left_ok = ds[k] <= ds[k - 1]
        right_ok = k == ts.size - 1 or ds[k] <= ds[k + 1]
        if left_ok and right_ok:
            lo = float(ts[k - 1])
            hi = float(ts[k + 1]) if k < ts.size - 1 else min(t_max, float(ts[k]) + step)
            t_star, d_star = _golden_minimize(dist, lo, hi)
            if d_star <= tol and 0.0 < t_star <= t_max + 0.5 * step:
                candidates.append((min(t_star, t_max), d_star))

    candidates.sort(key=lambda td: td[0])
    merged = []
    for t, d in candidates:
        if merged and abs(t - merged[-1][0]) < 0.5 * step:
            if d < merged[-1][1]:
                merged[-1] = (t, d)
            continue
        merged.append((t, d))
    return merged
