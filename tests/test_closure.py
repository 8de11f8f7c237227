"""Spectral data, commensurability, Killing-field closedness, and the closed-form
return distance of the geodesic."""

import csv
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exp_defect
from flagdesic import (
    AllZeroSpectrum,
    Closedness,
    CMatrix,
    FlagPartition,
    GaussianRational,
    Mode,
    NotEquigeodesic,
    SpectralData,
    TangentVector,
    commensurability,
    geodesic_return_distance,
    is_killing_closed,
    matrix_spectral_data,
    random_equigeodesic,
    spectral_data,
    weyl_vector,
)
from flagdesic.cli import main
from flagdesic.closure import _multipliers_and_base
from flagdesic.documents import serialize_vector
from flagdesic.examples import fixture_vector
from flagdesic.roots import Root

GR = GaussianRational


def sqrt2_vector(mode=Mode.FLOAT) -> TangentVector:
    """Partition (2,2), upper block diag(1, 1+i): thetas {1, sqrt(2)} twice."""
    p = FlagPartition((2, 2))
    if mode is Mode.FLOAT:
        blk = [[1.0, 0.0], [0.0, 1.0 + 1.0j]]
    else:
        blk = [[GR(1), GR(0)], [GR(0), GR(1, 1)]]
    return TangentVector.from_blocks(p, {(1, 2): blk}, mode)


# ---------------------------------------------------------------------------
# spectral data
# ---------------------------------------------------------------------------


def test_spectral_data_paper_f4():
    sd = spectral_data(fixture_vector("f4-x2y3"))
    assert sd.thetas == pytest.approx([3.0, 2.0, -2.0, -3.0])
    assert sd.exact_squares is None


def test_spectral_data_column_example():
    sd = spectral_data(fixture_vector("fn-211"))
    assert sd.thetas == pytest.approx([2.0, 1.0, 0.0, -1.0, -2.0])


def test_spectral_data_zero_vector():
    p = FlagPartition((2, 1))
    sd = spectral_data(TangentVector(p, CMatrix(np.zeros((3, 3)), Mode.FLOAT)))
    assert sd.thetas == pytest.approx([0.0, 0.0, 0.0])


def test_spectral_data_exact_squares_aligned():
    sd = spectral_data(sqrt2_vector(Mode.EXACT))
    assert sd.exact_squares is not None
    for theta, sq in zip(sd.thetas, sd.exact_squares):
        assert theta * theta == pytest.approx(float(sq))


def test_spectrum_symmetry_for_real_and_equigeodesic_vectors():
    rng = np.random.default_rng(51)
    p = FlagPartition((2, 2, 1))
    for k in range(10):
        # real-valued tangent vector: antisymmetric, spectrum always paired
        blocks = {
            pair: rng.normal(size=(p.parts[pair[0] - 1], p.parts[pair[1] - 1]))
            for pair in p.positive_pairs()
        }
        x = TangentVector.from_blocks(p, blocks)
        thetas = np.array(spectral_data(x).thetas)
        assert np.allclose(thetas, -thetas[::-1], atol=1e-9 * max(1.0, x.fro()))
        # equigeodesic: paired by the canonical form
        y = random_equigeodesic(p, 880 + k)
        thetas = np.array(spectral_data(y).thetas)
        assert np.allclose(thetas, -thetas[::-1], atol=1e-9 * max(1.0, y.fro()))


def test_spectral_scale_covariance():
    p = FlagPartition((2, 2, 1))
    x = random_equigeodesic(p, 99)
    base = np.array(spectral_data(x).thetas)
    scaled = np.array(spectral_data(x.scaled(2.5)).thetas)
    assert np.allclose(scaled, 2.5 * base, atol=1e-9 * max(1.0, x.fro()))


# ---------------------------------------------------------------------------
# commensurability
# ---------------------------------------------------------------------------


def test_commensurate_integer_spectrum():
    v = commensurability(SpectralData((3.0, 2.0, -2.0, -3.0)))
    assert v.status is Closedness.COMMENSURATE
    assert v.base_frequency == pytest.approx(1.0)
    assert v.period == pytest.approx(2 * math.pi)
    assert v.multipliers == (3, 2, -2, -3)


def test_commensurate_single_pair():
    v = commensurability(SpectralData((5.0, -5.0)))
    assert v.status is Closedness.COMMENSURATE
    assert v.base_frequency == pytest.approx(5.0)
    assert v.period == pytest.approx(2 * math.pi / 5.0)
    assert v.multipliers == (1, -1)


def test_commensurate_rational_ratios():
    thetas = (1.5, 1.0, 0.0, -1.0, -1.5)
    v = commensurability(SpectralData(thetas))
    assert v.status is Closedness.COMMENSURATE
    assert v.base_frequency == pytest.approx(0.5)
    assert v.multipliers == (3, 2, 0, -2, -3)
    for theta, m in zip(thetas, v.multipliers):
        assert theta == pytest.approx(m * v.base_frequency, abs=1e-9 * 1.5)


def test_incommensurate_sqrt2_float():
    sd = SpectralData((math.sqrt(2), 1.0, -1.0, -math.sqrt(2)))
    v = commensurability(sd, bound=10**6)
    assert v.status is Closedness.INCOMMENSURATE_WITHIN_BOUND
    assert v.bound_used == 10**6
    assert v.closed is False


def test_incommensurate_sqrt2_exact():
    sd = spectral_data(sqrt2_vector(Mode.EXACT))
    v = commensurability(sd)
    assert v.status is Closedness.INCOMMENSURATE
    assert v.bound_used is None
    assert v.closed is False


def test_golden_ratio_incommensurate():
    phi = (1 + math.sqrt(5)) / 2
    v = commensurability(SpectralData((phi, 1.0, -1.0, -phi)))
    assert v.status is Closedness.INCOMMENSURATE_WITHIN_BOUND


def test_near_rational_is_undetermined():
    # a 1e-8 perturbation of 1/2 is neither resolved nor refutable at 1e-9/1e-6
    rho = 0.5 + 1e-8
    v = commensurability(SpectralData((1.0, rho, -rho, -1.0)))
    assert v.status is Closedness.UNDETERMINED
    assert v.closed is None
    assert v.reason == "continued-fraction" and v.defect is None


def test_all_zero_spectrum_raises():
    with pytest.raises(AllZeroSpectrum):
        commensurability(SpectralData((0.0, 0.0)))
    p = FlagPartition((1, 1))
    with pytest.raises(AllZeroSpectrum):
        is_killing_closed(TangentVector(p, CMatrix(np.zeros((2, 2)), Mode.FLOAT)))


def _fraction_gcd(values):
    """Largest rational dividing every value: the brute-force oracle."""
    from fractions import Fraction

    den = math.lcm(*[v.denominator for v in values])
    nums = [abs(int(v * den)) for v in values if v != 0]
    return Fraction(math.gcd(*nums), den)


def test_float_commensurability_against_fraction_oracle():
    # random small-rational spectra: the continued-fraction path must recover
    # the exact gcd-based base frequency
    from fractions import Fraction

    rng = np.random.default_rng(55)
    for _ in range(50):
        k = rng.integers(2, 6)
        fracs = []
        for _ in range(k):
            f = Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 13)))
            fracs.extend([f, -f])
        expected = _fraction_gcd(fracs)
        thetas = tuple(sorted((float(f) for f in fracs), reverse=True))
        v = commensurability(SpectralData(thetas))
        assert v.status is Closedness.COMMENSURATE
        assert v.base_frequency == pytest.approx(float(expected), rel=1e-9)
        for theta, m in zip(thetas, v.multipliers):
            assert theta == pytest.approx(m * v.base_frequency, abs=1e-9 * max(thetas))


def test_commensurability_verdict_scale_invariant():
    base = (3.0, 2.0, -2.0, -3.0)
    for c in (1e-3, 1.0, 1e3):
        v = commensurability(SpectralData(tuple(c * t for t in base)))
        assert v.status is Closedness.COMMENSURATE
        assert v.multipliers == (3, 2, -2, -3)
        assert v.base_frequency == pytest.approx(c)


def _fraction_multipliers_and_base(ratios, theta_ref):
    """The base frequency and multipliers computed on Fractions, as closure once did."""
    nums = [abs(r.numerator) for r in ratios if r != 0]
    dens = [r.denominator for r in ratios if r != 0]
    base = Fraction(math.gcd(*nums), math.lcm(*dens))
    return float(base) * theta_ref, tuple(int(r / base) for r in ratios)


@given(
    st.lists(st.tuples(st.integers(-10**9, 10**9), st.integers(1, 10**6)), min_size=1, max_size=12)
    .filter(lambda pairs: any(p for p, _ in pairs)),
    st.floats(1e-6, 1e6),
)
def test_integer_pair_base_frequency_matches_fractions(pairs, theta_ref):
    # pairs need not be in lowest terms
    lambda0, multipliers = _multipliers_and_base(pairs, theta_ref)
    ref_lambda0, ref_multipliers = _fraction_multipliers_and_base(
        [Fraction(p, q) for p, q in pairs], theta_ref
    )
    assert multipliers == ref_multipliers
    assert abs(lambda0 - ref_lambda0) <= math.ulp(ref_lambda0)


# ---------------------------------------------------------------------------
# is_killing_closed
# ---------------------------------------------------------------------------


def test_f4_fixture_killing_closed():
    x = fixture_vector("f4-x2y3")
    v = is_killing_closed(x)
    assert v.status is Closedness.COMMENSURATE
    assert v.period == pytest.approx(2 * math.pi)
    assert exp_defect(x.matrix, v.period) <= 1e-9
    assert v.reason is None and 0.0 <= v.defect <= 1e-9


def test_exp_confirmation_downgrade_carries_reason_and_defect():
    # thetas 1, 1/997, 1/991, 1/983 resolve as rationals, but the common period
    # 2*pi*997*991*983 is too long for float phases to return to the identity
    x = _downgrade_vector()
    assert commensurability(spectral_data(x)).status is Closedness.COMMENSURATE
    v = is_killing_closed(x)
    assert v.status is Closedness.UNDETERMINED
    assert v.reason == "exp-confirmation"
    assert v.defect > 8e-8  # EXP_CONFIRM_TOL * n


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * theta in exp
def test_nan_confirmation_defect_is_undetermined(tmp_path, capsys):
    # theta = 1e-320 makes the period inf and the defect nan, which must not pass the check
    x = TangentVector.from_blocks(FlagPartition((1, 1)), {(1, 2): [[1e-320]]})
    v = is_killing_closed(x)
    assert v.status is Closedness.UNDETERMINED
    assert v.reason == "exp-confirmation" and math.isnan(v.defect)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"parts": [1, 1], "blocks": {"1,2": [[[1e-320, 0]]]}}))
    assert main(["closedness", str(path)]) == 3
    assert "reason: exp-confirmation, exp(T A) defect nan\n" in capsys.readouterr().out


def _downgrade_vector():
    p = FlagPartition((1,) * 8)
    values = (1.0, 1 / 997, 1 / 991, 1 / 983)
    return TangentVector.from_blocks(p, {(2 * k + 1, 2 * k + 2): [[v]] for k, v in enumerate(values)})


@pytest.mark.parametrize("x", [fixture_vector("f4-x2y3"), _downgrade_vector()])
def test_confirmation_defect_read_from_spectrum_matches_exp(x):
    # ||exp(T A) - I||_F = ||e^{i T theta} - 1||_2, whether the check passes or downgrades
    period = commensurability(spectral_data(x)).period
    expected = exp_defect(x.matrix, period)
    assert is_killing_closed(x).defect == pytest.approx(expected, abs=1e-12)


def test_float_closedness_runs_no_eigendecomposition(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert is_killing_closed(fixture_vector("f9-333")).status is Closedness.COMMENSURATE
    assert is_killing_closed(_downgrade_vector()).reason == "exp-confirmation"


def test_exact_verdict_skips_exp_confirmation():
    # the same vector in exact mode: the commensurability is proven, so the
    # float exp(T A) check that downgrades the float verdict does not run
    values = (1, Fraction(1, 997), Fraction(1, 991), Fraction(1, 983))
    v = is_killing_closed(_two_by_two_rotations(values))
    assert v.status is Closedness.COMMENSURATE
    assert v.period == pytest.approx(2 * math.pi * 997 * 991 * 983, rel=1e-12)
    assert v.bound_used is None and v.reason is None and v.defect is None


def test_weyl_vectors_killing_closed():
    for parts in [(1, 1, 1), (2, 2), (3, 1, 1)]:
        p = FlagPartition(parts)
        root = next(
            Root(p, i, j, 1, 1) for i, j in p.positive_pairs()
        )
        for kind in ("A", "S"):
            v = is_killing_closed(weyl_vector(p, root, kind))
            assert v.status is Closedness.COMMENSURATE


def test_incommensurate_killing_field():
    v = is_killing_closed(sqrt2_vector())
    assert v.status is Closedness.INCOMMENSURATE_WITHIN_BOUND
    ve = is_killing_closed(sqrt2_vector(Mode.EXACT))
    assert ve.status is Closedness.INCOMMENSURATE


def test_incommensurate_two_rotation_blocks():
    # x = 1, y = sqrt(2) on the full flag of 4: not closed, closure unknown
    p = FlagPartition((1, 1, 1, 1))
    x = TangentVector.from_blocks(
        p, {(1, 2): [[1.0]], (3, 4): [[math.sqrt(2.0)]]}
    )
    v = is_killing_closed(x)
    assert v.status is Closedness.INCOMMENSURATE_WITHIN_BOUND
    assert v.closed is False


def test_period_is_minimal():
    x = fixture_vector("f4-x2y3")
    v = is_killing_closed(x)
    assert math.gcd(*[m for m in v.multipliers if m]) == 1
    for q in range(2, 6):
        assert exp_defect(x.matrix, v.period / q) > 1e-3


def test_conjugation_invariance_full_unitary():
    # closedness depends on the eigenvalues only, so any unitary conjugation
    # (not just block-diagonal) preserves spectrum and verdict
    rng = np.random.default_rng(53)
    x = fixture_vector("f4-x2y3")
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    conj = CMatrix(q.conj().T @ x.matrix.data @ q, Mode.FLOAT)
    sd = matrix_spectral_data(conj)
    assert np.allclose(sd.thetas, spectral_data(x).thetas, atol=1e-9)
    v = commensurability(sd)
    assert v.status is Closedness.COMMENSURATE
    assert v.period == pytest.approx(2 * math.pi)


#: Gaussian-integer parts, zero half the time, so that blocks are sparse as well as dense
_SMALL_PARTS = st.sampled_from((0, 0, 0, 1, -1, 2))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(1, 1, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (3, 1, 2), (1,) * 5]),
       st.data())
def test_exact_float_agreement_small_integers(parts, data):
    # general upper blocks, not only equigeodesic ones: chains, irrational theta^2 and
    # rational spectra; exact mode decides every one, and float mode agrees where it decides
    p = FlagPartition(parts)
    blocks = {(i, j): [[GR(data.draw(_SMALL_PARTS), data.draw(_SMALL_PARTS))
                        for _ in range(parts[j - 1])] for _ in range(parts[i - 1])]
              for i, j in p.positive_pairs()}
    xe = TangentVector.from_blocks(p, blocks, Mode.EXACT)
    if xe.matrix.is_zero():
        return
    ve = is_killing_closed(xe)
    assert ve.status in (Closedness.COMMENSURATE, Closedness.INCOMMENSURATE)
    vf = is_killing_closed(xe.to_float())
    if vf.closed is not None:
        assert ve.closed == vf.closed
    if vf.status is ve.status is Closedness.COMMENSURATE:
        assert ve.base_frequency == pytest.approx(vf.base_frequency, rel=1e-9)
    assert ve.thetas == pytest.approx(vf.thetas, abs=1e-9)


def _two_by_two_rotations(values, parts=None):
    """Exact vector with entry values[k] at (k + 1, k + 1 + n // 2), on the full flag of
    n = 2 len(values) unless ``parts`` is given, whose blocks of at most n / 2 rows keep each
    entry off the diagonal blocks: thetas +-values, and 0 where n is odd."""
    p = FlagPartition(parts or (1,) * (2 * len(values)))
    arr = np.zeros((p.total, p.total), dtype=object)
    for k, v in enumerate(values):
        arr[k, k + p.total // 2] = v
    u = CMatrix(arr, Mode.EXACT)
    return TangentVector(p, u - u.H)


def test_rational_theta_is_the_correctly_rounded_quotient():
    # theta = k/D from one integer square root; sqrt(k^2 / D^2) rounded twice, 1 ulp off here
    a = Fraction(195252963, 724217064)
    k, d = a.numerator, a.denominator
    x = _two_by_two_rotations([a])
    assert spectral_data(x).thetas == (k / d, -k / d)
    assert is_killing_closed(x).base_frequency == k / d


@pytest.mark.parametrize(
    "values, base",
    [
        # denominators of the characteristic polynomial of -A^2 grow like 10^(2n)
        ([Fraction(k, 10) for k in range(1, 7)], Fraction(1, 10)),
        # moduli 3 orders of magnitude apart
        ([Fraction(1, 1000), Fraction(2001, 1000)], Fraction(1, 1000)),
    ],
)
def test_exact_decides_rational_spectra_with_large_denominators(values, base):
    x = _two_by_two_rotations(values)
    sd = spectral_data(x)
    expected = sorted(values + [-v for v in values], reverse=True)
    assert list(sd.exact_squares) == [v * v for v in expected]
    assert sd.thetas == pytest.approx([float(v) for v in expected], abs=1e-15)
    v = is_killing_closed(x)
    assert v.status is Closedness.COMMENSURATE and v.thetas == sd.thetas
    assert v.base_frequency == pytest.approx(float(base), rel=1e-12)
    assert v.multipliers == tuple(int(t / base) for t in expected)
    vf = is_killing_closed(x.to_float())
    assert vf.status is Closedness.COMMENSURATE
    assert vf.period == pytest.approx(v.period, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(1,) * 4, (1,) * 9, (1,) * 16, (2, 2), (2, 1, 3, 2), (2,) * 8]),
       st.lists(st.integers(10**40, 10**50), min_size=2, max_size=3, unique=True),
       st.sampled_from([1, 3, 10**9]), st.data())
@example((1,) * 16, [10**50, 10**50 - 1], 1, None)
def test_exact_closedness_at_high_multiplicity(parts, numerators, den, data):
    # two or three values, so a theta^2 is a root of s up to n times
    half = sum(parts) // 2
    picks = [0] * half if data is None else [data.draw(st.sampled_from(range(len(numerators))))
                                             for _ in range(half)]
    values = [Fraction(numerators[k], den) for k in picks]
    thetas = sorted(values + [-v for v in values] + [Fraction(0)] * (sum(parts) % 2), reverse=True)
    ell = math.lcm(*(t.denominator for t in thetas))
    g = math.gcd(*(int(t * ell) for t in thetas))
    v = is_killing_closed(_two_by_two_rotations(values, parts))
    assert v.status is Closedness.COMMENSURATE
    assert v.multipliers == tuple(int(t * ell) // g for t in thetas)
    assert v.thetas == tuple(float(t) for t in thetas)


def test_exact_spectrum_of_close_large_roots():
    # theta^2 = 10^40 - 1 from two stars a_12, a_13 (theta^2 = |a_12|^2 + |a_13|^2), below
    # theta^2 = 10^40 from one pair; seen from above they look like one root of multiplicity
    # about 6, and that many floor steps at once pass the largest root unless certified
    a, b, c, d = 99999999999999999997, 24494897427, 153181, 131470
    assert a * a + b * b + c * c + d * d == 10**40 - 1
    star = {(1, 2): [[GR(a, b)]], (1, 3): [[GR(c, d)]], (4, 5): [[GR(a, b)]], (4, 6): [[GR(c, d)]]}
    x = TangentVector.from_blocks(FlagPartition((1,) * 8), {**star, (7, 8): [[10**20]]}, Mode.EXACT)
    sd = spectral_data(x)
    # the floats of both thetas are 1e20, so the squares of equal thetas come in either order
    assert Counter(sd.exact_squares) == {10**40: 2, 10**40 - 1: 4, 0: 2}
    assert sd.thetas == pytest.approx([1e20, 1e20, 1e20, 0, 0, -1e20, -1e20, -1e20], rel=1e-15)
    assert is_killing_closed(x).status is Closedness.INCOMMENSURATE


# ---------------------------------------------------------------------------
# return of the geodesic, in closed form
# ---------------------------------------------------------------------------


def test_return_distance_f4_vanishes_first_at_half_the_period():
    x = fixture_vector("f4-x2y3")
    half = is_killing_closed(x).period / 2
    assert half == pytest.approx(math.pi)
    assert geodesic_return_distance(x, half) <= 1e-12
    assert geodesic_return_distance(x, np.linspace(0.0, half, 401)[1:-1]).min() > 1e-3


def test_return_distance_antipodal_pair_closes_at_pi_over_a():
    # single pair {a, -a}: the curve closes at pi/a, half the group period
    a = 1.5
    p = FlagPartition((1, 1))
    x = TangentVector.from_blocks(p, {(1, 2): [[a]]})
    assert is_killing_closed(x).period / 2 == pytest.approx(math.pi / a)
    assert geodesic_return_distance(x, math.pi / a) <= 1e-12
    ts = np.linspace(0.0, 5.0, 51)
    assert geodesic_return_distance(x, ts) == pytest.approx(
        math.sqrt(2) * np.abs(np.sin(a * ts)), abs=1e-15
    )


def test_return_distance_sqrt2_never_vanishes():
    # exact mode proves incommensurability, so the geodesic never closes: where
    # sin(t) vanishes, sin(sqrt(2) t) does not
    x = sqrt2_vector(Mode.EXACT)
    sd = spectral_data(x)
    v = is_killing_closed(x)
    assert v.status is Closedness.INCOMMENSURATE and v.thetas == sd.thetas
    ts = math.pi * np.arange(1, 33)
    assert geodesic_return_distance(x, ts).min() > 1e-2
    assert geodesic_return_distance(x, np.linspace(0.0, 100.0, 5001)[1:]).min() > 1e-3


def test_return_distance_zero_vector_and_validation():
    p = FlagPartition((1, 1))
    zero = TangentVector(p, CMatrix(np.zeros((2, 2)), Mode.FLOAT))
    assert np.all(geodesic_return_distance(zero, np.linspace(0.0, 10.0, 11)) == 0.0)
    chain = TangentVector.from_blocks(FlagPartition((1, 1, 1)), {(1, 2): [[1.0]], (2, 3): [[1.0]]})
    with pytest.raises(NotEquigeodesic) as info:
        geodesic_return_distance(chain, 1.0)
    assert info.value.violating_triple == (1, 2, 3)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=2, max_size=5).map(lambda parts: FlagPartition(tuple(parts))),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 20.0),
    st.integers(1, 24),
)
def test_curve_dist_k_is_the_closed_form(tmp_path_factory, p, seed, t_max, samples):
    x = random_equigeodesic(p, seed)
    work = tmp_path_factory.getbasetemp()
    (work / "equi.json").write_text(json.dumps(serialize_vector(x)))
    out = work / "equi.csv"
    argv = ["curve", str(work / "equi.json"), "--t-max", repr(t_max), "--samples", str(samples)]
    assert main([*argv, "--out", str(out)]) == 0
    dist = [float(row[-1]) for row in csv.reader(out.read_text().splitlines()[1:])]
    ts = [t_max * k / samples for k in range(samples + 1)]  # the t column holds 12 digits
    assert np.abs(np.array(dist) - geodesic_return_distance(x, ts)).max() <= 1e-12
