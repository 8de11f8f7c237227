"""Scalar field and matrix kernel tests."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exp_t, random_complex, random_skew
from flagdesic import (
    CMatrix,
    FlagPartition,
    GaussianRational,
    InvariantMetric,
    Mode,
    NotSkewHermitian,
    TangentVector,
    commutator,
    hadamard_action,
    matrix_spectral_data,
    project_m,
    skew_spectrum,
)
from flagdesic.cli import main
from flagdesic.gaussian import _sqrt_over, exact_char_poly, exact_skew_squares
from flagdesic.linalg import killing_flow, require_skew_hermitian

GR = GaussianRational


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, rationals)
def test_gaussian_rational_parse_round_trip(a, b):
    x = GR(a, b)
    assert GR.parse(str(x)) == x


def test_gaussian_rational_parse_forms():
    assert GR.parse("3") == GR(3)
    assert GR.parse("-1/2") == GR(Fraction(-1, 2))
    assert GR.parse("i") == GR(0, 1)
    assert GR.parse("-i") == GR(0, -1)
    assert GR.parse("2i") == GR(0, 2)
    assert GR.parse("1/2+3/4i") == GR(Fraction(1, 2), Fraction(3, 4))
    assert GR.parse("1-2/3i") == GR(1, Fraction(-2, 3))
    assert GR.parse("0.25-1.5i") == GR(Fraction(1, 4), Fraction(-3, 2))
    with pytest.raises(ValueError):
        GR.parse("1+2+3i")
    with pytest.raises(ValueError):
        GR.parse("abc")


@pytest.mark.parametrize("text", ["1 2", "1_000", "\u0661\u0662", "1 /2", "- 1", "1+2i3", ""])
def test_gaussian_rational_parse_takes_the_documented_grammar_only(text):
    # interior spaces, digit separators and non-ASCII digits are not in the grammar
    with pytest.raises(ValueError, match="each part must be an integer, p/q or a decimal"):
        GR.parse(text)


def test_gaussian_rational_parse_spaces_and_decimals():
    assert GR.parse(" 1/2 - i ") == GR(Fraction(1, 2), -1)
    assert GR.parse("+i") == GR(0, 1)
    assert GR.parse(".5") == GR(Fraction(1, 2))
    assert GR.parse("5.") == GR(5)
    assert GR.parse("-1/2i") == GR(0, Fraction(-1, 2))


def test_gaussian_rational_reduced():
    x = GR(Fraction(2, 4), Fraction(6, 4))
    assert x.re == Fraction(1, 2) and x.im == Fraction(3, 2)
    assert complex(GR(1, -2)) == 1 - 2j


def test_mode_mixing_rejected():
    with pytest.raises(ValueError):
        CMatrix(np.array([[GR(1), 0.5]], dtype=object), Mode.EXACT)
    with pytest.raises(ValueError, match="mode mixing"):
        CMatrix([[GR(1), 1j]], Mode.EXACT)
    coerced = CMatrix([[1, Fraction(1, 2)]], Mode.EXACT)
    assert coerced.den == 2 and coerced.data.tolist() == [[[2, 1]], [[0, 0]]]
    assert all(type(v) is int for v in coerced.data.flat)
    assert coerced.entries()[0, 1] == GR(Fraction(1, 2))
    a = CMatrix([[1.0]], Mode.FLOAT)
    b = CMatrix([[1]], Mode.EXACT)
    with pytest.raises(ValueError, match="mode"):
        _ = a + b
    with pytest.raises(ValueError, match="mode"):
        commutator(a, b)


def test_float_only_operations_reject_exact_input():
    # an exact caller would otherwise compute on the 2n x 2n embedding
    p = FlagPartition((1, 1))
    x = TangentVector.from_blocks(p, {(1, 2): [[GR(1, 1)]]}, Mode.EXACT)
    calls = {
        "scale": lambda: x.matrix.scale(2),
        "hadamard_action": lambda: hadamard_action(InvariantMetric.normal(p), x),
        "skew_spectrum": lambda: skew_spectrum(x.matrix),
        "killing_flow": lambda: killing_flow(x.matrix),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^{name} is Float-mode only$"):
            call()


def identity(n):
    return CMatrix(np.eye(n), Mode.FLOAT)


def scalar(g, n):
    """g times the n x n Exact identity."""
    return CMatrix([[g if r == c else 0 for c in range(n)] for r in range(n)], Mode.EXACT)


def test_dimension_mismatch_rejected():
    a = CMatrix(np.eye(2), Mode.FLOAT)
    b = CMatrix(np.eye(3), Mode.FLOAT)
    with pytest.raises(ValueError, match="dimension"):
        commutator(a, b)


# ---------------------------------------------------------------------------
# one expression for both modes
# ---------------------------------------------------------------------------

small_rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
gaussians = st.builds(GR, small_rationals, small_rationals)


@st.composite
def exact_matrices(draw):
    parts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = sum(parts)
    square = st.lists(st.lists(gaussians, min_size=n, max_size=n), min_size=n, max_size=n)
    return (FlagPartition(parts), CMatrix(draw(square), Mode.EXACT),
            CMatrix(draw(square), Mode.EXACT))


def assert_equal(x, y):
    """Exact matrices are equal exactly when their lowest-terms den and data are."""
    assert x.den == y.den and np.array_equal(x.data, y.data)


@settings(max_examples=40, deadline=None)
@given(exact_matrices(), gaussians, st.data())
def test_exact_matrix_ring_laws(mats, g, data):
    p, a, b = mats
    n = a.n_rows
    row = st.lists(gaussians, min_size=n, max_size=n)
    c = CMatrix(data.draw(st.lists(row, min_size=n, max_size=n)), Mode.EXACT)
    results = {
        "(a+b)-b": (a + b) - b,
        "a@(b+c)": a @ (b + c),
        "a@b+a@c": a @ b + a @ c,
        "(a@b).H": (a @ b).H,
        "b.H@a.H": b.H @ a.H,
        "-a": -a,
        "a@(g I)": a @ scalar(g, n),
        "project_m(a)": project_m(a, p),
        "a[1:, :1]": CMatrix(a.entries()[min(1, n - 1):, :1], Mode.EXACT),
        "a-a": a - a,
    }
    for name, m in results.items():
        assert m.den > 0 and math.gcd(m.den, *m.data.flat) == 1, name
        assert not m.data.flags.writeable, name
    assert_equal(results["(a+b)-b"], a)
    assert_equal(results["a@(b+c)"], results["a@b+a@c"])
    assert_equal(results["(a@b).H"], results["b.H@a.H"])
    assert_equal(results["a-a"], CMatrix(np.zeros((n, n), dtype=int), Mode.EXACT))
    assert results["a-a"].den == 1


@pytest.mark.parametrize("mode", [Mode.FLOAT, Mode.EXACT])
def test_the_constructor_copies_and_every_computed_matrix_is_read_only(mode):
    half = Fraction(1, 2) if mode is Mode.EXACT else 0.5
    arr = np.array([[0, half], [-half, 2]], dtype=object if mode is Mode.EXACT else complex)
    m = CMatrix(arr, mode)
    before = m.data.copy()
    arr[:] = 7
    assert np.array_equal(m.data, before)
    p = FlagPartition((1, 1))
    results = {"m+m": m + m, "m-m": m - m, "-m": -m, "m@m": m @ m, "m.H": m.H,
               "project_m": project_m(m, p), "to_float": m.to_float()}
    if mode is Mode.FLOAT:
        results.update(scale=m.scale(2j))
    for name, r in results.items():
        assert not r.data.flags.writeable, name
        if r.mode is Mode.EXACT:
            assert r.den > 0 and math.gcd(r.den, *r.data.flat) == 1, name
        else:
            assert r.data.dtype == np.complex128 and r.data.shape == (2, 2), name
    if mode is Mode.EXACT:  # over den 2, m + m reduces to den 1 and m @ m keeps den 4
        assert (m + m).den == 1 and (m @ m).den == 4


def assert_same(exact, flt):
    assert exact.mode is Mode.EXACT
    np.testing.assert_allclose(exact.to_float().data, flt.data, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(exact_matrices(), gaussians)
def test_exact_operations_agree_with_float(mats, g):
    p, a, b = mats
    af, bf = a.to_float(), b.to_float()
    assert_same(-a, -af)
    assert_same(a.H, af.H)
    assert_same(a @ scalar(g, a.n_rows), af.scale(complex(g)))
    assert_same(a @ b, af @ bf)
    assert_same(project_m(a, p), project_m(af, p))
    entries = a.entries()
    blocks = {
        (i, j): CMatrix(entries[slice(*p.block_range(i)), slice(*p.block_range(j))], Mode.EXACT)
        for i, j in p.positive_pairs()
    }
    x = TangentVector.from_blocks(p, blocks, Mode.EXACT)
    xf = TangentVector.from_blocks(p, {k: blk.to_float() for k, blk in blocks.items()})
    assert_same(x.matrix, xf.matrix)


# ---------------------------------------------------------------------------
# commutator
# ---------------------------------------------------------------------------


def unit(n, r, c):
    arr = np.zeros((n, n), dtype=complex)
    arr[r, c] = 1.0
    return CMatrix(arr, Mode.FLOAT)


def test_commutator_matrix_units():
    # [E12, E23] = E12 E23 - E23 E12 = E13
    e12, e23, e13 = unit(3, 0, 1), unit(3, 1, 2), unit(3, 0, 2)
    assert commutator(e12, e23).allclose(e13)


def test_commutator_self_is_zero():
    rng = np.random.default_rng(7)
    a = random_complex(4, 4, rng)
    assert commutator(a, a).fro() <= 1e-12 * a.fro() ** 2


def test_commutator_2x2_hand_value():
    a = CMatrix([[1j, 0], [0, -1j]], Mode.FLOAT)
    b = CMatrix([[0, 1], [-1, 0]], Mode.FLOAT)
    expected = CMatrix([[0, 2j], [2j, 0]], Mode.FLOAT)
    assert commutator(a, b).allclose(expected)


def test_commutator_exact_mode():
    a = CMatrix([[GR(0, 1), GR(0)], [GR(0), GR(0, -1)]], Mode.EXACT)
    b = CMatrix([[0, 1], [-1, 0]], Mode.EXACT)
    out = commutator(a, b)
    assert out.mode is Mode.EXACT
    assert out.entries()[0, 1] == GR(0, 2)
    assert out.entries()[1, 0] == GR(0, 2)
    assert not out.entries()[0, 0]
    # antisymmetry holds exactly in Exact mode
    assert (out + commutator(b, a)).is_zero()


def test_commutator_antisymmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_complex(5, 5, rng)
        b = random_complex(5, 5, rng)
        lhs = commutator(a, b)
        rhs = -commutator(b, a)
        assert (lhs - rhs).fro() <= 1e-12 * max(lhs.fro(), 1.0)


# ---------------------------------------------------------------------------
# project_m
# ---------------------------------------------------------------------------


def test_project_m_kills_block_diagonal():
    p = FlagPartition((2, 1))
    arr = np.zeros((3, 3), dtype=complex)
    arr[:2, :2] = [[1, 2], [3, 4]]
    arr[2, 2] = 5
    assert project_m(CMatrix(arr, Mode.FLOAT), p).is_zero()


def test_project_m_all_ones_layout():
    p = FlagPartition((2, 1))
    ones = CMatrix(np.ones((3, 3)), Mode.FLOAT)
    out = project_m(ones, p)
    expected = np.ones((3, 3), dtype=complex)
    expected[:2, :2] = 0
    expected[2, 2] = 0
    assert out.allclose(CMatrix(expected, Mode.FLOAT))


def test_project_m_idempotent_and_self_adjoint():
    rng = np.random.default_rng(3)
    p = FlagPartition((2, 2, 1))
    for _ in range(10):
        a = random_complex(5, 5, rng)
        b = random_complex(5, 5, rng)
        pa = project_m(a, p)
        assert project_m(pa, p).allclose(pa)
        lhs = np.trace((pa @ b).data)
        rhs = np.trace((a @ project_m(b, p)).data)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_project_m_dimension_check():
    p = FlagPartition((2, 1))
    with pytest.raises(ValueError):
        project_m(CMatrix(np.eye(4), Mode.FLOAT), p)


# ---------------------------------------------------------------------------
# the trace pairing
# ---------------------------------------------------------------------------


def test_ad_skewness():
    # tr([x,a] b) + tr(a [x,b]) = 0
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = random_complex(4, 4, rng)
        a = random_complex(4, 4, rng)
        b = random_complex(4, 4, rng)
        lhs = np.trace((commutator(x, a) @ b).data) + np.trace((a @ commutator(x, b)).data)
        scale = x.fro() * a.fro() * b.fro()
        assert abs(lhs) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# skew_spectrum
# ---------------------------------------------------------------------------


def test_skew_spectrum_rotation_generator():
    a = CMatrix([[0, 2], [-2, 0]], Mode.FLOAT)
    assert skew_spectrum(a) == pytest.approx([2.0, -2.0])


def test_skew_spectrum_two_rotation_blocks():
    a = CMatrix(
        [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
    , Mode.FLOAT)
    assert skew_spectrum(a) == pytest.approx([3.0, 2.0, -2.0, -3.0])


def test_skew_spectrum_zero_matrix():
    assert skew_spectrum(CMatrix(np.zeros((3, 3)), Mode.FLOAT)) == [0.0, 0.0, 0.0]


def test_skew_spectrum_rejects_non_skew():
    with pytest.raises(NotSkewHermitian):
        skew_spectrum(CMatrix([[1, 0], [0, 1]], Mode.FLOAT))


def test_require_skew_hermitian_reports_defect_and_tolerance():
    # a + a^* = [[2, 0], [0, 0]]: defect 2, tolerance 1e-9 * ||a||_F = 1e-9 * sqrt(3)
    a = CMatrix([[1, 1], [-1, 0]], Mode.FLOAT)
    with pytest.raises(NotSkewHermitian, match=r"defect 2\.000e\+00, tolerance 1\.732e-09"):
        require_skew_hermitian(a)
    with pytest.raises(NotSkewHermitian, match="defect 2.000e"):
        require_skew_hermitian(CMatrix([[1, 1], [-1, 0]], Mode.EXACT))
    z, minus_z_bar = GaussianRational(1, 2), GaussianRational(-1, 2)
    require_skew_hermitian(CMatrix([[0, z], [minus_z_bar, 0]], Mode.EXACT))
    with pytest.raises(ValueError, match="square"):
        require_skew_hermitian(CMatrix(np.zeros((2, 3)), Mode.FLOAT))


def test_exact_spectrum_rejects_non_skew():
    # the exact kernels test skewness on the integer embedding, not through TangentVector
    i, minus_i = GR(0, 1), GR(0, -1)
    for a in (CMatrix([[1, 1], [-1, 0]], Mode.EXACT), CMatrix([[0, i], [minus_i, 0]], Mode.EXACT)):
        for solve in (exact_skew_squares, matrix_spectral_data):
            with pytest.raises(NotSkewHermitian, match="not skew-Hermitian .*exact test"):
                solve(a)
    with pytest.raises(ValueError, match="square"):
        exact_skew_squares(CMatrix(np.zeros((2, 3), dtype=int), Mode.EXACT))


def test_skew_spectrum_sums_to_trace():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_skew(5, rng)
        total = sum(skew_spectrum(a))
        expected = (np.trace(a.data) / 1j).real
        assert abs(total - expected) <= 1e-9 * max(1.0, a.fro())


def test_skew_spectrum_exact_rational():
    a = CMatrix(
        [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
    , Mode.EXACT)
    assert exact_skew_squares(a)[0] == pytest.approx([3.0, 2.0, -2.0, -3.0])


def test_skew_spectrum_exact_gaussian_entries():
    # sigma of [1, 1+i] block: thetas {1, sqrt(2)} both rational-squared
    a = CMatrix(
        [
            [0, 0, GR(1), GR(0)],
            [0, 0, GR(0), GR(1, 1)],
            [GR(-1), GR(0), 0, 0],
            [GR(0), GR(-1, 1), 0, 0],
        ]
    , Mode.EXACT)
    out = exact_skew_squares(a)[0]
    assert out == pytest.approx([math.sqrt(2), 1.0, -1.0, -math.sqrt(2)])


def test_skew_spectrum_exact_unavailable_for_irrational():
    # upper block [[1,1],[0,1]]: sigma^2 are roots of t^2 - 3t + 1, irrational
    b = [[1, 1], [0, 1]]
    arr = np.zeros((4, 4), dtype=object)
    for r in range(4):
        for c in range(4):
            arr[r, c] = GR(0)
    for r in range(2):
        for c in range(2):
            arr[r, 2 + c] = GR(b[r][c])
            arr[2 + c, r] = GR(-b[r][c])
    # D = 1 and s(y) = (y^2 - 3y + 1)^2 has no integer root: no exact squares, and the
    # thetas are the float spectrum, kept for printing
    a = CMatrix(arr, Mode.EXACT)
    thetas, squares = exact_skew_squares(a)
    assert squares == [None] * 4
    golden = (1 + math.sqrt(5)) / 2
    assert thetas == pytest.approx([golden, golden - 1, 1 - golden, -golden], abs=1e-12)
    assert thetas == pytest.approx(skew_spectrum(a.to_float()), abs=1e-12)


def test_skew_spectrum_exact_undecided_names_both_denominators(tmp_path, capsys):
    # theta^2 = 10^-10 beside theta^2 = 1: D^2 = 10^10 lies beyond what float precision
    # resolves next to theta = 1, yet the integer roots 1 and 10^10 of s decide it
    arr = np.full((4, 4), GR(0), dtype=object)
    arr[0, 1], arr[1, 0] = GR(Fraction(1, 10**5)), GR(Fraction(-1, 10**5))
    arr[2, 3], arr[3, 2] = GR(1), GR(-1)
    thetas, squares = exact_skew_squares(CMatrix(arr, Mode.EXACT))
    assert thetas == [1.0, 1e-05, -1e-05, -1.0]
    assert squares == [1, Fraction(1, 10**10), Fraction(1, 10**10), 1]
    doc = {"parts": [1, 1, 1, 1], "mode": "exact",
           "blocks": {"1,2": [["1/100000"]], "3,4": [["1"]]}}
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps(doc))
    assert main(["closedness", str(vec), "--mode", "exact"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("spectrum (i * theta): 1  1e-05  -1e-05  -1\nstatus: commensurate\n")
    assert out.endswith("multipliers: 100000 1 -1 -100000\n")


def test_skew_spectrum_exact_repeated_same_sign():
    # diag(i, i) has thetas {1, 1}: the signing must not force a pair
    a = CMatrix([[GR(0, 1), 0], [0, GR(0, 1)]], Mode.EXACT)
    assert exact_skew_squares(a)[0] == pytest.approx([1.0, 1.0])


def test_exact_signs_of_a_complex_three_cycle():
    # a = i U^*(P + P^T)U for the cyclic shift P and a Gaussian unit phase U:
    # complex entries, thetas {2, -1, -1}, a spectrum that is not symmetric
    phases = [GR(1), GR(Fraction(3, 5), Fraction(4, 5)), GR(Fraction(5, 13), Fraction(-12, 13))]
    u = CMatrix([[phases[r] if r == c else 0 for c in range(3)] for r in range(3)], Mode.EXACT)
    shift = CMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], Mode.EXACT)
    a = u.H @ (shift + shift.H) @ u @ scalar(GR(0, 1), 3)
    thetas, squares = exact_skew_squares(a)
    assert thetas == [2.0, -1.0, -1.0]
    assert squares == [4, 1, 1]
    assert thetas == pytest.approx(skew_spectrum(a.to_float()), abs=1e-12)


def test_integer_embedding_scales_and_embeds():
    a = CMatrix([[GR(Fraction(1, 2), Fraction(1, 3)), GR(2)], [GR(0, -1), GR(Fraction(-1, 4))]], Mode.EXACT)
    b = CMatrix([[GR(Fraction(2, 5), -1), GR(0), GR(3, Fraction(1, 7))],
                 [GR(-1, 2), GR(Fraction(5, 6)), GR(0, Fraction(-1, 2))]], Mode.EXACT)
    assert a.den == 12 and a.data.tolist() == [[[6, 24], [0, -3]], [[4, 0], [-12, 0]]]
    # @ is the product of the entries in Fractions, over a divisor of the product of the dens
    for m, k in [(a, a), (a, b)]:
        em, ek, inner = m.entries(), k.entries(), range(m.n_cols)
        want = [[GR(sum(em[r, t].re * ek[t, c].re - em[r, t].im * ek[t, c].im for t in inner),
                    sum(em[r, t].re * ek[t, c].im + em[r, t].im * ek[t, c].re for t in inner))
                 for c in range(k.n_cols)] for r in range(m.n_rows)]
        prod = m @ k
        assert prod.entries().tolist() == want and (m.den * k.den) % prod.den == 0


#: Exact parts with mixed denominators, numerators past int64, and magnitudes past the float
#: range both ways (10^400 and 10^-400), and zero.
_WIDE_PARTS = (st.just(0) | st.fractions(-(10**6), 10**6, max_denominator=12)
               | st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400)))


def _or_overflow(f):
    try:
        return f()
    except OverflowError:
        return OverflowError


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_int_parts_and_the_entry_readers_match_fractions(r, c, data):
    rows = [[GR(data.draw(_WIDE_PARTS), data.draw(_WIDE_PARTS)) for _ in range(c)]
            for _ in range(r)]
    a = CMatrix(rows, Mode.EXACT)
    assert a.data.shape == (2, r, c) and not a.data.flags.writeable
    x, y = a.data
    assert all(type(v) is int for v in [*x.flat, *y.flat])
    # den * A = x + i y, entry by entry, as Fractions
    assert [list(zip(xr, yr)) for xr, yr in zip(x.tolist(), y.tolist())] == \
        [[(a.den * v.re, a.den * v.im) for v in row] for row in rows]
    assert a.nonzero().tolist() == [[bool(v) for v in row] for row in rows]
    assert a.entries().tolist() == rows
    # the sum of squares is exact and rounded once: wherever sqrt reads it as a float, both
    # agree bit for bit; past that, the norm is its root, or inf where no float holds it
    square_sum, norm = sum(v.re**2 + v.im**2 for row in rows for v in row), a.fro()
    expected = _or_overflow(lambda: math.sqrt(square_sum))
    if expected is not OverflowError:
        assert norm == expected
    elif norm == math.inf:
        assert square_sum > Fraction(sys.float_info.max) ** 2
    else:
        assert abs(Fraction(norm) ** 2 / square_sum - 1) < 2**-51


def test_from_ints_is_the_matrix_of_the_same_entries():
    # a/b + (c/d) i, some not in lowest terms: lcm(b, d) = 420, and the lowest terms take 60
    a, b = [[1, -3, 0], [2, 4, 0]], [[2, 4, 1], [4, 6, 3]]
    c, d = [[0, 1, -2], [6, 0, 0]], [[1, 3, 5], [12, 1, 7]]
    ints = (np.array(v, dtype=object) for v in (a, b, c, d))
    got = CMatrix.from_ints(*ints)
    want = CMatrix([[GR(Fraction(a[r][k], b[r][k]), Fraction(c[r][k], d[r][k])) for k in range(3)]
                    for r in range(2)], Mode.EXACT)
    assert (got.mode, got.den, got.data.tolist()) == (want.mode, want.den, want.data.tolist())
    assert got.den == 60 and not got.data.flags.writeable
    halves = CMatrix.from_ints(*(np.array([[v]], dtype=object) for v in (2, 4, 6, 4)))
    assert (halves.den, halves.data.tolist()) == (2, [[[1]], [[3]]])


def test_exact_norm_past_the_float_range_is_a_float_as_in_float_mode():
    # the square of 10^200 passes the float range and its norm does not; 2 * 10^308 does
    big = 10**308
    for rows, norm in [([[10**200, 0], [0, 0]], 1e200), ([[big, big], [big, big]], math.inf)]:
        assert [CMatrix(rows, mode).fro() for mode in Mode] == [norm, norm]
    assert CMatrix([[GR(3 * 10**200, 4 * 10**200)]], Mode.EXACT).fro() == 5e200
    # a sum of squares that a float holds is rounded to it first, as math.sqrt reads it,
    # although the integer root here would round to 9.482e153
    assert CMatrix([[9482 * 10**150]], Mode.EXACT).fro() == 9.481999999999999e153


def test_exact_skew_test_past_the_float_range_raises_not_skew_hermitian():
    with pytest.raises(NotSkewHermitian, match=r"defect 2\.000e\+200, exact test"):
        require_skew_hermitian(CMatrix([[10**200, 0], [0, 0]], Mode.EXACT))


def _char_poly_reference(m):
    """det(x - m), highest coefficient first, by Faddeev-LeVerrier over Fractions, for a
    square matrix of exact complex entries given as (re, im) pairs: M_1 = I,
    c_k = -tr(m M_k) / k, M_{k+1} = m M_k + c_k I."""
    n = len(m)

    def times(a, b):
        return [[(sum(a[i][l][0] * b[l][j][0] - a[i][l][1] * b[l][j][1] for l in range(n)),
                  sum(a[i][l][0] * b[l][j][1] + a[i][l][1] * b[l][j][0] for l in range(n)))
                 for j in range(n)] for i in range(n)]

    coeffs = [Fraction(1)]
    mk = [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = times(m, mk)
        assert sum(am[i][i][1] for i in range(n)) == 0  # m is Hermitian: p is real
        coeffs.append(-sum(am[i][i][0] for i in range(n)) / k)
        mk = [[(re + coeffs[-1] * (i == j), im) for j, (re, im) in enumerate(row)]
              for i, row in enumerate(am)]
    return coeffs


@settings(max_examples=500)
@example(0, 7)
@example(195252963, 724217064)
@given(st.integers(0, 10**40), st.integers(1, 10**40))
def test_sqrt_over_a_square_is_the_correctly_rounded_quotient(k, d):
    # one integer square root: k^2 gives k/d rounded once (sqrt(k^2 / d^2) rounds twice)
    assert _sqrt_over(k * k, d) == k / d


_EXACT_PARTS = st.fractions(-(10**6), 10**6, max_denominator=12) | st.integers(-(10**30), 10**30)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_exact_char_poly_matches_fraction_reference(n, data):
    # upper entries and imaginary diagonal with small denominators, or integers past int64
    upper = {(r, c): GR(data.draw(_EXACT_PARTS), data.draw(_EXACT_PARTS))
             for r in range(n) for c in range(r + 1, n)}
    rows = [[GR(0, data.draw(_EXACT_PARTS)) if r == c else upper[r, c] if r < c
             else GR(-upper[c, r].re, upper[c, r].im) for c in range(n)] for r in range(n)]
    a = CMatrix(rows, Mode.EXACT)
    d = a.den
    # D H = -i D a: the entry x + iy of D a becomes y - ix
    m = [[(d * v.im, -d * v.re) for v in row] for row in rows]
    p = exact_char_poly(a)
    assert list(p) == _char_poly_reference(m)
    assert all(type(c) is int for c in p)


#: Rational rotation generators: (p^2 - q^2, 2pq) / (p^2 + q^2) for small p, q.
_PYTHAGOREAN = [(p, q) for p in range(1, 5) for q in range(1, 5) if p != q]
_UNIT_PHASES = [GR(1), GR(0, 1), GR(Fraction(3, 5), Fraction(4, 5)), GR(Fraction(5, 13), Fraction(-12, 13))]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.fractions(-5, 5, max_denominator=1000)), min_size=1, max_size=10
    ),
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), st.sampled_from(_PYTHAGOREAN)), max_size=3),
    st.lists(st.sampled_from(_UNIT_PHASES), min_size=16, max_size=16),
)
def test_exact_spectrum_sweep_matches_construction_and_float(atoms, rotations, phases):
    # atoms: a pair block [[0, t], [-t, 0]] (thetas +-t) or a single [i t]
    # (theta t); then conjugation by rational plane rotations and unit phases
    expected, diag = [], []
    for pair, t in atoms:
        if len(expected) + 1 + pair > 16:
            break
        diag.append((pair, t))
        expected += [t, -t] if pair else [t]
    n = len(expected)
    rows = [[GR(0)] * n for _ in range(n)]
    k = 0
    for pair, t in diag:
        if pair:
            rows[k][k + 1], rows[k + 1][k] = GR(t), GR(-t)
        else:
            rows[k][k] = GR(0, t)
        k += 1 + pair
    a = CMatrix(rows, Mode.EXACT)
    for i, j, (p, q) in rotations:
        i, j = i % n, j % n
        if i == j:
            continue
        c, s = Fraction(p * p - q * q, p * p + q * q), Fraction(2 * p * q, p * p + q * q)
        rot = [[Fraction(int(r == col)) for col in range(n)] for r in range(n)]
        rot[i][i], rot[i][j], rot[j][i], rot[j][j] = c, -s, s, c
        r = CMatrix(rot, Mode.EXACT)
        a = r.H @ a @ r
    u = CMatrix([[phases[r] if r == col else GR(0) for col in range(n)] for r in range(n)], Mode.EXACT)
    a = u.H @ a @ u
    thetas, squares = exact_skew_squares(a)
    expected.sort(reverse=True)
    assert squares == [t * t for t in expected]
    assert thetas == pytest.approx([float(t) for t in expected], abs=1e-12)
    assert thetas == pytest.approx(skew_spectrum(a.to_float()), abs=1e-9)


# ---------------------------------------------------------------------------
# exp(t a), sampled through killing_flow
# ---------------------------------------------------------------------------


def test_unitary_exp_quarter_rotation():
    a = CMatrix([[0, 1], [-1, 0]], Mode.FLOAT)
    out = exp_t(a, math.pi / 2)
    assert out.allclose(a, tol=1e-12)


def test_unitary_exp_t_zero_identity():
    rng = np.random.default_rng(23)
    a = random_skew(4, rng)
    assert exp_t(a, 0.0).allclose(identity(4), tol=1e-14)


def test_unitary_exp_period_of_two_rotation_blocks():
    a = CMatrix(
        [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
    , Mode.FLOAT)
    out = exp_t(a, 2 * math.pi)
    assert (out - identity(4)).fro() <= 1e-10


def test_unitary_exp_unitarity_defect():
    rng = np.random.default_rng(29)
    for _ in range(5):
        a = random_skew(5, rng)
        u = exp_t(a, rng.uniform(-3, 3))
        defect = (u @ u.H - identity(5)).fro()
        assert defect <= 1e-10 * 5


def test_unitary_exp_group_law():
    rng = np.random.default_rng(31)
    a = random_skew(4, rng)
    for _ in range(5):
        s = rng.uniform(-10, 10)
        t = rng.uniform(-10, 10)
        lhs = exp_t(a, s + t)
        rhs = exp_t(a, s) @ exp_t(a, t)
        assert (lhs - rhs).fro() <= 1e-9 * max(1.0, lhs.fro())


def test_unitary_exp_rejects_exact_mode():
    a = CMatrix([[0, 1], [-1, 0]], Mode.EXACT)
    with pytest.raises(ValueError, match="Float"):
        killing_flow(a)


def _taylor_exp(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring of a truncated Taylor series: a reference that
    shares no code with killing_flow's eigendecomposition."""
    k = max(0, math.ceil(math.log2(max(np.linalg.norm(m), 1.0))) + 4)
    small = m / 2**k
    out, term = np.eye(len(m), dtype=complex), np.eye(len(m), dtype=complex)
    for j in range(1, 20):
        term = term @ small / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def test_killing_flow_samples_match_unitary_exp():
    a = random_skew(5, np.random.default_rng(3))
    w, flow = killing_flow(a)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(w, sorted(skew_spectrum(a)), atol=1e-12)
    for t in (0.0, 0.7, -2.5):
        assert np.allclose(flow(t), _taylor_exp(t * a.data), rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="Float"):
        killing_flow(CMatrix([[0, 1], [-1, 0]], Mode.EXACT))


@pytest.mark.parametrize("a12", [1.0, 1e-200, 1e-320])
def test_killing_flow_of_a_rotation_is_its_closed_form(a12):
    # exp(t A) = [[cos ta, sin ta], [-sin ta, cos ta]]: at t = 0 exactly I, and sin ta to its own
    # rounding however small a12 is (below 1e-308 too), not to the rounding of the diagonal's 1
    _, flow = killing_flow(CMatrix([[0, a12], [-a12, 0]], Mode.FLOAT))
    assert np.array_equal(flow(0.0), np.eye(2)) and not np.signbit(flow(0.0).view(float)).any()
    for t in (0.5, 1.0, 1.5, 3.0, 7.0):
        c, s = math.cos(t * a12), math.sin(t * a12)
        got = flow(t)
        assert np.allclose(got, [[c, s], [-s, c]], rtol=0, atol=1e-15)
        off = np.array([got[0, 1], -got[1, 0]])
        assert np.all(np.abs(off - s) <= 1e-14 * abs(s) + 2.0**-1074)

