"""Equigeodesic tests: both decision routes, structure predicates, canonical form."""

import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import essentially_diagonal, probe_grid, random_tangent
from flagdesic import (
    CMatrix,
    FlagPartition,
    GaussianRational,
    InvariantMetric,
    Mode,
    NotEquigeodesic,
    TangentVector,
    canonicalize,
    conjugation_invariants,
    equigeodesic_certificate,
    equigeodesic_verdicts,
    is_equigeodesic,
    is_essentially_block_diagonal,
    is_essentially_diagonal,
    is_geodesic_vector,
    random_block_unitary,
    random_equigeodesic,
    random_essentially_diagonal,
    random_metric,
    skew_spectrum,
    weyl_vector,
)
from flagdesic.examples import fixture_vector
from flagdesic.flag import _block_arrays, build_roots
from flagdesic.linalg import DEFAULT_EQUI_TOL, PAST_FLOAT_RANGE, SKEW_TOL_FACTOR, commutator, project_m

GR = GaussianRational


# ---------------------------------------------------------------------------
# is_geodesic_vector
# ---------------------------------------------------------------------------


def test_weyl_vectors_are_geodesic_for_any_metric():
    p = FlagPartition((2, 1, 1))
    _, m_pos = build_roots(p)
    for k, root in enumerate(m_pos):
        g = random_metric(p, 50 + k)
        for kind in ("A", "S"):
            ok, residual = is_geodesic_vector(weyl_vector(p, root, kind), g)
            assert ok and residual <= 1e-12


def test_f3_chain_geodesic_only_for_balanced_metric():
    p = FlagPartition((1, 1, 1))
    g = InvariantMetric.from_pairs(p, {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 2.0})
    for c in (1.0, 1e-200, 1e160):  # the residual is scale-free
        x = TangentVector.from_blocks(p, {(1, 2): [[c]], (2, 3): [[c]]})
        ok, _ = is_geodesic_vector(x, InvariantMetric.normal(p))
        assert ok
        ok, residual = is_geodesic_vector(x, g)
        assert not ok
        # the bracket entry lands at position (1,3): hand value sqrt(2)/(4*2)
        assert residual == pytest.approx(np.sqrt(2) / 8.0)


def test_normal_metric_geodesic_for_everything():
    rng = np.random.default_rng(21)
    for parts in [(1, 1, 1), (2, 2, 1), (3, 1)]:
        p = FlagPartition(parts)
        g = InvariantMetric.normal(p)
        for _ in range(20):
            ok, residual = is_geodesic_vector(random_tangent(p, rng), g)
            assert ok and residual <= 1e-12


def test_geodesic_rejects_probe_and_mismatch():
    p = FlagPartition((1, 1, 1))
    rng = np.random.default_rng(22)
    x = random_tangent(p, rng)
    with pytest.raises(ValueError, match="must be positive"):  # a 0/1 probe is no metric
        is_geodesic_vector(x, InvariantMetric(p, {(1, 2): 1.0, (1, 3): 0.0, (2, 3): 0.0}))
    with pytest.raises(ValueError):
        is_geodesic_vector(x, InvariantMetric.normal(FlagPartition((2, 1))))


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("mode", ["float", "exact"])
def test_invalid_tolerance_rejected(tol, mode):
    # nan made the block condition false and the certificate true on the same vector
    x = fixture_vector("f9-333", mode)
    for route in (is_equigeodesic, equigeodesic_certificate):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            route(x, tol)
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        is_geodesic_vector(x, InvariantMetric.normal(x.partition), tol)


# ---------------------------------------------------------------------------
# is_equigeodesic and the certificate
# ---------------------------------------------------------------------------


def test_f9_fixture_is_equigeodesic():
    x = fixture_vector("f9-333")
    block = is_equigeodesic(x)
    cert = equigeodesic_certificate(x)
    assert block.is_equigeodesic and block.worst_residual == 0.0
    assert cert.is_equigeodesic and cert.worst_residual <= 1e-12


def test_f3_chain_is_not_equigeodesic():
    chains = [  # a_12 a_23 != 0, also beside blocks of very different sizes
        ((1, 1, 1), {(1, 2): 1, (2, 3): 1}),
        ((1, 1, 1), {(1, 2): 1, (2, 3): Fraction(1, 10**170)}),  # squares below the float range
        ((1,) * 5, {(1, 2): Fraction(1, 10**9), (2, 3): Fraction(1, 10**9), (4, 5): 1}),
    ]
    for parts, values in chains:
        residuals = []
        for mode, entry in ((Mode.FLOAT, float), (Mode.EXACT, GR)):
            blocks = {pair: [[entry(v)]] for pair, v in values.items()}
            x = TangentVector.from_blocks(FlagPartition(parts), blocks, mode)
            v = is_equigeodesic(x)
            assert not v.is_equigeodesic
            assert v.violating_triple == (1, 2, 3)
            assert v.worst_residual > 1e-8
            c = equigeodesic_certificate(x)
            assert not c.is_equigeodesic
            assert (c.violating_triple, c.violating_probe) == (None, (1, 2))  # a_32 a_21 in rows 3
            residuals.append(c.worst_residual)
        assert residuals[0] == pytest.approx(residuals[1], rel=1e-12)


def test_two_block_partition_vacuously_equigeodesic():
    rng = np.random.default_rng(23)
    p = FlagPartition((3, 2))
    for _ in range(5):
        x = random_tangent(p, rng)
        assert is_equigeodesic(x).is_equigeodesic
        assert equigeodesic_certificate(x).is_equigeodesic


def test_zero_vector_is_equigeodesic():
    p = FlagPartition((1, 1, 1))
    for mode in Mode:
        x = TangentVector(p, CMatrix(np.zeros((3, 3), dtype=int), mode))
        assert is_equigeodesic(x).is_equigeodesic
        assert equigeodesic_certificate(x).is_equigeodesic
        # and geodesic for every metric, with nothing to normalize by
        assert is_geodesic_vector(x, random_metric(p, 1)) == (True, 0.0)


@pytest.mark.parametrize("mode", [Mode.FLOAT, Mode.EXACT])
def test_a_tolerance_whose_square_passes_the_float_range(mode):
    # tol * tol is inf in Float, so the chain passes as at tol = 1; Exact tests at tol 0
    x = TangentVector.from_blocks(FlagPartition((1, 1, 1)), {(1, 2): [[GR(1)]], (2, 3): [[GR(1)]]}, mode)
    for route in (is_equigeodesic, equigeodesic_certificate):
        for tol in (1e200, 1e308):
            v = route(x, tol)
            assert v.is_equigeodesic is (mode is Mode.FLOAT)
            assert v.worst_residual == route(x, 1.0).worst_residual


def test_equivalence_of_routes_small_sample():
    rng = np.random.default_rng(24)
    for parts in [(1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        p = FlagPartition(parts)
        for k in range(25):
            x = random_equigeodesic(p, 10_000 + k) if k % 2 else random_tangent(p, rng)
            assert (
                is_equigeodesic(x).is_equigeodesic
                == equigeodesic_certificate(x).is_equigeodesic
            )


def test_exact_mode_verdicts():
    p = FlagPartition((1, 1, 1))
    x = TangentVector.from_blocks(
        p, {(1, 2): [[GR(1, 1)]], (2, 3): [[GR(2)]]}, Mode.EXACT
    )
    assert not is_equigeodesic(x).is_equigeodesic
    assert not equigeodesic_certificate(x).is_equigeodesic
    y = TangentVector.from_blocks(p, {(1, 2): [[GR(1, 1)]]}, Mode.EXACT)
    v = is_equigeodesic(y)
    assert v.is_equigeodesic and v.worst_residual == 0.0
    assert equigeodesic_certificate(y).is_equigeodesic


def test_exact_equigeodesic_by_orthogonality():
    # products vanish through orthogonal columns, not through sparsity:
    # a12 = (1,1)*, a13 = (1,-1)*, a23 = 0 on partition (2,1,1)
    p = FlagPartition((2, 1, 1))
    x = TangentVector.from_blocks(
        p,
        {(1, 2): [[GR(1)], [GR(1)]], (1, 3): [[GR(1)], [GR(-1)]]},
        Mode.EXACT,
    )
    assert not is_essentially_diagonal(x.matrix)
    assert is_equigeodesic(x).is_equigeodesic
    assert equigeodesic_certificate(x).is_equigeodesic
    form = canonicalize(x.to_float())
    values = sorted(a for _, _, a in form.pairs)
    assert values == pytest.approx([np.sqrt(2), np.sqrt(2)])


@pytest.mark.parametrize("digits", [30, 70])
def test_exact_routes_with_huge_denominators(digits):
    # entries (q+1)/q over coprime q of about `digits` digits: D has about
    # 3 * digits, so the squared norms of block products leave the float range
    dens = [10**digits, 3 ** math.ceil(digits / math.log10(3)), 7 ** math.ceil(digits / math.log10(7))]
    near_one = [[[GR(Fraction(q + 1, q))]] for q in dens]
    x = TangentVector.from_blocks(
        FlagPartition((1, 1, 1)), dict(zip([(1, 2), (2, 3), (1, 3)], near_one)), Mode.EXACT
    )
    for route, witness in ((is_equigeodesic, ((1, 2, 3), None)),
                           (equigeodesic_certificate, (None, (1, 2)))):
        v, vf = route(x), route(x.to_float())
        assert not v.is_equigeodesic
        assert v[3:] == vf[3:] == witness
        assert v.worst_residual == pytest.approx(vf.worst_residual, rel=1e-12)
    c = equigeodesic_certificate(x)
    assert (c.worst_residual, c.violating_probe) == product_form_certificate(x)
    assert not is_essentially_block_diagonal(x)
    y = TangentVector.from_blocks(
        FlagPartition((1, 1, 1, 1)), dict(zip([(1, 2), (3, 4)], near_one)), Mode.EXACT
    )
    for route in (is_equigeodesic, equigeodesic_certificate):
        v = route(y)
        assert v.is_equigeodesic and v.worst_residual == 0.0
    assert is_essentially_block_diagonal(y)


def test_verdict_scale_invariance():
    p = FlagPartition((1, 1, 1))
    x = TangentVector.from_blocks(p, {(1, 2): [[1e-6]], (2, 3): [[1e-6]]})
    assert not is_equigeodesic(x).is_equigeodesic
    y = TangentVector.from_blocks(p, {(1, 2): [[1e6]]})
    assert is_equigeodesic(y).is_equigeodesic


def block(x, i, j):
    """Block a_ij of a tangent vector, in its mode."""
    p = x.partition
    return CMatrix(x.matrix.entries()[slice(*p.block_range(i)), slice(*p.block_range(j))], x.mode)


def reference_block_condition(x, tol=1e-8):
    """Direct per-triple loop over a_ij a_jm: (verdict, worst residual, violating triple)."""
    exact = x.mode is Mode.EXACT
    worst = 0.0
    first_bad = None
    for i, j, m in permutations(range(1, x.partition.s + 1), 3):  # lexicographic
        aij = block(x, i, j)
        ajm = block(x, j, m)
        prod = aij @ ajm
        if exact:
            if prod.is_zero():
                continue
            res = prod.to_float().fro() / (aij.to_float().fro() * ajm.to_float().fro())
        else:
            if aij.fro() == 0.0 or ajm.fro() == 0.0:
                continue
            res = prod.fro() / (aij.fro() * ajm.fro())
        worst = max(worst, res)
        if first_bad is None and (exact or res > tol):
            first_bad = (i, j, m)
    ok = first_bad is None if exact else worst <= tol
    return ok, worst, None if ok else first_bad


def reference_violating_triples(x):
    """Every ordered triple (i, j, m) of distinct blocks whose product a_ij a_jm is not exactly
    zero, of an Exact vector, from the same per-triple loop."""
    return [(i, j, m) for i, j, m in permutations(range(1, x.partition.s + 1), 3)
            if not (block(x, i, j) @ block(x, j, m)).is_zero()]


@st.composite
def sparse_block_vectors(draw, mode):
    """Small Gaussian-integer entries times 2**k, k in [-500, 0] per block, on a random
    subset of the upper blocks (s <= 8).

    Such entries keep float products exact, so products that cancel through
    orthogonality are exactly zero in both modes, and blocks of very different
    sizes meet, whose products' squares lie below the float range.
    """
    parts = draw(st.lists(st.integers(1, 2 if mode is Mode.EXACT else 3), min_size=1, max_size=8))
    p = FlagPartition(tuple(parts))
    density = draw(st.sampled_from([0.15, 0.3, 0.6]))
    blocks = {}
    for i, j in p.positive_pairs():
        if draw(st.floats(0.0, 1.0)) >= density:
            continue
        size = parts[i - 1] * parts[j - 1]
        re = draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
        im = draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
        scale = Fraction(2) ** draw(st.integers(-500, 0))
        entries = [GR(r * scale, c * scale) if mode is Mode.EXACT else complex(r * scale, c * scale)
                   for r, c in zip(re, im)]
        blocks[(i, j)] = [entries[k : k + parts[j - 1]] for k in range(0, size, parts[j - 1])]
    return TangentVector.from_blocks(p, blocks, mode)


def _assert_matches_reference(x):
    ok, worst, triple = reference_block_condition(x)
    v = is_equigeodesic(x)
    assert v.is_equigeodesic == ok
    assert v.worst_residual == pytest.approx(worst, rel=1e-9, abs=0.0)
    assert v.violating_triple == triple
    c = equigeodesic_certificate(x)
    assert c.is_equigeodesic == ok and c.violating_triple is None
    # the entries are dyadic, so the other mode holds the same matrix, and its brackets are exact
    assert c.violating_probe == reference_certificate_residual(x.to_float())[1]
    if x.mode is Mode.EXACT:
        # probe {j, m} holds the products a_kj a_jm and a_km a_mj of the rows k outside j and m
        probes = [(min(j, m), max(j, m)) for _, j, m in reference_violating_triples(x)]
        assert c.violating_probe == min(probes, default=None)
        other = x.to_float()
    else:
        rows = [[GR(Fraction(z.real), Fraction(z.imag)) for z in row] for row in x.matrix.data]
        other = TangentVector(x.partition, CMatrix(rows, Mode.EXACT))
    assert equigeodesic_certificate(other).worst_residual == pytest.approx(c.worst_residual, rel=1e-12)
    worst, probe = product_form_certificate(x)
    assert c.violating_probe == probe
    if x.mode is Mode.EXACT:
        assert c.worst_residual == worst
    else:
        assert c.worst_residual == pytest.approx(worst, rel=1e-12, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(sparse_block_vectors(Mode.FLOAT))
def test_block_condition_matches_reference_float(x):
    _assert_matches_reference(x)


@settings(max_examples=40, deadline=None)
@given(sparse_block_vectors(Mode.EXACT))
def test_block_condition_matches_reference_exact(x):
    _assert_matches_reference(x)


@settings(max_examples=40, deadline=None)
@given(sparse_block_vectors(Mode.EXACT).filter(
    lambda x: not x.matrix.is_zero() and is_equigeodesic(x).is_equigeodesic))
def test_exact_canonicalize_is_that_of_its_float_copy(x):
    # the exact vector only decides the block condition; the form is its float copy's, bit for bit
    form, copy = canonicalize(x), canonicalize(x.to_float())
    assert form.pairs == copy.pairs and form.residual == copy.residual
    assert form.U.data.tobytes() == copy.U.data.tobytes()
    assert form.J.data.tobytes() == copy.J.data.tobytes()


def reference_certificate_residual(x, tol=1e-8):
    """(max over the probes of ||[mu.X, Y]_m|| / (||mu.X|| ||Y||), the first probe (i, j) in
    (i, j) order whose ratio exceeds tol, or None), Y = L_ij mu.X, from CMatrix operations on
    the whole Float matrix: mu_ij = 2^-e_ij, e_ij = math.frexp(the largest |re| or |im| of
    block (i, j))[1], as the certificate balances a Float vector."""
    p, a = x.partition, x.matrix.data
    mu = np.zeros(a.shape)
    for i in range(1, p.s + 1):
        for j in range(1, p.s + 1):
            at = np.s_[slice(*p.block_range(i)), slice(*p.block_range(j))]
            top = max(np.abs(a[at].real).max(), np.abs(a[at].imag).max())
            mu[at] = math.ldexp(1.0, -math.frexp(top)[1]) if top else 0.0
    mx = CMatrix(a * mu, Mode.FLOAT)
    worst, first_bad = 0.0, None
    for i, j in p.positive_pairs():
        y = CMatrix(mx.data * probe_grid(p, i, j), Mode.FLOAT)
        if not y.is_zero():
            res = project_m(commutator(mx, y), p).fro() / (mx.fro() * y.fro())
            worst = max(worst, res)
            if first_bad is None and res > tol:
                first_bad = (i, j)
    return worst, first_bad


def written_out_product(a, rows, mid, cols):
    """a[rows, mid] @ a[mid, cols] of a complex array, or of an Exact pair [x, y] the pair
    [x u - y v, x v + y u] of (x + i y)(u + i v), its four integer products written out here."""
    if a.dtype != object:
        return a[rows, mid] @ a[mid, cols]
    (x, y), (u, v) = a[:, rows, mid], a[:, mid, cols]
    return np.stack((x @ u - y @ v, x @ v + y @ u))


def product_form_certificate(x, tol=DEFAULT_EQUI_TOL):
    """(worst residual, first violating probe or None) of the certificate with every product
    formed here, on the certificate's mu.X (``_block_arrays(x, tol, balance=True)``): per probe
    (i, j) with a_ij != 0, twice the squared norm of a[K, J] @ a[J, I] and a[K, I] @ a[I, J] over
    the rows K outside I u J, against ||mu.X||^2 (||a_ij||^2 + ||a_ji||^2). Exact ints stay ints."""
    p, (a, norms, tol2) = x.partition, _block_arrays(x, tol, balance=True)
    total, worst, first_bad = norms.sum(), 0.0, None
    for i, j in p.positive_pairs():
        if not norms[i - 1, j - 1]:
            continue
        (i0, i1), (j0, j1) = p.block_range(i), p.block_range(j)
        bi, bj, k = slice(i0, i1), slice(j0, j1), np.r_[:i0, i1:j0, j1:p.total]
        q = np.concatenate([written_out_product(a, k, bj, bi), written_out_product(a, k, bi, bj)], axis=-1)
        num = 2 * ((q * q).sum() if x.mode is Mode.EXACT else np.vdot(q, q).real)
        den = total * (norms[i - 1, j - 1] + norms[j - 1, i - 1])
        worst = max(worst, math.sqrt(num / den))
        if first_bad is None and num > tol2 * den:
            first_bad = (i, j)
    return worst, first_bad


def rational_rotation(p, seed):
    """Block-diagonal rational orthogonal U (Exact): a Pythagorean rotation on each 2 x 2 block,
    and 1 on each 1 x 1 block."""
    triples = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25)]
    u = [[GR(0)] * p.total for _ in range(p.total)]
    for b in range(1, p.s + 1):
        lo, hi = p.block_range(b)
        if hi - lo == 1:
            u[lo][lo] = GR(1)
            continue
        c, s, r = triples[(seed + b) % len(triples)]
        u[lo][lo], u[lo][lo + 1] = GR(Fraction(c, r)), GR(Fraction(-s, r))
        u[lo + 1][lo], u[lo + 1][lo + 1] = GR(Fraction(s, r)), GR(Fraction(c, r))
    return CMatrix(u, Mode.EXACT)


@pytest.mark.parametrize("parts", [(2, 2, 2), (2, 1, 2, 2), (1, 2, 2, 1, 2), (2, 2, 2, 2, 2)])
def test_exact_certificate_equals_its_product_form_on_rotated_chains(parts):
    # chains a_i,i+1 a_i+1,i+2 through every block, beside sparse other blocks, then rotated by a
    # rational U: dense blocks over several denominators; the residual is the same int / int
    p = FlagPartition(parts)
    rng = np.random.default_rng(37)
    for seed in range(4):
        blocks = {(i, j): [[GR(*rng.integers(-2, 3, 2).tolist()) for _ in range(parts[j - 1])]
                           for _ in range(parts[i - 1])]
                  for i, j in p.positive_pairs() if j == i + 1 or rng.random() < 0.3}
        x = TangentVector.from_blocks(p, blocks, Mode.EXACT)
        u = rational_rotation(p, seed)
        for y in (x, TangentVector(p, u.H @ x.matrix @ u)):
            c = equigeodesic_certificate(y)
            assert c.is_equigeodesic == (not reference_violating_triples(y))
            assert (c.worst_residual, c.violating_probe) == product_form_certificate(y)


def test_both_routes_on_a_dense_full_flag_stay_small_in_memory():
    # the walk forms one middle block's table at a time: here up to 127 x 127
    # each, where one stacked s^3 float table would take 16.8 MB
    n = 128
    i, j = np.triu_indices(n, 1)
    a = np.zeros((n, n), dtype=complex)
    a[i, j] = (i + j + 2) % 3 - 1 + 1j * ((i + 1) * (j + 1) % 2)  # from {-1, 0, 1} + {0, 1}i
    x = TangentVector(FlagPartition((1,) * n), CMatrix(a - a.conj().T, Mode.FLOAT))
    tracemalloc.start()
    try:
        v, c = is_equigeodesic(x), equigeodesic_certificate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (v.violating_triple, c.violating_probe) == ((1, 2, 3), (1, 2))
    assert peak < 8 * 10**6, peak


@settings(max_examples=60, deadline=None)
@given(sparse_block_vectors(Mode.FLOAT))
def test_certificate_residual_matches_reference(x):
    # dyadic entries: the brackets are exact in both, and only the last roundings differ
    c, (worst, probe) = equigeodesic_certificate(x), reference_certificate_residual(x)
    assert c.worst_residual == pytest.approx(worst, rel=1e-9, abs=0.0)
    assert c.violating_probe == probe


@st.composite
def generic_block_vectors(draw):
    """Float vectors with generic entries, whose products round, unlike ``sparse_block_vectors``':
    on full, near-full (1|2)^s and mixed partitions, s in 3..8, each drawn upper block holds
    entries whose real and imaginary parts are uniform in [1, 2) with random signs, times 10^k,
    one k in [-150, 150] per block."""
    top = draw(st.sampled_from([1, 2, 3]))  # full, near-full, mixed
    p = FlagPartition(tuple(draw(st.lists(st.integers(1, top), min_size=3, max_size=8))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    blocks = {}
    for i, j in p.positive_pairs():
        if rng.random() < density:
            shape = (2, p.parts[i - 1], p.parts[j - 1])
            z = rng.uniform(1, 2, shape) * rng.choice([-1, 1], shape)
            blocks[(i, j)] = (z[0] + 1j * z[1]) * 10.0 ** int(rng.integers(-150, 151))
    return TangentVector.from_blocks(p, blocks)


@settings(max_examples=150, deadline=None)
@given(generic_block_vectors())
def test_generic_floats_pass_at_tol_one_and_match_the_references(x):
    # ||a_ij a_jm|| <= ||a_ij|| ||a_jm||, and the walk's tables keep to it: no residual passes 1
    assert all(v.is_equigeodesic for v in equigeodesic_verdicts(x, 1.0))
    ok, worst, triple = reference_block_condition(x)
    v, c = equigeodesic_verdicts(x)
    assert (v.is_equigeodesic, v.violating_triple) == (ok, triple)
    assert v.worst_residual == pytest.approx(worst, rel=1e-9, abs=0.0)
    worst, probe = product_form_certificate(x)
    assert (c.is_equigeodesic, c.violating_probe) == (probe is None, probe)
    assert c.worst_residual == pytest.approx(worst, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("parts", [(1, 1, 1), (2, 1, 2), (3, 2, 2, 1), (2, 2, 2, 2)])
def test_certificate_residual_matches_reference_off_exact_skew(parts):
    # conjugated vectors are stored as their m-parts, whose entries differ from the products'
    # in the last bits
    p = FlagPartition(parts)
    rng = np.random.default_rng(31)
    for seed in range(6):
        u = random_block_unitary(p, seed)
        for x in (random_equigeodesic(p, seed), random_tangent(p, rng).conjugated_by(u)):
            assert equigeodesic_certificate(x).worst_residual == pytest.approx(
                reference_certificate_residual(x)[0], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("parts", [(1, 1, 1), (2, 1, 2), (3, 2, 2, 1), (2, 2, 2, 2)])
def test_equigeodesic_vectors_have_no_violating_probe(parts):
    for seed in range(6):
        x = random_equigeodesic(FlagPartition(parts), seed)
        assert equigeodesic_certificate(x).violating_probe is None
        assert reference_certificate_residual(x)[1] is None


@st.composite
def vectors_with_diagonal_noise(draw):
    """(X + N, the m-part of X + N): X a Float vector of m from ``from_blocks`` or
    ``random_equigeodesic``, N skew-Hermitian noise on the diagonal blocks, of norm up to
    what the ``TangentVector`` constructor accepts (SKEW_TOL_FACTOR * ||X + N||)."""
    p = FlagPartition(tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=5))))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        x = random_equigeodesic(p, seed)
    else:
        keep = draw(st.sampled_from([0.3, 0.6, 1.0]))
        x = TangentVector.from_blocks(p, {
            (i, j): rng.normal(size=(p.parts[i - 1], p.parts[j - 1])) * (1 + 1j)
            for i, j in p.positive_pairs() if rng.random() < keep})
    noise = np.zeros((p.total, p.total), dtype=complex)
    for i in range(1, p.s + 1):
        at = np.s_[slice(*p.block_range(i)), slice(*p.block_range(i))]
        z = rng.normal(size=noise[at].shape) + 1j * rng.normal(size=noise[at].shape)
        noise[at] = (z - z.conj().T) / 2
    noise *= draw(st.floats(0.01, 0.99)) * SKEW_TOL_FACTOR * x.fro() / np.linalg.norm(noise)
    noisy = TangentVector(p, x.matrix + CMatrix(noise, Mode.FLOAT))
    return noisy, TangentVector(p, project_m(noisy.matrix, p))


@settings(max_examples=80, deadline=None)
@given(vectors_with_diagonal_noise())
def test_routes_read_only_the_off_diagonal_blocks(pair):
    # diagonal noise the constructor accepts changes neither route's verdict nor its residual
    noisy, m_part = pair
    verdicts = []
    for route in (is_equigeodesic, equigeodesic_certificate):
        v, w = route(noisy), route(m_part)
        assert v._replace(worst_residual=0.0) == w._replace(worst_residual=0.0)
        assert v.worst_residual == pytest.approx(w.worst_residual, rel=1e-12, abs=0.0)
        verdicts.append(v.is_equigeodesic)
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("pair, at", [
    (pair, at) for pair in [(0, 1), (0, 2), (1, 2)] for at in permutations(range(3), 2)
    if set(at) != set(pair)])
def test_a_block_without_its_mirror_still_counts(pair, at):
    # given skew only to tolerance: a block pair at +-1 and one other block at 1e-12, its mirror 0
    a = np.zeros((3, 3), dtype=complex)
    a[pair], a[pair[::-1]], a[at] = 1, -1, 1e-12
    x = TangentVector(FlagPartition((1, 1, 1)), CMatrix(a, Mode.FLOAT))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0 / 0 in either route
        v, c = is_equigeodesic(x), equigeodesic_certificate(x)
    ok, worst, triple = reference_block_condition(x)
    assert (v.is_equigeodesic, v.worst_residual, v.violating_triple) == (ok, worst, triple)
    assert not ok and not c.is_equigeodesic and c.violating_triple is None
    # the vector holds the m-part, a_at and its mirror at +-5e-13, so the certificate's
    # brackets are the whole-matrix reference's
    worst, probe = reference_certificate_residual(x)
    assert c.violating_probe == probe
    assert c.worst_residual == pytest.approx(worst, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("mode", [Mode.FLOAT, Mode.EXACT])
def test_first_violating_triple_is_lexicographic(mode):
    # chains 1-4-5 and 2-3-6: (1, 4, 5) comes first although its middle block is later; the
    # certificate's first probe is (1, 4), which holds a_54 a_41 in row 5
    p = FlagPartition((1,) * 6)
    one = [[GR(1)]] if mode is Mode.EXACT else [[1.0]]
    x = TangentVector.from_blocks(p, {(1, 4): one, (4, 5): one, (2, 3): one, (3, 6): one}, mode)
    assert reference_block_condition(x)[2] == (1, 4, 5)
    assert is_equigeodesic(x).violating_triple == (1, 4, 5)
    assert equigeodesic_certificate(x)[3:] == (None, (1, 4))


def test_the_first_violating_probe_is_not_the_worst():
    # a chain 1-2-3 into the triangle 3-4-5: every probe with a_ij != 0 violates; the first,
    # (1, 2), is not the worst, which is (3, 5): only a tolerance just below the worst residual
    # skips every probe before it
    p = FlagPartition((1,) * 5)
    entries = {(1, 2): "1", (2, 3): "2/3-1/3i", (3, 4): "3/5+4/5i", (3, 5): "-1/2i", (4, 5): "5/7"}
    x = TangentVector.from_blocks(p, {k: [[GR.parse(v)]] for k, v in entries.items()}, Mode.EXACT)
    c = equigeodesic_certificate(x)
    assert c.violating_probe == (1, 2)
    assert (c.worst_residual, c.violating_probe) == product_form_certificate(x)
    xf = x.to_float()
    for tol, probe in [(DEFAULT_EQUI_TOL, (1, 2)), (0.5, (2, 3)), (c.worst_residual * 0.999, (3, 5))]:
        v, (worst, first) = equigeodesic_certificate(xf, tol), product_form_certificate(xf, tol)
        assert v.violating_probe == first == probe
        assert v.worst_residual == pytest.approx(worst, rel=1e-12, abs=0.0)
        assert v.worst_residual == pytest.approx(c.worst_residual, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# structure predicates
# ---------------------------------------------------------------------------


def test_essentially_diagonal_basic():
    assert is_essentially_diagonal(CMatrix(np.diag([1.0, 2.0, 0.0]), Mode.FLOAT))
    assert is_essentially_diagonal(CMatrix([[0, 2.5], [-2.5, 0]], Mode.FLOAT))
    assert not is_essentially_diagonal(CMatrix(np.ones((2, 2)), Mode.FLOAT))
    assert is_essentially_diagonal(CMatrix(np.zeros((3, 3)), Mode.FLOAT))


def test_essentially_diagonal_exact():
    m = CMatrix([[0, 1], [1, 0]], Mode.EXACT)
    assert is_essentially_diagonal(m)
    assert not is_essentially_diagonal(CMatrix([[1, 1], [0, 1]], Mode.EXACT))


def test_essentially_block_diagonal():
    p = FlagPartition((3, 1, 1))
    single = TangentVector.from_blocks(p, {(1, 2): [[1.0], [2.0], [0.0]]})
    assert is_essentially_block_diagonal(single)
    two_in_row = fixture_vector("fn-211")
    assert not is_essentially_block_diagonal(two_in_row)


def test_block_diagonal_implies_equigeodesic():
    rng = np.random.default_rng(25)
    p = FlagPartition((2, 2, 1))
    for pair in p.positive_pairs():
        ri = p.parts[pair[0] - 1]
        cj = p.parts[pair[1] - 1]
        blk = rng.normal(size=(ri, cj)) + 1j * rng.normal(size=(ri, cj))
        x = TangentVector.from_blocks(p, {pair: blk})
        assert is_essentially_block_diagonal(x)
        assert is_equigeodesic(x).is_equigeodesic
        assert equigeodesic_certificate(x).is_equigeodesic


def test_full_flag_equigeodesic_iff_essentially_diagonal():
    p = FlagPartition((1, 1, 1, 1))
    for k in range(30):
        x = random_equigeodesic(p, 300 + k)
        assert is_essentially_diagonal(x.matrix)
    rng = np.random.default_rng(26)
    for _ in range(30):
        x = random_tangent(p, rng)
        assert is_essentially_diagonal(x.matrix) == is_equigeodesic(x).is_equigeodesic


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_canonicalize_orthogonal_columns_example():
    # two orthogonal column blocks, zero (2,3) block: already essentially diagonal
    x = fixture_vector("fn-211")
    form = canonicalize(x)
    values = sorted(a for _, _, a in form.pairs)
    assert values == pytest.approx([1.0, 2.0])
    assert is_essentially_diagonal(form.J)
    assert form.residual <= 1e-9 * x.fro()


def test_canonicalize_already_diagonal_input():
    p = FlagPartition((2, 2))
    for c in (1.0, 1e-200, 1e160):  # a block whose squares underflow is still nonzero
        x = TangentVector.from_blocks(p, {(1, 2): [[3.0 * c, 0.0], [0.0, c]]})
        form = canonicalize(x)
        assert form.J.allclose(x.matrix, tol=1e-12)
        assert np.allclose(np.abs(form.U.data), np.eye(4), atol=1e-12)
        assert form.pairs == ((1, 3, 3.0 * c), (2, 4, c))


def test_canonicalize_recovers_sigmas_after_conjugation():
    x = fixture_vector("f9-333")
    for seed in range(5):
        u = random_block_unitary(x.partition, seed)
        y = x.conjugated_by(u)
        form = canonicalize(y)
        recovered = sorted(a for _, _, a in form.pairs)
        assert recovered == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-9)
        residual_check = (form.U.H @ y.matrix @ form.U - form.J).fro()
        assert residual_check <= 1e-9 * y.fro()
        # pairs sorted by descending value
        assert [a for _, _, a in form.pairs] == sorted(
            (a for _, _, a in form.pairs), reverse=True
        )
        # mirrored entries and positivity
        for r, c, a in form.pairs:
            assert r < c and a > 0
            assert form.J.data[r - 1, c - 1] == pytest.approx(a)
            assert form.J.data[c - 1, r - 1] == pytest.approx(-a)


def test_canonicalize_rejects_non_equigeodesic():
    p = FlagPartition((1, 1, 1))
    x = TangentVector.from_blocks(p, {(1, 2): [[1.0]], (2, 3): [[1.0]]})
    with pytest.raises(NotEquigeodesic) as err:
        canonicalize(x)
    assert err.value.violating_triple == (1, 2, 3)


@pytest.mark.parametrize("parts", [(3, 2, 1), (2, 2, 1)])
def test_canonicalize_decides_the_block_condition_of_an_exact_vector_exactly(parts):
    # a_12 = diag(1, 3/10^9) beside a_13 = e_2: a_21 a_13 = (0, -3/10^9)^T is not zero, although
    # the float copy passes the block condition at its tolerance
    pad = parts[0] - 2
    a12 = [[GR(1), GR(0)], [GR(0), GR(Fraction(3, 10**9))]] + [[GR(0), GR(0)]] * pad
    a13 = [[GR(0)], [GR(1)]] + [[GR(0)]] * pad
    x = TangentVector.from_blocks(FlagPartition(parts), {(1, 2): a12, (1, 3): a13}, Mode.EXACT)
    assert is_equigeodesic(x.to_float()).is_equigeodesic
    with pytest.raises(NotEquigeodesic) as err:
        canonicalize(x)
    assert err.value.violating_triple == (2, 1, 3)


def test_canonical_values_match_spectrum():
    for seed in range(10):
        p = FlagPartition((2, 2, 1))
        x = random_equigeodesic(p, 700 + seed)
        form = canonicalize(x)
        values = [a for _, _, a in form.pairs]
        padded = sorted(values + [0.0] * (p.total - 2 * len(values)) + [-a for a in values], reverse=True)
        spectrum = skew_spectrum(x.matrix)
        assert np.allclose(padded, spectrum, atol=1e-9)


def test_a_spectrum_past_the_float_range_raises():
    # theta = 2e+308, sqrt(4) * 1e+308: each part and a_k of the scaled copy is a float, a_k is not
    x = TangentVector.from_blocks(FlagPartition((1, 4)), {(1, 2): [[1e308] * 4]})
    for kernel in (canonicalize, lambda x: skew_spectrum(x.matrix)):
        with pytest.raises(ValueError, match=f"^{re.escape(PAST_FLOAT_RANGE)}$"):
            kernel(x)


def test_canonicalize_repeated_singular_values():
    # degenerate sigmas within one block
    p = FlagPartition((2, 2, 2))
    x = TangentVector.from_blocks(p, {(1, 2): [[2.0, 0.0], [0.0, 2.0]]})
    form = canonicalize(x)
    assert sorted(a for _, _, a in form.pairs) == pytest.approx([2.0, 2.0])
    spectrum = skew_spectrum(x.matrix)
    assert spectrum == pytest.approx([2.0, 2.0, 0.0, 0.0, -2.0, -2.0])


def test_canonicalize_lists_tied_pairs_by_place():
    # a * R with R orthogonal and a, R integer: both singular values are exactly c = |(a, b)|,
    # but the SVD returns them apart in the last bits; pairs that print equal go by place
    p = FlagPartition((2, 2))
    later_larger = 0
    for a, b in [(3, 4), (5, 12), (8, 15), (7, 24), (20, 21), (9, 40), (28, 45), (11, 60)]:
        for block in ([[a, -b], [b, a]], [[a, b], [b, -a]], [[b, a], [a, -b]]):
            form = canonicalize(TangentVector.from_blocks(p, {(1, 2): block}))
            assert [(r, c) for r, c, _ in form.pairs] == [(1, 3), (2, 4)]
            values = [v for *_, v in form.pairs]
            assert values == pytest.approx([math.hypot(a, b)] * 2, rel=1e-14)
            later_larger += values[1] > values[0]
    assert later_larger  # some tie came out larger at (2, 4): an unrounded key lists it first


def test_canonicalize_saturated_rank_budget():
    # block 2 of partition (2,2,2) receives rank 1 from each side, filling n_2
    p = FlagPartition((2, 2, 2))
    x = TangentVector.from_blocks(
        p,
        {
            (1, 2): [[1.5, 0.0], [0.0, 0.0]],
            (2, 3): [[0.0, 0.0], [0.0, 2.5]],
        },
    )
    assert is_equigeodesic(x).is_equigeodesic
    form = canonicalize(x)
    assert sorted(a for _, _, a in form.pairs) == pytest.approx([1.5, 2.5])
    u = random_block_unitary(p, 9)
    form2 = canonicalize(x.conjugated_by(u))
    assert sorted(a for _, _, a in form2.pairs) == pytest.approx([1.5, 2.5])


def test_canonicalize_mixed_partition_samples():
    for seed in range(8):
        p = FlagPartition((3, 2, 1))
        x = random_equigeodesic(p, 1_300 + seed)
        form = canonicalize(x)
        assert form.residual <= 1e-9 * max(x.fro(), 1.0)
        values = [a for _, _, a in form.pairs]
        padded = sorted(values + [-a for a in values] + [0.0] * (6 - 2 * len(values)), reverse=True)
        assert np.allclose(padded, skew_spectrum(x.matrix), atol=1e-9)


def test_canonicalize_zero_vector():
    p = FlagPartition((2, 1))
    x = TangentVector(p, CMatrix(np.zeros((3, 3)), Mode.FLOAT))
    form = canonicalize(x)
    assert form.pairs == ()
    assert form.J.is_zero()
    assert np.allclose(form.U.data, np.eye(3))


# ---------------------------------------------------------------------------
# conjugation invariants
# ---------------------------------------------------------------------------


def test_invariants_of_column_example():
    x = fixture_vector("fn-211")
    inv = conjugation_invariants(x)
    assert inv.ranks == {(1, 2): 1, (1, 3): 1, (2, 3): 0}
    assert inv.singular_values[(1, 2)] == pytest.approx((1.0,))
    assert inv.singular_values[(1, 3)] == pytest.approx((2.0,))
    assert inv.singular_values[(2, 3)] == ()


def test_invariants_stable_under_conjugation():
    p = FlagPartition((2, 2, 1))
    x = random_equigeodesic(p, 31)
    base = conjugation_invariants(x)
    for seed in range(5):
        y = x.conjugated_by(random_block_unitary(p, 400 + seed))
        other = conjugation_invariants(y)
        assert other.ranks == base.ranks
        for pair in base.singular_values:
            assert np.allclose(
                other.singular_values[pair], base.singular_values[pair], atol=1e-9
            )


@pytest.mark.parametrize("parts", [(2, 2, 1), (3, 2, 1), (3, 3, 3), (1, 1, 1, 1), (4, 1, 2, 2)])
def test_canonical_pairs_are_the_kept_singular_values(parts):
    # canonicalize and conjugation_invariants read the one rank cut: per block pair, the
    # pair values are the kept singular values and their count the rank
    p = FlagPartition(parts)
    for seed in range(4):
        x = random_equigeodesic(p, 1_500 + seed)
        for y in (x, x.conjugated_by(random_block_unitary(p, 1_600 + seed))):
            inv = conjugation_invariants(y)
            grouped = {pair: [] for pair in p.positive_pairs()}
            for row, col, a in canonicalize(y).pairs:
                grouped[(p.block_of(row), p.block_of(col))].append(a)
            for pair, values in grouped.items():
                assert len(values) == inv.ranks[pair]
                assert sorted(values) == pytest.approx(sorted(inv.singular_values[pair]), rel=1e-9)


def test_rank_inequality_for_equigeodesic_inputs():
    for seed in range(10):
        p = FlagPartition((2, 2, 1))
        x = random_equigeodesic(p, 500 + seed)
        inv = conjugation_invariants(x)
        for i in range(1, p.s + 1):
            total = sum(
                inv.ranks[(min(i, j), max(i, j))]
                for j in range(1, p.s + 1)
                if j != i
            )
            assert total <= p.parts[i - 1]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_random_equigeodesic_properties():
    for parts in [(1, 1, 1), (2, 1, 1), (3, 3, 3)]:
        p = FlagPartition(parts)
        for seed in range(10):
            x = random_equigeodesic(p, seed)
            assert is_equigeodesic(x).is_equigeodesic
            assert equigeodesic_certificate(x).is_equigeodesic


def test_random_equigeodesic_deterministic():
    p = FlagPartition((2, 2, 1))
    x = random_equigeodesic(p, 77)
    y = random_equigeodesic(p, 77)
    assert np.array_equal(x.matrix.data, y.matrix.data)
    z = random_equigeodesic(p, 78)
    assert not np.array_equal(x.matrix.data, z.matrix.data)


def test_random_equigeodesic_full_flag_round_trip():
    p = FlagPartition((1, 1, 1, 1, 1))
    for seed in range(5):
        x = random_equigeodesic(p, 900 + seed)
        base = random_essentially_diagonal(p, np.random.default_rng(900 + seed))
        form = canonicalize(x)
        expected = sorted(abs(t) for t in skew_spectrum(base.matrix) if t > 1e-12)
        got = sorted(a for _, _, a in form.pairs)
        assert np.allclose(got, expected, atol=1e-9)


def test_verdict_invariant_under_block_conjugation():
    p = FlagPartition((2, 2, 1))
    x = random_equigeodesic(p, 61)
    rng = np.random.default_rng(62)
    bad = random_tangent(p, rng)
    for seed in range(50):
        u = random_block_unitary(p, 800 + seed)
        assert is_equigeodesic(x.conjugated_by(u)).is_equigeodesic
        assert not is_equigeodesic(bad.conjugated_by(u)).is_equigeodesic


def test_equigeodesics_pass_random_metrics():
    p = FlagPartition((2, 1, 1))
    x = random_equigeodesic(p, 41)
    for seed in range(100):
        ok, residual = is_geodesic_vector(x, random_metric(p, seed))
        assert ok and residual <= 1e-8


def test_exact_essential_diagonal_sampler():
    values = (GR(1), GR(-1), GR(2), GR(1, 1), GR(0))
    p = FlagPartition((2, 2, 1))
    x = essentially_diagonal(p, 5, values)
    assert x.mode is Mode.EXACT
    assert is_equigeodesic(x).is_equigeodesic
    assert is_essentially_diagonal(x.matrix)
