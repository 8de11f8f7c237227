"""Partition, root system, and tangent vector tests."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagdesic.flag as flag
from conftest import compositions
from flagdesic import (
    CMatrix,
    FlagPartition,
    GaussianRational,
    Mode,
    Root,
    TangentVector,
    basis_unit,
    build_roots,
    project_m,
    random_block_unitary,
    t_roots,
    weyl_vector,
)
from flagdesic.documents import parse_vector_document
from flagdesic.equigeo import canonicalize
from flagdesic.examples import fixture_document, fixture_names, fixture_vector, random_metric
from flagdesic.flag import off_block_mask, off_block_positions
from flagdesic.gaussian import exact_char_poly
from flagdesic.linalg import (SKEW_TOL_FACTOR, _build, _unit_scale, killing_flow, require_skew_hermitian,
                              skew_spectrum)
from flagdesic.metric import hadamard_action


def test_partition_basics():
    p = FlagPartition((2, 3, 1))
    assert p.total == 6
    assert p.s == 3
    assert p.offsets == (0, 2, 5, 6)
    assert p.block_of(1) == 1
    assert p.block_of(2) == 1
    assert p.block_of(3) == 2
    assert p.block_of(6) == 3
    assert p.block_range(2) == (2, 5)
    assert p.dim_m() == 36 - (4 + 9 + 1)


def test_partition_validation():
    with pytest.raises(ValueError):
        FlagPartition(())
    with pytest.raises(ValueError):
        FlagPartition((2, 0))
    with pytest.raises(ValueError):
        FlagPartition((2, -1))


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", True, False, None])
def test_partition_rejects_non_integer_parts(bad):
    with pytest.raises(ValueError, match="must be integers"):
        FlagPartition((bad, 1))


def test_partition_accepts_numpy_integers():
    p = FlagPartition(tuple(np.array([2, 1, 3])))
    assert p.parts == (2, 1, 3)
    assert all(type(k) is int for k in p.parts)


def test_build_roots_full_flag_f3():
    p = FlagPartition((1, 1, 1))
    k_pos, m_pos = build_roots(p)
    assert k_pos == []
    coords = {(r.i, r.j) for r in m_pos}
    assert coords == {(1, 2), (1, 3), (2, 3)}
    assert all(r.kind == "M" and r.positive for r in m_pos)


def test_build_roots_counts():
    p = FlagPartition((2, 1))
    k_pos, m_pos = build_roots(p)
    assert len(k_pos) == 1
    assert len(m_pos) == 2
    k_pos, m_pos = build_roots(FlagPartition((3, 3, 3)))
    assert len(m_pos) == 27
    assert len(k_pos) == 3 * 3


def test_root_count_exhaustive():
    # |R| = n(n-1) split between K and M, for every ordered partition
    for n in range(1, 13):
        for parts in compositions(n):
            p = FlagPartition(parts)
            k_pos, m_pos = build_roots(p)
            assert 2 * (len(k_pos) + len(m_pos)) == n * (n - 1)
            assert len(m_pos) == sum(
                p.parts[i] * p.parts[j]
                for i in range(p.s)
                for j in range(i + 1, p.s)
            )


def test_t_roots():
    full = FlagPartition((1,) * 5)
    troots = t_roots(full)
    assert len(troots) == 10
    _, m_pos = build_roots(full)
    assert {(t.i, t.j) for t in troots} == {(r.i, r.j) for r in m_pos}

    assert len(t_roots(FlagPartition((4, 2)))) == 1
    assert {(t.i, t.j) for t in t_roots(FlagPartition((3, 3, 3)))} == {
        (1, 2),
        (1, 3),
        (2, 3),
    }


def test_t_root_fibers():
    p = FlagPartition((2, 2, 1))
    _, m_pos = build_roots(p)
    for t in t_roots(p):
        fiber = [r for r in m_pos if (r.i, r.j) == (t.i, t.j)]
        assert len(fiber) == p.parts[t.i - 1] * p.parts[t.j - 1]
    assert sum(
        p.parts[t.i - 1] * p.parts[t.j - 1] for t in t_roots(p)
    ) == len(m_pos)


def test_dim_m_matches_root_count():
    for n in range(2, 9):
        for parts in compositions(n):
            p = FlagPartition(parts)
            _, m_pos = build_roots(p)
            assert p.dim_m() == 2 * len(m_pos)
    # full flag has real dimension n(n-1)
    assert FlagPartition((1,) * 6).dim_m() == 30


def test_basis_unit_positions():
    p3 = FlagPartition((1, 1, 1))
    r = Root(p3, 1, 2, 1, 1)
    e = basis_unit(p3, r)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1
    assert e.allclose(CMatrix(expected, Mode.FLOAT))

    p21 = FlagPartition((2, 1))
    r = Root(p21, 1, 2, 2, 1)
    assert r.global_row == 2 and r.global_col == 3
    assert basis_unit(p21, r).data[1, 2] == 1.0

    p333 = FlagPartition((3, 3, 3))
    r = Root(p333, 2, 3, 3, 3)
    assert r.global_row == 6 and r.global_col == 9
    assert basis_unit(p333, r).data[5, 8] == 1.0


def test_basis_unit_rejects_k_root():
    p = FlagPartition((2, 1))
    k_root = Root(p, 1, 1, 1, 2)
    assert k_root.kind == "K"
    with pytest.raises(ValueError):
        basis_unit(p, k_root)


def test_weyl_vectors_f3():
    p = FlagPartition((1, 1, 1))
    r = Root(p, 1, 2, 1, 1)
    a = weyl_vector(p, r, "A")
    s = weyl_vector(p, r, "S")
    assert a.matrix.allclose(
        CMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], Mode.FLOAT)
    )
    assert s.matrix.allclose(
        CMatrix([[0, 1j, 0], [1j, 0, 0], [0, 0, 0]], Mode.FLOAT)
    )


def test_weyl_vector_rejects_bad_roots():
    p = FlagPartition((2, 1))
    with pytest.raises(ValueError):
        weyl_vector(p, Root(p, 1, 1, 1, 2), "A")
    with pytest.raises(ValueError):
        weyl_vector(p, Root(p, 2, 1, 1, 1), "A")  # negative root
    with pytest.raises(ValueError):
        weyl_vector(p, Root(p, 1, 2, 1, 1), "X")


def test_weyl_vectors_are_valid_and_fixed_by_projection():
    for parts in [(1, 1, 1), (2, 2, 1), (3, 1)]:
        p = FlagPartition(parts)
        _, m_pos = build_roots(p)
        for r in m_pos:
            for kind in ("A", "S"):
                x = weyl_vector(p, r, kind)
                assert project_m(x.matrix, p).allclose(x.matrix)


def test_weyl_vector_exact_mode():
    # root vectors are Float; the exact S vector of a root is the upper block [["i"]]
    p = FlagPartition((1, 1))
    s = weyl_vector(p, Root(p, 1, 2, 1, 1), "S")
    assert s.mode is Mode.FLOAT
    exact = TangentVector.from_blocks(p, {(1, 2): [[GaussianRational(0, 1)]]}, Mode.EXACT)
    assert np.array_equal(exact.to_float().matrix.data, s.matrix.data)


def test_tangent_vector_validation():
    p = FlagPartition((2, 1))
    good = np.zeros((3, 3), dtype=complex)
    good[0, 2], good[2, 0] = 1.0, -1.0
    TangentVector(p, CMatrix(good, Mode.FLOAT))

    not_skew = good.copy()
    not_skew[2, 0] = 1.0
    with pytest.raises(ValueError):
        TangentVector(p, CMatrix(not_skew, Mode.FLOAT))

    diag_block = good.copy()
    diag_block[0, 1], diag_block[1, 0] = 1.0, -1.0
    with pytest.raises(ValueError, match="diagonal block"):
        TangentVector(p, CMatrix(diag_block, Mode.FLOAT))
    # at any scale: the norms behind both tolerances neither overflow nor underflow
    with pytest.raises(ValueError, match="skew"):
        TangentVector(FlagPartition((1, 1)), CMatrix([[1e160, 0], [0, 0]], Mode.FLOAT))
    with pytest.raises(ValueError, match="diagonal block"):
        TangentVector(p, CMatrix(1e-200 * diag_block, Mode.FLOAT))

    with pytest.raises(ValueError, match="shape"):
        TangentVector(p, CMatrix(np.zeros((4, 4)), Mode.FLOAT))


def test_tangent_vector_names_the_nonzero_diagonal_block():
    p = FlagPartition((1, 2, 2))
    exact = np.zeros((5, 5), dtype=object)
    exact[2, 4], exact[4, 2] = GaussianRational(1, 1), GaussianRational(-1, 1)
    TangentVector(p, CMatrix(exact, Mode.EXACT))
    exact[1, 2], exact[2, 1] = GaussianRational(1), GaussianRational(-1)
    with pytest.raises(ValueError, match=r"^diagonal block 2 is not zero \(not in m\)$"):
        TangentVector(p, CMatrix(exact, Mode.EXACT))

    fl = np.zeros((5, 5), dtype=complex)
    fl[0, 1], fl[1, 0] = 3.0, -3.0
    fl[3, 4], fl[4, 3] = 4.0, -4.0  # diagonal block 3, norm sqrt(32)
    msg = r"^diagonal block 3 is not zero \(norm 5\.657e\+00 > 7\.071e-09\)$"
    with pytest.raises(ValueError, match=msg):
        TangentVector(p, CMatrix(fl, Mode.FLOAT))


#: Entries of a vector already in m: the ends of the float range and a signed zero among them
EDGE_PARTS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e308, -1e308, 1e-320, -1e-320])


@st.composite
def accepted_float_inputs(draw):
    """(partition, a Float matrix A the constructor accepts, a point of m near A or None,
    whether A is already in m): a vector of m with edge entries, or a conjugated vector, a
    vector of m plus diagonal-block noise up to SKEW_TOL_FACTOR * ||A||, or a block pair at
    +-1 beside one block whose mirror is 0 (and a mirrored subnormal pair), as drawn or
    scaled so that its largest part lies in [2^1023, 2^1024) or [2^-1001, 2^-1000)."""
    p = FlagPartition(tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=4))))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["in m", "conjugated", "diagonal noise", "one-sided"]))
    if kind == "in m":
        blocks = {(i, j): draw(st.lists(st.lists(st.builds(complex, EDGE_PARTS, EDGE_PARTS),
                                                 min_size=p.parts[j - 1], max_size=p.parts[j - 1]),
                                        min_size=p.parts[i - 1], max_size=p.parts[i - 1]))
                  for i, j in p.positive_pairs()}
        x = TangentVector.from_blocks(p, blocks)
        return p, x.matrix, x.matrix, True
    e = draw(st.sampled_from([None, 1024, -1000]))

    def scaled(arr, like):  # exactly, by the power of two that takes like's largest part there
        return arr if e is None else arr * _unit_scale(like) * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)

    base = TangentVector.from_blocks(p, {
        (i, j): rng.normal(size=(p.parts[i - 1], p.parts[j - 1]))
        + 1j * rng.normal(size=(p.parts[i - 1], p.parts[j - 1])) for i, j in p.positive_pairs()})
    if kind == "conjugated":
        u = random_block_unitary(p, seed)
        a = (u.H @ base.matrix @ u).data
        return p, CMatrix(scaled(a, a), Mode.FLOAT), None, False
    a, off = base.matrix.data.copy(), off_block_mask(p)
    if kind == "diagonal noise":
        z = np.where(off, 0, rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))
        z = (z - z.conj().T) / 2
        a += z * (draw(st.floats(0.01, 0.99)) * SKEW_TOL_FACTOR * base.fro() / np.linalg.norm(z))
        near = CMatrix(scaled(base.matrix.data, a), Mode.FLOAT)
        return p, CMatrix(scaled(a, a), Mode.FLOAT), near, False
    a[:], at = 0, np.argwhere(off).tolist()
    r, c = draw(st.sampled_from(at))
    a[r, c], a[c, r] = 1, -1
    r, c = draw(st.sampled_from([rc for rc in at if set(rc) != {r, c}]))
    a[r, c] = 1e-12
    a = scaled(a, a)
    r, c = draw(st.sampled_from([(r, c) for r, c in at if not (a[r, c] or a[c, r])]))
    a[r, c], a[c, r] = 1.5e-323, -1.5e-323  # 3 * 2^-1074, which halving would round
    return p, CMatrix(a, Mode.FLOAT), None, False


@settings(max_examples=150, deadline=None)
@given(accepted_float_inputs())
def test_a_float_vector_holds_its_nearest_point_of_m(case):
    p, m, near, in_m = case
    x = TangentVector(p, m)
    a, d = m.data, x.matrix.data
    assert np.isfinite(d).all()  # the halves are added, not the entries
    assert np.array_equal(d, -d.conj().T)  # skew-Hermitian exactly
    assert not d[~off_block_mask(p)].any()  # diagonal blocks exactly 0
    assert (x.matrix is m) == np.array_equal(d, a)  # a new matrix only where A leaves m
    if in_m:
        assert x.matrix is m
    # an entry that already mirrors stays bit for bit
    keep = off_block_mask(p) & (a == -a.conj().T)
    assert d[keep].view(np.uint64).tolist() == a[keep].view(np.uint64).tolist()
    if near is not None:  # the nearest point of m is no farther from A than another one
        s = _unit_scale(a)  # exact, so no square overflows
        assert np.linalg.norm((d - a) * s) <= np.linalg.norm((near.data - a) * s) * (1 + 1e-12)


def record_seams(patch, norms=True):
    """Patch the two seams of the tolerance route to record what reaches them, in order: the
    vector's matrix at each ``flag._block_arrays`` call and, with ``norms``, each matrix whose
    ``CMatrix.fro`` is taken. A point of m reaches neither."""
    calls, block_arrays, fro = [], flag._block_arrays, CMatrix.fro

    def blocks(x, *args, **kwargs):
        calls.append(x.matrix)
        return block_arrays(x, *args, **kwargs)

    def norm(a):
        calls.append(a)
        return fro(a)

    patch.setattr(flag, "_block_arrays", blocks)
    if norms:
        patch.setattr(CMatrix, "fro", norm)
    return calls


@pytest.fixture
def tolerance_route(monkeypatch):
    """The matrices whose block layout ``TangentVector`` reads: the ones off m."""
    return record_seams(monkeypatch, norms=False)


def test_a_vector_the_library_builds_in_m_takes_no_tolerance_route():
    for name in fixture_names():
        for mode in ("float", "exact"):
            doc = fixture_document(name, mode)
            x = parse_vector_document(doc)
            j = canonicalize(x).J  # canonicalize takes norms itself
            with pytest.MonkeyPatch.context() as patch:
                calls = record_seams(patch)
                parse_vector_document(doc)
                y = x.to_float()
                hadamard_action(random_metric(x.partition, 0), y.scaled(2.0))
                TangentVector(x.partition, j)
            assert calls == []


def test_the_kernels_take_no_norm_of_a_vectors_matrix():
    for name in fixture_names():
        for mode in ("float", "exact"):
            a = fixture_vector(name, mode).matrix
            with pytest.MonkeyPatch.context() as patch:
                calls = record_seams(patch)
                assert require_skew_hermitian(a) is True
                if mode == "float":
                    skew_spectrum(a)
                    killing_flow(a)
                else:
                    exact_char_poly(a)
            assert calls == []


@pytest.mark.parametrize("entries", [
    {(0, 1): 1e-12, (1, 0): -1e-12},  # a mirrored pair in diagonal block 1
    {(1, 1): 1e-12j},  # a diagonal entry, skew-Hermitian on its own
    {(2, 0): -1 + 2j + 1e-12},  # a_31 no longer mirrors a_13 = 1 + 2i
])
def test_a_matrix_off_m_is_tested_and_stored_as_its_nearest_point(tolerance_route, entries):
    p = FlagPartition((2, 1))
    a = np.zeros((3, 3), dtype=complex)
    a[0, 2], a[2, 0], a[1, 2], a[2, 1] = 1 + 2j, -1 + 2j, 0.5, -0.5
    for at, value in entries.items():
        a[at] = value
    m = CMatrix(a, Mode.FLOAT)
    x = TangentVector(p, m)
    assert tolerance_route == [m]
    h = -a.conj().T
    nearest = np.where(off_block_mask(p), np.where(a == h, a, a / 2 + h / 2), 0)
    assert x.matrix is not m
    assert x.matrix.data.view(np.uint64).tolist() == nearest.view(np.uint64).tolist()


#: Parts of an Exact entry of m: 0, small integers, and rationals past both ends of the float range
EXACT_PARTS = st.sampled_from([0, 1, -3, Fraction(2, 7), Fraction(1, 10**320), -(10**309)])


@st.composite
def points_of_m(draw):
    """(partition, a matrix in m), Float or Exact, from upper blocks of edge entries."""
    p = FlagPartition(tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))))
    mode = draw(st.sampled_from([Mode.FLOAT, Mode.EXACT]))
    entry = (st.builds(complex, EDGE_PARTS, EDGE_PARTS) if mode is Mode.FLOAT
             else st.builds(GaussianRational, EXACT_PARTS, EXACT_PARTS))
    blocks = {(i, j): draw(st.lists(st.lists(entry, min_size=p.parts[j - 1], max_size=p.parts[j - 1]),
                                    min_size=p.parts[i - 1], max_size=p.parts[i - 1]))
              for i, j in p.positive_pairs()}
    return p, TangentVector.from_blocks(p, blocks, mode).matrix


@settings(max_examples=100, deadline=None)
@given(points_of_m())
def test_a_point_of_m_is_stored_as_given_without_a_norm(case):
    p, a = case
    with pytest.MonkeyPatch.context() as patch:
        calls = record_seams(patch)
        assert require_skew_hermitian(a) is True
        assert TangentVector(p, a).matrix is a
    assert calls == []


def test_from_blocks_shapes_and_completion():
    p = FlagPartition((2, 1))
    x = TangentVector.from_blocks(p, {(1, 2): [[1 + 1j], [2.0]]})
    a = x.matrix.data
    assert np.array_equal(a[2:, :2], -a[:2, 2:].conj().T)
    with pytest.raises(ValueError):
        TangentVector.from_blocks(p, {(2, 1): [[1.0, 0.0]]})
    with pytest.raises(ValueError, match="shape"):
        TangentVector.from_blocks(p, {(1, 2): [[1.0, 0.0]]})


small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
#: Float entries with signed zeros among them, which every placement must keep bit for bit
float_parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def blocks_of_every_kind(draw):
    """(mode, partition, blocks, the blocks' entries): each block a list, a CMatrix of
    the vector's mode, an Exact CMatrix in Float mode, or a list of GaussianRational."""
    mode = draw(st.sampled_from([Mode.FLOAT, Mode.EXACT]))
    p = FlagPartition(tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))))
    kinds = ["list", "own", "gaussian"] + (["exact"] if mode is Mode.FLOAT else [])
    blocks, entries = {}, {}
    for i, j in p.positive_pairs():
        kind = draw(st.sampled_from(kinds + ["absent"]))
        if kind == "absent":
            continue
        shape = (p.parts[i - 1], p.parts[j - 1])
        if mode is Mode.FLOAT and kind in ("list", "own"):
            entry = st.builds(complex, float_parts, float_parts)
        elif kind == "list":
            entry = st.one_of(st.integers(-9, 9), small_fractions)
        else:
            entry = st.builds(GaussianRational, small_fractions, small_fractions)
        rows = draw(st.lists(st.lists(entry, min_size=shape[1], max_size=shape[1]),
                             min_size=shape[0], max_size=shape[0]))
        entries[(i, j)] = rows
        if kind in ("own", "exact"):
            rows = CMatrix(np.array(rows, dtype=object), Mode.EXACT if kind == "exact" else mode)
        blocks[(i, j)] = rows
    return mode, p, blocks, entries


@given(blocks_of_every_kind())
def test_from_blocks_places_every_block_as_its_entries(case):
    # reference: the upper matrix U written entry by entry, then U - U^*
    mode, p, blocks, entries = case
    upper = np.zeros((p.total, p.total), dtype=np.complex128 if mode is Mode.FLOAT else object)
    for (i, j), rows in entries.items():
        r0, c0 = p.offsets[i - 1], p.offsets[j - 1]
        for a, row in enumerate(rows):
            for b, v in enumerate(row):
                upper[r0 + a, c0 + b] = complex(v) if mode is Mode.FLOAT else v
    u = CMatrix(upper, mode)
    want, got = u - u.H, TangentVector.from_blocks(p, blocks, mode).matrix
    assert (got.mode, got.den, got.data.shape) == (mode, want.den, want.data.shape)
    if mode is Mode.FLOAT:
        assert got.data.tobytes() == want.data.tobytes()
    else:
        assert (got.data == want.data).all()


@pytest.mark.parametrize("mode", [Mode.FLOAT, Mode.EXACT])
@pytest.mark.parametrize("blocks, message", [
    ({(1, 2): [1, 2, 3]}, "block (1,2) has shape (3,), expected (3, 1)"),
    ({(1, 2): [[1, 2, 3]]}, "block (1,2) has shape (1, 3), expected (3, 1)"),
    ({(1, 3): [[1]]}, "block key (1,3) out of range 1..2"),
    ({(2, 1): [[1, 2, 3]]}, "from_blocks accepts upper block keys only, got (2,1)"),
])
def test_from_blocks_error_texts(mode, blocks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TangentVector.from_blocks(FlagPartition((3, 1)), blocks, mode)


def test_from_blocks_rejects_a_float_block_in_exact_mode():
    block = CMatrix([[0.5], [0.0]], Mode.FLOAT)
    with pytest.raises(ValueError, match="mode mixing is rejected"):
        TangentVector.from_blocks(FlagPartition((2, 1)), {(1, 2): block}, Mode.EXACT)


def test_off_block_positions():
    p = FlagPartition((2, 1))
    assert off_block_positions(p) == [(0, 2), (1, 2), (2, 0), (2, 1)]


def _listed_upper_blocks(p, a, nonzero):
    """The nonzero upper blocks by one ``block_sums`` count table, read in ``positive_pairs``
    order: the reference for ``flag._upper_blocks``."""
    counts, listed = flag.block_sums(p.offsets[:-1], nonzero), []
    for i, j in p.positive_pairs():
        if counts[i - 1, j - 1]:
            (r0, r1), (c0, c1) = p.block_range(i), p.block_range(j)
            listed.append(((i, j), a[..., r0:r1, c0:c1]))
    return listed


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.integers(1, 4), min_size=1, max_size=6), mode=st.sampled_from(Mode),
       density=st.sampled_from([0.0, 0.15, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_the_block_layout_is_read_from_flag_alone(parts, mode, density, seed):
    # sparse upper supports, and in Float mode one block whose only entry is 1e-200: its square
    # underflows to 0, so only a count of entries finds it
    p, rng = FlagPartition(tuple(parts)), np.random.default_rng(seed)
    n, off = p.total, off_block_mask(p)
    keep = np.triu(off) & (rng.random((n, n)) < density)
    if mode is Mode.FLOAT:
        upper = np.where(keep, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0)
        if p.s > 1:
            i, j = p.positive_pairs()[rng.integers(p.s * (p.s - 1) // 2)]
            (r0, r1), (c0, c1) = p.block_range(i), p.block_range(j)
            upper[r0:r1, c0:c1] = 0
            upper[rng.integers(r0, r1), rng.integers(c0, c1)] = 1e-200
    else:
        upper = np.zeros((n, n), dtype=object)
        for r, c in np.argwhere(keep).tolist():
            upper[r, c] = GaussianRational(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
                                           Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))))
    u = CMatrix(upper, mode)
    x = TangentVector(p, u - u.H)
    scaled = x.to_float().matrix.data * _unit_scale(x.to_float().matrix.data)
    for a, nonzero in [(x.matrix.entries(), x.matrix.nonzero()), (x.matrix.data, x.matrix.nonzero()),
                       (scaled, scaled != 0)]:
        got, want = list(flag._upper_blocks(p, a, nonzero)), _listed_upper_blocks(p, a, nonzero)
        assert [pair for pair, _ in got] == [pair for pair, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert g.dtype == w.dtype and (g.tobytes() == w.tobytes() if a.dtype != object
                                           else (g == w).all())
    # project_m against the block grid, on a matrix with full diagonal blocks: each Exact part,
    # x and y, is masked as a Float data is
    m = u + CMatrix(np.identity(n, int).tolist(), mode)
    grid = p.block_index[:, None] != p.block_index[None, :]
    parts = [np.where(grid, v, 0) for v in (m.data if mode is Mode.EXACT else [m.data])]
    want = _build(np.stack(parts) if mode is Mode.EXACT else parts[0], mode, m.den)
    got = project_m(m, p)
    assert got.den == want.den and (got.data == want.data).all()
