"""Partition, root system, and tangent vector tests."""

import numpy as np
import pytest

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
    t_roots,
    weyl_vector,
)
from flagdesic.flag import off_block_positions


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


def test_from_blocks_shapes_and_completion():
    p = FlagPartition((2, 1))
    x = TangentVector.from_blocks(p, {(1, 2): [[1 + 1j], [2.0]]})
    a = x.matrix.data
    assert np.array_equal(a[2:, :2], -a[:2, 2:].conj().T)
    with pytest.raises(ValueError):
        TangentVector.from_blocks(p, {(2, 1): [[1.0, 0.0]]})
    with pytest.raises(ValueError, match="shape"):
        TangentVector.from_blocks(p, {(1, 2): [[1.0, 0.0]]})


def test_off_block_positions():
    p = FlagPartition((2, 1))
    assert off_block_positions(p) == [(0, 2), (1, 2), (2, 0), (2, 1)]
