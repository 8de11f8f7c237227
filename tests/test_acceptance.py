"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import math

import numpy as np
import pytest

from conftest import compositions, essentially_diagonal, exp_defect, random_tangent
from flagdesic import (
    Closedness,
    FlagPartition,
    GaussianRational,
    InvariantMetric,
    Mode,
    SpectralData,
    TangentVector,
    canonicalize,
    commensurability,
    equigeodesic_certificate,
    is_equigeodesic,
    is_essentially_block_diagonal,
    is_essentially_diagonal,
    is_geodesic_vector,
    is_killing_closed,
    random_block_unitary,
    random_equigeodesic,
    skew_spectrum,
    spectral_data,
    weyl_vector,
)
from flagdesic.examples import fixture_vector
from flagdesic.flag import build_roots

GR = GaussianRational

SAMPLE_PARTITIONS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 3, 3), (1, 1, 1, 1)]


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    print(f"criterion {number:2d} PASS  {label}")


def test_criterion_01_equivalence_of_decision_routes():
    with criterion(1, "block condition == bracket certificate, 200 vectors x 5 partitions"):
        disagreements = 0
        for parts in SAMPLE_PARTITIONS:
            p = FlagPartition(parts)
            rng = np.random.default_rng(hash(parts) % 2**32)
            samples = [random_equigeodesic(p, 10_000 + k) for k in range(100)]
            samples += [random_tangent(p, rng) for _ in range(100)]
            for x in samples:
                a = is_equigeodesic(x, tol=1e-8).is_equigeodesic
                b = equigeodesic_certificate(x, tol=1e-8).is_equigeodesic
                if a != b:
                    disagreements += 1
        assert disagreements == 0


def test_criterion_02_f4_example_closed_period():
    with criterion(2, "f4-x2y3: spectrum {+-2,+-3}, commensurate, period 2*pi"):
        x = fixture_vector("f4-x2y3")
        assert np.allclose(
            skew_spectrum(x.matrix), [3.0, 2.0, -2.0, -3.0], atol=1e-10
        )
        v = is_killing_closed(x)
        assert v.status is Closedness.COMMENSURATE
        assert v.period == pytest.approx(2 * math.pi, rel=1e-12)
        assert exp_defect(x.matrix, 2 * math.pi) <= 1e-8


def test_criterion_03_column_block_example():
    with criterion(3, "fn-211: equigeodesic, not block-diagonal, canonical, spectrum {+-1,+-2}"):
        x = fixture_vector("fn-211")
        assert is_equigeodesic(x).is_equigeodesic
        assert not is_essentially_block_diagonal(x)
        form = canonicalize(x)
        assert form.residual <= 1e-9 * max(x.fro(), 1.0)
        assert np.allclose(
            skew_spectrum(x.matrix), [2.0, 1.0, 0.0, -1.0, -2.0], atol=1e-10
        )


def test_criterion_04_f9_conjugation_round_trip():
    with criterion(4, "f9-333 x 20 random block-unitary conjugates: recover sigma = 1..4"):
        x = fixture_vector("f9-333")
        for seed in range(20):
            u = random_block_unitary(x.partition, seed)
            y = x.conjugated_by(u)
            assert is_equigeodesic(y).is_equigeodesic
            assert equigeodesic_certificate(y).is_equigeodesic
            recovered = sorted(a for _, _, a in canonicalize(y).pairs)
            assert np.allclose(recovered, [1.0, 2.0, 3.0, 4.0], atol=1e-9)


def test_criterion_05_canonical_values_are_the_spectrum():
    with criterion(5, "canonical {+-a_k} zero-padded equals the spectrum, 100 vectors"):
        count = 0
        for parts in SAMPLE_PARTITIONS:
            p = FlagPartition(parts)
            for k in range(20):
                x = random_equigeodesic(p, 20_000 + k)
                values = [a for _, _, a in canonicalize(x).pairs]
                padded = values + [-a for a in values]
                padded += [0.0] * (p.total - len(padded))
                assert np.allclose(
                    sorted(padded, reverse=True), skew_spectrum(x.matrix), atol=1e-9
                )
                count += 1
        assert count == 100


def test_criterion_06_full_flag_essential_diagonality():
    with criterion(6, "full flags F(4), F(5): equigeodesic iff essentially diagonal"):
        for n in (4, 5):
            p = FlagPartition((1,) * n)
            rng = np.random.default_rng(60 + n)
            for k in range(100):
                x = random_equigeodesic(p, 30_000 + k)
                assert is_essentially_diagonal(x.matrix)
            for _ in range(100):
                x = random_tangent(p, rng)
                # dense sample: every row has n-1 >= 2 nonzero entries
                row_counts = (np.abs(x.matrix.data) > 1e-12).sum(axis=1)
                assert row_counts.max() >= 2
                assert not is_equigeodesic(x).is_equigeodesic


def test_criterion_07_root_plane_vectors_closed():
    with criterion(7, "Weyl vectors (A and S) equigeodesic and closed, all partitions n <= 6"):
        for n in range(2, 7):
            for parts in compositions(n):
                p = FlagPartition(parts)
                _, m_pos = build_roots(p)
                for root in m_pos:
                    for kind in ("A", "S"):
                        x = weyl_vector(p, root, kind)
                        assert is_equigeodesic(x).is_equigeodesic
                        v = is_killing_closed(x)
                        assert v.status is Closedness.COMMENSURATE


def test_criterion_08_normal_metric_is_geodesic_orbit():
    with criterion(8, "all-ones metric: 200 random tangent vectors are geodesic"):
        rng = np.random.default_rng(88)
        per = 200 // len(SAMPLE_PARTITIONS)
        for parts in SAMPLE_PARTITIONS:
            p = FlagPartition(parts)
            g = InvariantMetric.normal(p)
            for _ in range(per):
                ok, _ = is_geodesic_vector(random_tangent(p, rng), g, tol=1e-8)
                assert ok


def test_criterion_09_exact_float_agreement():
    with criterion(9, "Gaussian-integer equigeodesics: exact and float verdicts agree, 50 vectors"):
        values = (GR(0), GR(1), GR(-1), GR(2), GR(-2), GR(1, 1), GR(1, -1), GR(-1, 1), GR(-1, -1))
        checked = 0
        seed = 0
        while checked < 50:
            parts = SAMPLE_PARTITIONS[seed % len(SAMPLE_PARTITIONS)]
            p = FlagPartition(parts)
            xe = essentially_diagonal(p, 40_000 + seed, values)
            seed += 1
            xf = xe.to_float()
            ve = is_equigeodesic(xe).is_equigeodesic
            vf = is_equigeodesic(xf).is_equigeodesic
            ce = equigeodesic_certificate(xe).is_equigeodesic
            cf = equigeodesic_certificate(xf).is_equigeodesic
            assert ve == vf == ce == cf == True  # noqa: E712
            if xe.matrix.is_zero():
                continue
            close_exact = is_killing_closed(xe)
            close_float = is_killing_closed(xf)
            assert close_exact.closed == close_float.closed
            if close_exact.status is Closedness.COMMENSURATE:
                assert close_exact.base_frequency == pytest.approx(
                    close_float.base_frequency, rel=1e-9
                )
            checked += 1


def test_criterion_10_counting_formulas():
    with criterion(10, "module, root, and dimension counts for every partition of n <= 8"):
        for n in range(1, 9):
            for parts in compositions(n):
                p = FlagPartition(parts)
                k_pos, m_pos = build_roots(p)
                s = p.s
                from flagdesic import t_roots

                assert len(t_roots(p)) == s * (s - 1) // 2
                assert len(m_pos) == sum(
                    parts[i] * parts[j]
                    for i in range(s)
                    for j in range(i + 1, s)
                )
                assert p.dim_m() == n * n - sum(q * q for q in parts)
                assert p.dim_m() == 2 * len(m_pos)


def test_criterion_11_incommensurate_control():
    with criterion(11, "theta = {1, sqrt(2)}: incommensurate in both modes"):
        p = FlagPartition((2, 2))
        blk_exact = [[GR(1), GR(0)], [GR(0), GR(1, 1)]]
        xe = TangentVector.from_blocks(p, {(1, 2): blk_exact}, Mode.EXACT)
        ve = commensurability(spectral_data(xe))
        assert ve.status is Closedness.INCOMMENSURATE

        xf = xe.to_float()
        vf = commensurability(spectral_data(xf), bound=10**6)
        assert vf.status is Closedness.INCOMMENSURATE_WITHIN_BOUND
        assert vf.bound_used == 10**6

        # the same verdict comes from the raw spectral fixture
        sd = SpectralData((math.sqrt(2.0), 1.0), Mode.FLOAT)
        assert commensurability(sd, bound=10**6).status is (
            Closedness.INCOMMENSURATE_WITHIN_BOUND
        )
