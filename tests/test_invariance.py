"""Hypothesis properties: what the map X -> c U^* X U (c > 0, U block-unitary) preserves.

Both equigeodesic routes decide a property of the K-orbit of the ray through X,
the canonical pair values are the singular values of the blocks (so they scale
by c), and closedness depends only on the ratios of the eigenvalues.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import essentially_diagonal, random_tangent
from flagdesic import (
    Closedness,
    FlagPartition,
    Mode,
    canonicalize,
    equigeodesic_certificate,
    is_equigeodesic,
    is_killing_closed,
    random_block_unitary,
    random_equigeodesic,
)

#: s <= 5 blocks and n <= 9.
partitions = (
    st.lists(st.integers(1, 4), min_size=2, max_size=5)
    .filter(lambda parts: sum(parts) <= 9)
    .map(lambda parts: FlagPartition(tuple(parts)))
)
seeds = st.integers(0, 2**32 - 1)
scales = st.floats(1e-3, 1e3)
#: Log-uniform over 300 decades: squared norms and block products of the moved vector
#: leave the float range there unless the kernels rescale first.
wide_scales = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)


def _transform(x, c, seed):
    """c U^* X U for a Haar-random block-diagonal unitary U."""
    return x.scaled(c).conjugated_by(random_block_unitary(x.partition, seed))


@settings(max_examples=60, deadline=None)
@given(partitions, seeds, wide_scales, seeds, st.booleans())
def test_route_verdicts_invariant(p, seed, c, u_seed, equi):
    x = random_equigeodesic(p, seed) if equi else random_tangent(p, np.random.default_rng(seed))
    y = _transform(x, c, u_seed)
    for route in (is_equigeodesic, equigeodesic_certificate):
        # with two blocks every product a_ij a_jm has i = m, so every vector is equigeodesic
        assert route(x).is_equigeodesic is (equi or p.s == 2)
        assert route(y).is_equigeodesic is route(x).is_equigeodesic


@settings(max_examples=40, deadline=None)
@given(partitions, seeds, wide_scales, seeds)
def test_canonical_values_scale_by_c(p, seed, c, u_seed):
    x = random_equigeodesic(p, seed)
    values = sorted(a for _, _, a in canonicalize(x).pairs)
    moved = sorted(a for _, _, a in canonicalize(_transform(x, c, u_seed)).pairs)
    assert moved == pytest.approx([c * a for a in values], rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(partitions, seeds, wide_scales, seeds)
def test_closedness_invariant_for_integer_values(p, seed, c, u_seed):
    # integer a_k, rotated into general position by a block unitary
    base = essentially_diagonal(p, seed, [1, 2, 3, 4, 5], Mode.FLOAT)
    x = base.conjugated_by(random_block_unitary(p, seed))
    before, after = is_killing_closed(x), is_killing_closed(_transform(x, c, u_seed))
    assert before.status is Closedness.COMMENSURATE
    assert after.status is before.status
    assert after.multipliers == before.multipliers
