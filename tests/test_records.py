"""Record semantics of the eleven value types: construction, equality and hashing,
immutability, and validation messages."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from flagdesic import (
    CanonicalForm,
    Closedness,
    ClosednessVerdict,
    CMatrix,
    ConjugationInvariants,
    EquigeodesicVerdict,
    FlagPartition,
    InvariantMetric,
    Mode,
    NotSkewHermitian,
    Root,
    SpectralData,
    TangentVector,
    TRoot,
    commensurability,
    is_killing_closed,
    skew_spectrum,
    spectral_data,
)
from flagdesic.examples import fixture_vector
from flagdesic.gaussian import GaussianRational

P = FlagPartition((1, 2))
M = CMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], Mode.FLOAT)

#: type -> (required fields, {defaulted field: (default, another value)}, one field changed)
RECORDS = {
    FlagPartition: ({"parts": (1, 2)}, {}, {"parts": (2, 1)}),
    Root: ({"partition": P, "i": 1, "j": 2, "a": 1, "b": 2}, {}, {"b": 1}),
    TRoot: ({"i": 1, "j": 2}, {}, {"j": 3}),
    CMatrix: ({"data": M.data, "mode": Mode.FLOAT}, {}, {"mode": Mode.EXACT}),
    TangentVector: ({"partition": P, "matrix": M}, {}, {"matrix": M.scale(2.0)}),
    InvariantMetric: ({"partition": P, "lam": {(1, 2): 2.0}}, {}, {"lam": {(1, 2): 3.0}}),
    EquigeodesicVerdict: (
        {"is_equigeodesic": True, "method": "block-condition", "worst_residual": 0.0},
        {"violating_triple": (None, (1, 2, 3)), "violating_probe": (None, (1, 2))},
        {"worst_residual": 1.0},
    ),
    CanonicalForm: (
        {"U": M, "J": M, "pairs": ((1, 2, 1.0),), "residual": 0.0}, {}, {"residual": 1e-12}
    ),
    ConjugationInvariants: (
        {"ranks": {(1, 2): 1}, "singular_values": {(1, 2): (1.0,)}}, {}, {"ranks": {(1, 2): 0}}
    ),
    SpectralData: (
        {"thetas": (1.0, 0.0, -1.0)},
        {"exact_squares": (None, (Fraction(1), Fraction(0), Fraction(1)))},
        {"thetas": (2.0, 0.0, -2.0)},
    ),
    ClosednessVerdict: (
        {"status": Closedness.COMMENSURATE},
        {
            "base_frequency": (None, 1.0),
            "period": (None, 6.283185307179586),
            "multipliers": (None, (1, 0, -1)),
            "bound_used": (None, 10),
            "reason": (None, "exp-confirmation"),
            "defect": (None, 1e-15),
            "thetas": (None, (1.0, 0.0, -1.0)),
        },
        {"status": Closedness.UNDETERMINED},
    ),
}
FIELD_WISE = [
    FlagPartition, Root, TRoot,
    EquigeodesicVerdict, CanonicalForm, ConjugationInvariants, SpectralData, ClosednessVerdict,
]
BY_IDENTITY = [CMatrix, TangentVector, InvariantMetric]
assert set(FIELD_WISE + BY_IDENTITY) == set(RECORDS)


def _same(value, expected) -> bool:
    if isinstance(expected, np.ndarray):
        return np.array_equal(value, expected)
    return value == expected


def _build(cls, **changes):
    required = RECORDS[cls][0]
    return cls(**{**required, **changes})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction(cls):
    required, defaults, _ = RECORDS[cls]
    given = {name: other for name, (_, other) in defaults.items()}
    built = {
        "positional": cls(*required.values()),
        "keyword": cls(**required),
        "positional, defaults given": cls(*required.values(), *given.values()),
        "keyword, defaults given": cls(**required, **given),
    }
    for how, record in built.items():
        expected = {**required, **{n: d for n, (d, _) in defaults.items()}}
        if how.endswith("given"):
            expected.update(given)
        for name, value in expected.items():
            assert _same(getattr(record, name), value), (how, name)


@pytest.mark.parametrize("cls", FIELD_WISE, ids=lambda c: c.__name__)
def test_field_wise_equality_and_hash(cls):
    a, b = _build(cls), _build(cls)
    assert a is not b and a == b and not a != b
    assert a != _build(cls, **RECORDS[cls][2])
    if cls is ConjugationInvariants:  # its fields are dicts, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("cls", BY_IDENTITY, ids=lambda c: c.__name__)
def test_identity_equality_and_hash(cls):
    a, b = _build(cls), _build(cls)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a) and len({a, b}) == 2


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_assignment_raises(cls):
    required, defaults, changed = RECORDS[cls]
    record = _build(cls)
    for name in [*required, *defaults]:
        with pytest.raises(AttributeError):
            setattr(record, name, next(iter(changed.values())))
    with pytest.raises(AttributeError):
        record.new_field = 1
    for name, value in required.items():
        assert _same(getattr(record, name), value)  # nothing was overwritten


def test_partition_coerces_parts_and_derives_offsets():
    p = FlagPartition(parts=[np.int64(2), 3, 1])
    assert p.parts == (2, 3, 1) and type(p.parts[0]) is int
    assert p.offsets == (0, 2, 5, 6) and p == FlagPartition((2, 3, 1))


def test_metric_caches_its_tables():
    g = _build(InvariantMetric)
    assert g.multiplier_table is g.multiplier_table
    assert g.multiplier_table.tolist() == [[0, 2], [2, 0]]


def _exact(rows):
    return CMatrix(rows, Mode.EXACT)


NOT_SKEW = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
NOT_IN_M = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
NOT_FINITE = [[0, math.inf, 0], [-math.inf, 0, 0], [0, 0, 0]]  # mirrored, as are the next two
INF_I, NAN = complex(0, math.inf), complex(math.nan, 0)
I3, I2 = GaussianRational(0, Fraction(1, 3)), GaussianRational(0, Fraction(-1, 2))


@pytest.mark.parametrize("build, error, message", [
    (lambda: FlagPartition((1, True)), ValueError,
     "partition parts must be integers, got (1, True)"),
    (lambda: FlagPartition((1.0,)), ValueError, "partition parts must be integers, got (1.0,)"),
    (lambda: FlagPartition(()), ValueError, "partition needs at least one part"),
    (lambda: FlagPartition((1, 0)), ValueError, "partition parts must be positive, got (1, 0)"),
    (lambda: Root(P, 1, 3, 1, 1), ValueError, "block pair (1,3) out of range 1..2"),
    (lambda: Root(P, 1, 2, 2, 1), ValueError, "inner pair (2,1) out of range for blocks"),
    (lambda: Root(FlagPartition((2,)), 1, 1, 1, 1), ValueError,
     "a root needs two distinct basis functionals"),
    (lambda: TRoot(2, 2), ValueError, "T-roots connect two distinct blocks"),
    (lambda: CMatrix([1, 2], Mode.FLOAT), ValueError,
     "matrix must be 2-dimensional, got shape (2,)"),
    (lambda: _exact([[Fraction(1), 0.5]]), ValueError,
     "Exact matrices hold int, Fraction or GaussianRational entries only; "
     "got float 0.5 (mode mixing is rejected)"),
    (lambda: TangentVector(P, CMatrix(np.zeros((2, 2)), Mode.FLOAT)), ValueError,
     "matrix shape (2, 2) does not match partition total 3"),
    (lambda: TangentVector(P, CMatrix(NOT_SKEW, Mode.FLOAT)), NotSkewHermitian,
     "matrix is not skew-Hermitian (defect 2.828e+00, tolerance 1.414e-09)"),
    (lambda: TangentVector(P, _exact(NOT_SKEW)), NotSkewHermitian,
     "matrix is not skew-Hermitian (defect 2.828e+00, exact test)"),
    (lambda: TangentVector(P, _exact([[0, I3, 0], [I2, 0, 0], [0, 0, 0]])), NotSkewHermitian,
     "matrix is not skew-Hermitian (defect 1.179e+00, exact test)"),
    (lambda: TangentVector(P, CMatrix(NOT_IN_M, Mode.FLOAT)), ValueError,
     "diagonal block 2 is not zero (norm 1.414e+00 > 2.000e-09)"),
    (lambda: TangentVector(P, _exact(NOT_IN_M)), ValueError,
     "diagonal block 2 is not zero (not in m)"),
    (lambda: InvariantMetric(P, {}), ValueError,
     "multiplier table must cover exactly the pairs [(1, 2)], got []"),
    (lambda: InvariantMetric(P, {(1, 2): 0.0}), ValueError,
     "metric multiplier (1, 2) must be positive, got 0.0"),
    (lambda: InvariantMetric(P, {(1, 2): -math.inf}), ValueError,
     "metric multiplier (1, 2) must be finite, got -inf"),
    (lambda: InvariantMetric.from_pairs(P, {(1, 2): math.nan}), ValueError,
     "metric multiplier (1, 2) must be finite, got nan"),
    (lambda: InvariantMetric.from_pairs(P, {(2, 1): math.inf}), ValueError,
     "metric multiplier (1, 2) must be finite, got inf"),
    (lambda: TangentVector(P, CMatrix(NOT_FINITE, Mode.FLOAT)), ValueError,
     "entry (1, 2) is not finite: (inf+0j)"),
    (lambda: TangentVector(P, CMatrix(np.negative(NOT_FINITE), Mode.FLOAT)), ValueError,
     "entry (1, 2) is not finite: (-inf+0j)"),
    (lambda: TangentVector(P, CMatrix([[0, INF_I, 0], [INF_I, 0, 0], [0, 0, 0]], Mode.FLOAT)),
     ValueError, "entry (1, 2) is not finite: infj"),
    (lambda: TangentVector(P, CMatrix([[0, NAN, 0], [NAN, 0, 0], [0, 0, 0]], Mode.FLOAT)),
     ValueError, "entry (1, 2) is not finite: (nan+0j)"),
    (lambda: skew_spectrum(CMatrix(NOT_FINITE, Mode.FLOAT)), ValueError,
     "entry (1, 2) is not finite: (inf+0j)"),
    (lambda: skew_spectrum(CMatrix([[0, 1], [-1, complex(0, math.nan)]], Mode.FLOAT)), ValueError,
     "entry (2, 2) is not finite: nanj"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        build()
    assert str(info.value) == message


def test_closedness_verdict_replace_keeps_other_fields():
    full = ClosednessVerdict(*RECORDS[ClosednessVerdict][0].values(),
                             *(other for _, other in RECORDS[ClosednessVerdict][1].values()))
    moved = full._replace(defect=0.5)
    others = [name for name in full._fields if name != "defect"]
    assert moved.defect == 0.5 and full.defect == 1e-15
    assert [getattr(moved, n) for n in others] == [getattr(full, n) for n in others]
    # is_killing_closed adds only the exp(T A) defect to the commensurability verdict
    x = fixture_vector("f4-x2y3")
    sd = spectral_data(x)
    plain, confirmed = commensurability(sd), is_killing_closed(x)
    assert plain.defect is None and confirmed.defect is not None
    assert confirmed._replace(defect=None) == plain
