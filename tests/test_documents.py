"""Document parsing, serialization round trips, and the fixture corpus."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_tangent, serialize_metric
from flagdesic import FlagPartition, GaussianRational, Mode, TangentVector
from flagdesic.documents import (
    DocumentError,
    parse_metric_document,
    parse_vector_document,
    serialize_vector,
)
from flagdesic.examples import fixture_document, fixture_names, fixture_vector, random_metric

GR = GaussianRational


def test_float_round_trip():
    rng = np.random.default_rng(71)
    for parts in [(1, 1, 1), (2, 2, 1), (3, 1)]:
        p = FlagPartition(parts)
        x = random_tangent(p, rng)
        y = parse_vector_document(serialize_vector(x))
        assert np.max(np.abs(y.matrix.data - x.matrix.data)) <= 1e-15 * x.fro()


def test_exact_round_trip_is_identity():
    p = FlagPartition((2, 1, 1))
    x = TangentVector.from_blocks(
        p,
        {
            (1, 2): [[GR(1, 1)], [GR(0, -2)]],
            (2, 3): [[GR(3)]],
        },
        Mode.EXACT,
    )
    y = parse_vector_document(serialize_vector(x))
    assert y.mode is Mode.EXACT
    assert (y.matrix - x.matrix).is_zero()


def test_zero_blocks_omitted():
    p = FlagPartition((1, 1, 1))
    x = TangentVector.from_blocks(p, {(1, 2): [[1.0]]})
    doc = serialize_vector(x)
    assert set(doc["blocks"]) == {"1,2"}


def test_missing_blocks_are_zero_and_completion_applies():
    doc = {"parts": [2, 1], "mode": "float", "blocks": {"1,2": [[[1.0, 2.0]], [[0.0, 0.0]]]}}
    x = parse_vector_document(doc)
    assert x.matrix.entries()[0, 2] == 1 + 2j
    assert x.matrix.entries()[2, 0] == -1 + 2j  # -conj(1+2j)
    assert x.matrix.entries()[1, 2] == 0


def test_lower_half_accepted_and_checked():
    lower = {"parts": [1, 1], "mode": "float", "blocks": {"2,1": [[[1.0, 0.0]]]}}
    x = parse_vector_document(lower)
    assert x.matrix.entries()[0, 1] == -1.0

    consistent = {
        "parts": [1, 1],
        "mode": "float",
        "blocks": {"1,2": [[[1.0, 0.0]]], "2,1": [[[-1.0, 0.0]]]},
    }
    parse_vector_document(consistent)

    inconsistent = {
        "parts": [1, 1],
        "mode": "float",
        "blocks": {"1,2": [[[1.0, 0.0]]], "2,1": [[[-1.0, 1e-6]]]},
    }
    with pytest.raises(DocumentError, match="disagree"):
        parse_vector_document(inconsistent)


@pytest.mark.parametrize("upper, lower", [(1.0, -3.0), (1e-300, -3e-300), (1e-300, -1e-290)])
def test_half_consistency_is_relative_at_every_scale(upper, lower):
    # below norm 1 an absolute check let the upper half win silently
    doc = {"parts": [1, 1], "blocks": {"1,2": [[[upper, 0.0]]], "2,1": [[[lower, 0.0]]]}}
    with pytest.raises(DocumentError, match=r"^blocks \(1, 2\) and \(2, 1\) disagree by"):
        parse_vector_document(doc)
    doc["blocks"]["2,1"] = [[[-upper * (1 + 1e-13), 0.0]]]
    assert parse_vector_document(doc).matrix.data[0, 1] == upper


def test_document_errors():
    with pytest.raises(DocumentError, match="diagonal"):
        parse_vector_document(
            {"parts": [1, 1, 1], "mode": "float", "blocks": {"3,3": [[[1.0, 0.0]]]}}
        )
    with pytest.raises(DocumentError, match="out of range"):
        parse_vector_document(
            {"parts": [1, 1], "mode": "float", "blocks": {"1,5": [[[1.0, 0.0]]]}}
        )
    with pytest.raises(DocumentError, match="form"):
        parse_vector_document(
            {"parts": [1, 1], "mode": "float", "blocks": {"ab": [[[1.0, 0.0]]]}}
        )
    with pytest.raises(DocumentError, match="mode"):
        parse_vector_document({"parts": [1, 1], "mode": "double", "blocks": {}})
    with pytest.raises(DocumentError, match="pairs"):
        parse_vector_document(
            {"parts": [1, 1], "mode": "float", "blocks": {"1,2": [[1.0]]}}
        )
    with pytest.raises(DocumentError, match="matrix"):
        parse_vector_document(
            {"parts": [2, 1], "mode": "float", "blocks": {"1,2": [[[1.0, 0.0]]]}}
        )
    with pytest.raises(DocumentError):
        parse_vector_document({"mode": "float", "blocks": {}})
    with pytest.raises(DocumentError, match='"n" = 5 does not match the partition total 2'):
        parse_vector_document({"n": 5, "parts": [1, 1], "mode": "float", "blocks": {}})


def test_exact_entry_parsing_errors():
    with pytest.raises(DocumentError, match="exact entries"):
        parse_vector_document(
            {"parts": [1, 1], "mode": "exact", "blocks": {"1,2": [[1.5]]}}
        )
    with pytest.raises(DocumentError, match="Gaussian rational '1/0': a denominator is zero$"):
        parse_vector_document(
            {"parts": [1, 1], "mode": "exact", "blocks": {"1,2": [["1/0"]]}}
        )
    doc = {"parts": [1, 1], "mode": "exact", "blocks": {"1,2": [["1/2-i"]]}}
    x = parse_vector_document(doc)
    assert x.matrix.entries()[0, 1] == GR(0.5, -1)


def test_metric_document_defaults_and_errors():
    p = FlagPartition((1, 1, 1))
    g = parse_metric_document({"parts": [1, 1, 1], "lambda": {"1,2": 2.0}}, p)
    assert g.lam == {(1, 2): 2.0, (1, 3): 1.0, (2, 3): 1.0}

    with pytest.raises(DocumentError, match="positive"):
        parse_metric_document({"parts": [1, 1, 1], "lambda": {"1,2": -2.0}})
    with pytest.raises(DocumentError, match="does not match"):
        parse_metric_document({"parts": [1, 1]}, p)
    with pytest.raises(DocumentError, match="diagonal"):
        parse_metric_document({"parts": [1, 1, 1], "lambda": {"2,2": 1.0}})


def test_metric_round_trip():
    p = FlagPartition((2, 2, 1))
    g = random_metric(p, 7)
    h = parse_metric_document(serialize_metric(g))
    assert h.lam == g.lam


def test_fixture_corpus():
    assert fixture_names() == ["f3-u12", "f4-x2y3", "f9-333", "fn-211"]
    for name in fixture_names():
        xf = fixture_vector(name, "float")
        xe = fixture_vector(name, "exact")
        assert xf.mode is Mode.FLOAT
        assert xe.mode is Mode.EXACT
        assert np.allclose(xe.to_float().matrix.data, xf.matrix.data)
    with pytest.raises(KeyError):
        fixture_document("nope")


def test_fixture_f9_layout_matches_display():
    x = fixture_vector("f9-333")
    a = x.matrix.data
    assert a[0, 3] == 1 and a[1, 4] == 2 and a[2, 6] == 3 and a[5, 8] == 4
    assert a[3, 0] == -1 and a[4, 1] == -2 and a[6, 2] == -3 and a[8, 5] == -4
    assert np.count_nonzero(a) == 8


def test_booleans_are_not_numbers():
    # json reads true and false as bools, which Python counts as ints
    with pytest.raises(DocumentError, match="block '1,2': float entries"):
        parse_vector_document({"parts": [1, 1], "blocks": {"1,2": [[[True, 0.0]]]}})
    with pytest.raises(DocumentError, match="block '1,2': exact entries"):
        parse_vector_document({"parts": [1, 1], "mode": "exact", "blocks": {"1,2": [[False]]}})
    with pytest.raises(DocumentError, match=re.escape("lambda['1,2'] must be a positive number")):
        parse_metric_document({"parts": [1, 1], "lambda": {"1,2": True}})


@pytest.mark.parametrize("doc, parse, message", [
    ({"parts": [1, 1, 1], "block": {"1,2": [[[1, 0]]]}}, parse_vector_document,
     "unknown key 'block' in vector document; allowed keys: n, parts, mode, blocks"),
    ({"parts": [1, 1], "lambda": {}}, parse_vector_document,
     "unknown key 'lambda' in vector document; allowed keys: n, parts, mode, blocks"),
    ({"parts": [1, 1], "lamda": {"1,2": 2.0}}, parse_metric_document,
     "unknown key 'lamda' in metric document; allowed keys: parts, lambda"),
    ({"parts": [1, 1], "mode": "float"}, parse_metric_document,
     "unknown key 'mode' in metric document; allowed keys: parts, lambda"),
], ids=["block", "lambda-in-vector", "lamda", "mode-in-metric"])
def test_unknown_top_level_keys_are_rejected(doc, parse, message):
    # a misspelt key would otherwise read as the zero vector or the normal metric
    with pytest.raises(DocumentError, match=re.escape(message) + "$"):
        parse(doc)


@pytest.mark.parametrize("n", [True, 2.0, "2"])
def test_n_must_be_an_integer(n):
    parts = [1] if n is True else [1, 1]
    with pytest.raises(DocumentError, match=re.escape(f'"n" must be an integer, got {n!r}')):
        parse_vector_document({"n": n, "parts": parts})


@pytest.mark.parametrize("parts", [3, "11", None, {"1": 1}], ids=["number", "string", "null", "object"])
@pytest.mark.parametrize("parse", [parse_vector_document, parse_metric_document])
def test_parts_must_be_an_array(parse, parts):
    # iterating them would read a string as its digits and an object as its keys
    message = f'"parts" must be an array of positive integers, got {parts!r}'
    with pytest.raises(DocumentError, match=re.escape(message) + "$"):
        parse({"parts": parts})


@pytest.mark.parametrize("key", ["\uff11,\uff12", "\u0661,\u0662"], ids=["fullwidth", "arabic-indic"])
def test_keys_take_ascii_digits_only(key):
    # a Unicode \d matches both, and int() reads each as 1, 2; exact entries are ASCII-only too
    with pytest.raises(DocumentError, match=re.escape(f'block key {key!r} is not of the form "i,j"')):
        parse_vector_document({"parts": [1, 1], "blocks": {key: [[[1.0, 0.0]]]}})
    with pytest.raises(DocumentError, match=re.escape(f'lambda key {key!r} is not of the form "i,j"')):
        parse_metric_document({"parts": [1, 1], "lambda": {key: 2.0}})


# ---------------------------------------------------------------------------
# non-finite numbers (json reads NaN, Infinity and -Infinity as floats)
# ---------------------------------------------------------------------------

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
PARTS = st.lists(st.integers(1, 3), min_size=2, max_size=4)


def _through_json(doc):
    return json.loads(json.dumps(doc))


@given(PARTS, NON_FINITE, st.data())
def test_non_finite_entry_is_rejected_naming_its_block(parts, bad, data):
    n = len(parts)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    blocks = {
        f"{i},{j}": [[[0.5, -1.0]] * parts[j - 1] for _ in range(parts[i - 1])] for i, j in pairs
    }
    blocks = _through_json(blocks)  # rows that share no list
    key = data.draw(st.sampled_from(sorted(blocks)))
    rows = blocks[key]
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    row[data.draw(st.integers(0, len(row) - 1))][data.draw(st.integers(0, 1))] = bad
    doc = _through_json({"parts": parts, "mode": "float", "blocks": blocks})
    with pytest.raises(DocumentError, match=re.escape(f"block {key!r}: value") + ".* not finite"):
        parse_vector_document(doc)


@given(PARTS, NON_FINITE, st.data())
def test_non_finite_multiplier_is_rejected_naming_its_pair(parts, bad, data):
    n = len(parts)
    lam = {f"{i},{j}": 1.5 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    key = data.draw(st.sampled_from(sorted(lam)))
    lam[key] = bad
    doc = _through_json({"parts": parts, "lambda": lam})
    with pytest.raises(DocumentError, match=re.escape(f"lambda[{key!r}]: value") + ".* not finite"):
        parse_metric_document(doc, FlagPartition(tuple(parts)))
