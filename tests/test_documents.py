"""Document parsing, serialization round trips, and the fixture corpus."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tangent, serialize_metric
from flagdesic import CMatrix, FlagPartition, GaussianRational, Mode, TangentVector
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
    for c in (1.0, 1e-200):  # a block whose square underflows is still written
        doc = serialize_vector(TangentVector.from_blocks(p, {(1, 2): [[c]]}))
        assert set(doc["blocks"]) == {"1,2"} and doc["blocks"]["1,2"] == [[[c, 0.0]]]


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


# ---------------------------------------------------------------------------
# exact literals, read straight to integers
# ---------------------------------------------------------------------------

#: Rational parts: 0 and +-1, decimals ("1.", ".5"), small fractions and wide numerators.
_RATIONALS = (st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)])
              | st.builds(Fraction, st.integers(-999, 999), st.sampled_from([1, 2, 8, 10, 1000]))
              | st.fractions(-50, 50, max_denominator=40)
              | st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**6)))

#: Gaussian rationals, with +-i and integers (a bare i, JSON integers) drawn often.
_GAUSSIANS = (st.builds(GR, _RATIONALS, _RATIONALS) | st.sampled_from([GR(0, 1), GR(0, -1)])
              | st.builds(GR, st.integers(-(10**20), 10**20)))


@st.composite
def _spelt(draw, z: GaussianRational):
    """One spelling of z that the exact grammar allows, or a JSON integer where z is one."""
    pad = st.sampled_from(["", " ", "  "])

    def magnitude(q):  # |q| as p/q (maybe unreduced), an integer, or a decimal like "1." or ".5"
        q, k = abs(q), draw(st.integers(1, 9))
        forms = [f"{q.numerator * k}/{q.denominator * k}"]
        digits = next((d for d in range(12) if (q * 10**d).denominator == 1), None)
        if digits is not None:
            whole, frac = divmod(int(q * 10**digits), 10**digits)
            frac = f"{frac:0{digits}d}" if digits else ""
            forms += [f"{whole}.{frac}", f"{whole or ''}.{frac}" if frac else f"{whole}"]
        return draw(st.sampled_from(forms))

    def sign(q):
        return "-" if q < 0 else draw(st.sampled_from(["", "+"]))

    if z.im == 0 and z.re.denominator == 1 and draw(st.booleans()):
        return int(z.re)
    if z.im == 0:
        body = sign(z.re) + magnitude(z.re)
    else:
        im = "" if abs(z.im) == 1 and draw(st.booleans()) else magnitude(z.im)  # a bare i
        if z.re == 0 and draw(st.booleans()):
            body = sign(z.im) + im + "i"
        else:
            joint = draw(pad) + ("-" if z.im < 0 else "+") + draw(pad)
            body = sign(z.re) + magnitude(z.re) + joint + im + "i"
    return draw(pad) + body + draw(pad)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
def test_exact_documents_read_to_the_integers_of_their_gaussian_rationals(r, c, lower, data):
    values = [[data.draw(_GAUSSIANS) for _ in range(c)] for _ in range(r)]
    if lower:  # supply the lower half -B^* instead; the vector is the same
        key, supplied = "2,1", [[GR(-v.re, v.im) for v in col] for col in zip(*values)]
    else:
        key, supplied = "1,2", values
    spelt = [[data.draw(_spelt(v)) for v in row] for row in supplied]
    for text, v in zip(sum(spelt, []), sum(supplied, [])):
        assert isinstance(text, int) or GR.parse(text) == v
    x = parse_vector_document({"parts": [r, c], "mode": "exact", "blocks": {key: spelt}})
    zero = GR()
    rows = [[zero] * r + row for row in values]
    rows += [[GR(-v.re, v.im) for v in col] + [zero] * c for col in zip(*values)]
    expected = CMatrix(rows, Mode.EXACT)
    assert x.matrix.den == expected.den
    assert x.matrix.data.tolist() == expected.data.tolist()


def _int_error(digits: str) -> str:
    with pytest.raises(ValueError) as exc:
        int(digits)
    return str(exc.value)


_GRAMMAR = "each part must be an integer, p/q or a decimal, without an exponent"


@pytest.mark.parametrize("text, why", [
    ("1e3", _GRAMMAR), ("i2", _GRAMMAR), ("--1", _GRAMMAR), ("1/2 i", _GRAMMAR),
    ("1/0", "a denominator is zero"), ("1+0/0i", "a denominator is zero"),
    ("1" * 5000, _int_error("1" * 5000)), ("1/" + "7" * 5000, _int_error("7" * 5000)),
    ("-." + "5" * 5000 + "i", _int_error("5" * 5000)),
], ids=["exponent", "i2", "double-sign", "inner-space", "zero-den", "zero-im-den", "digits",
        "digits-den", "digits-decimal"])
def test_malformed_literals_keep_their_error_text(text, why):
    message = f"cannot parse Gaussian rational {text!r}: {why}"
    with pytest.raises(ValueError) as exc:
        GR.parse(text)
    assert str(exc.value) == message
    with pytest.raises(DocumentError) as exc:
        parse_vector_document({"parts": [1, 1], "mode": "exact", "blocks": {"1,2": [[text]]}})
    assert str(exc.value) == f"block '1,2': {message}"


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
