"""File formats for tangent vectors and metrics.

A vector document is a JSON object

    {"n": 4, "parts": [1, 1, 1, 1], "mode": "float",
     "blocks": {"1,2": [[[2.0, 0.0]]], "3,4": [[[3.0, 0.0]]]}}

holding only the upper block triangle; the lower half is forced to
a_ji = -a_ij^*, which removes a whole class of inconsistent inputs. Float
entries are [re, im] pairs; exact entries, strings like "1/2-3/4i", are read by
``linalg.read_literal`` straight to the integers of ``CMatrix.from_ints``, without
``gaussian`` or ``fractions``, and written from the blocks of the integer pair [x, y] of
``CMatrix.data`` on the vector's own partition. Missing blocks are zero. Metric documents
carry {"parts": [...], "lambda": {"i,j": value}} with absent pairs defaulting to 1. Any other
top-level key is an error, so a misspelt key cannot read as a default.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Optional

import numpy as np

from .flag import FlagPartition, TangentVector, _upper_blocks
from .linalg import CMatrix, Mode, _build, read_literal

if TYPE_CHECKING:
    from .metric import InvariantMetric

#: Agreement required when a document redundantly supplies both block halves.
HALF_CONSISTENCY_TOL = 1e-12

_KEY_RE = re.compile(r"^\s*(\d+)\s*,\s*(\d+)\s*$", re.ASCII)

#: The top-level keys a document of each kind may hold.
_FIELDS = {"vector": ("n", "parts", "mode", "blocks"), "metric": ("parts", "lambda")}


class DocumentError(ValueError):
    """Malformed document: carries a human-readable field context."""


def _parse_key(key: str, s: int, field: str):
    """(i, j) from a key "i,j" of ``field`` ("block" or "lambda"): 1 <= i, j <= s, i != j."""
    m = _KEY_RE.match(key)
    if not m:
        raise DocumentError(f"{field} key {key!r} is not of the form \"i,j\"")
    i, j = int(m.group(1)), int(m.group(2))
    if i == j:
        raise DocumentError(
            f"{field} key {key!r} addresses a diagonal block; diagonal blocks are zero in m"
        )
    if not (1 <= i <= s and 1 <= j <= s):
        raise DocumentError(f"{field} key {key!r} out of range 1..{s}")
    return i, j


def _is_number(value) -> bool:
    """Whether a JSON value is a number: json reads true and false as bools, which are ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, where: str) -> float:
    """float(value) for a JSON number. json reads NaN and Infinity, and ints of
    any size; the non-finite values and ints beyond the float range are rejected."""
    try:
        f = float(value)
    except OverflowError:
        raise DocumentError(f"{where}: value {value} is beyond the float range") from None
    if not math.isfinite(f):
        raise DocumentError(f"{where}: value {value!r} is not finite")
    return f


def _parse_float_entry(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(map(_is_number, value))
    ):
        raise DocumentError(f"{where}: float entries must be [re, im] pairs, got {value!r}")
    return complex(_finite(value[0], where), _finite(value[1], where))


def _parse_exact_entry(value, where: str) -> tuple:
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1, 0, 1
    if not isinstance(value, str):
        raise DocumentError(f"{where}: exact entries must be strings like \"p/q+r/si\"")
    try:
        return read_literal(value)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def _parse_block(raw, rows: int, cols: int, mode: Mode, where: str) -> CMatrix:
    if not isinstance(raw, list) or len(raw) != rows or any(
        not isinstance(r, list) or len(r) != cols for r in raw
    ):
        raise DocumentError(f"{where}: expected a {rows}x{cols} matrix of entries")
    if mode is Mode.FLOAT:
        return CMatrix([[_parse_float_entry(v, where) for v in row] for row in raw], mode)
    entries = [[_parse_exact_entry(v, where) for v in row] for row in raw]
    return CMatrix.from_ints(*np.array(entries, dtype=object).transpose(2, 0, 1))


def _partition(doc, kind: str) -> FlagPartition:
    """The partition a ``kind`` ("vector" or "metric") document names in "parts"."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{kind} document must be a JSON object")
    for key in doc:
        if key not in _FIELDS[kind]:
            raise DocumentError(f"unknown key {key!r} in {kind} document; "
                                f"allowed keys: {', '.join(_FIELDS[kind])}")
    if "parts" not in doc:
        raise DocumentError(f"{kind} document is missing \"parts\"")
    if not isinstance(doc["parts"], list):
        raise DocumentError(f"\"parts\" must be an array of positive integers, got {doc['parts']!r}")
    try:
        return FlagPartition(tuple(doc["parts"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"invalid \"parts\": {exc}") from None


def parse_vector_document(doc: dict) -> TangentVector:
    """Validate and assemble a tangent vector from its JSON form."""
    partition = _partition(doc, "vector")
    if "n" in doc:
        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise DocumentError(f"\"n\" must be an integer, got {n!r}")
        if n != partition.total:
            raise DocumentError(f"\"n\" = {n} does not match the partition total {partition.total}")
    mode_name = doc.get("mode", "float")
    try:
        mode = Mode(mode_name)
    except ValueError:
        raise DocumentError(f"unknown mode {mode_name!r} (use \"float\" or \"exact\")") from None

    raw_blocks = doc.get("blocks", {})
    if not isinstance(raw_blocks, dict):
        raise DocumentError("\"blocks\" must be an object keyed by \"i,j\"")

    upper = {}
    lower = {}
    for key, raw in raw_blocks.items():
        i, j = _parse_key(key, partition.s, "block")
        rows = partition.parts[i - 1]
        cols = partition.parts[j - 1]
        block = _parse_block(raw, rows, cols, mode, f"block {key!r}")
        half, pair = (upper, (i, j)) if i < j else (lower, (j, i))
        if pair in half:
            raise DocumentError(f"block ({i},{j}) supplied twice")
        half[pair] = block

    for pair, low in lower.items():
        implied = -low.H
        if pair not in upper:
            upper[pair] = implied
            continue
        given = upper[pair]
        if not given.allclose(implied, HALF_CONSISTENCY_TOL):
            raise DocumentError(
                f"blocks {pair} and {pair[::-1]} disagree by "
                f"{(given - implied).fro():.3e}; supply one half or make them consistent"
            )

    return TangentVector.from_blocks(partition, upper, mode)


def serialize_vector(x: TangentVector) -> dict:
    """Upper-triangle document for a tangent vector: the upper blocks holding a nonzero entry, as
    ``flag._upper_blocks`` lists them, each converted on its own; zero blocks are omitted."""
    m, blocks = x.matrix, {}
    for (i, j), b in _upper_blocks(x.partition, m.data, m.nonzero()):
        if x.mode is Mode.FLOAT:
            blocks[f"{i},{j}"] = np.stack((b.real, b.imag), axis=-1).tolist()
        else:
            b = _build(b, Mode.EXACT, m.den, reduce=False).entries()
            blocks[f"{i},{j}"] = [[str(v) for v in row] for row in b]
    return {
        "n": x.partition.total,
        "parts": list(x.partition.parts),
        "mode": x.mode.value,
        "blocks": blocks,
    }


def parse_metric_document(doc: dict, partition: Optional[FlagPartition] = None) -> InvariantMetric:
    """Metric from {"parts": [...], "lambda": {"i,j": value}}; absent pairs get 1."""
    from .metric import InvariantMetric  # here, so only commands given a metric load it

    own = _partition(doc, "metric")
    if partition is not None and own != partition:
        raise DocumentError(
            f"metric partition {own.parts} does not match the vector partition {partition.parts}"
        )
    raw = doc.get("lambda", {})
    if not isinstance(raw, dict):
        raise DocumentError("\"lambda\" must be an object keyed by \"i,j\"")
    values = {}
    for key, v in raw.items():
        i, j = _parse_key(key, own.s, "lambda")
        pair = (i, j) if i < j else (j, i)
        if not _is_number(v) or _finite(v, f"lambda[{key!r}]") <= 0:
            raise DocumentError(f"lambda[{key!r}] must be a positive number, got {v!r}")
        if pair in values and float(values[pair]) != float(v):
            raise DocumentError(f"lambda for pair {pair} supplied twice with different values")
        values[pair] = float(v)
    try:
        return InvariantMetric.from_pairs(own, values)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
