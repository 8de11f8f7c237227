"""Checks one CLI response against the ground truth its input was built with.

Every response gets one of four outcomes:

- ``ok``: the expected answer;
- ``undetermined``: an honest float ``closedness`` exit 3 on an input that is
  commensurate by construction (not a failure, but a loss of decisiveness);
- ``wrong``: an answer that contradicts the ground truth (verdict, exit code,
  period, spectrum, pair values, route disagreement, malformed output);
- ``no-answer``: an error exit, a traceback or a timeout.

Both ``wrong`` and ``no-answer`` count as failed requests. Only ``wrong``
makes a run incorrect: an error exit such as the exact mode's "irrational
roots" refusal asserts nothing false, but it still counts against the run.
"""

from __future__ import annotations

import csv
import io
import json
import re

#: Relative agreement required of periods, pair values and spectra.
REL_TOL = 1e-9
#: dist_k must be at most this at t = 0 and at t = period.
DIST_ZERO_TOL = 1e-10
DIST_PERIOD_TOL = 1e-6

OK, UNDETERMINED, WRONG, NO_ANSWER = "ok", "undetermined", "wrong", "no-answer"

_ROUTE_RE = re.compile(r"^equigeodesic \(([\w-]+)\): (true|false)\b")
_GEODESIC_RE = re.compile(r"^geodesic \(fixed metric\): (true|false)\b")
_PAIR_RE = re.compile(r"^\s+\((\d+), (\d+)\)\s+(\S+)$")


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(scale), 1e-300)


def _field(stdout: str, name: str):
    for line in stdout.splitlines():
        if line.startswith(name + ":"):
            return line[len(name) + 1:].strip()
    return None


def check_response(req, code, stdout: str, stderr: str, out_text) -> tuple:
    """(outcome, reason) for one response; ``code`` is None on a timeout."""
    if code is None:
        return NO_ANSWER, "timeout"
    if "Traceback (most recent call last)" in stderr:
        return NO_ANSWER, "traceback: " + stderr.strip().splitlines()[-1][:200]
    if code not in (0, 1, 3):
        return NO_ANSWER, f"exit {code}: {stderr.strip()[:200]}"
    try:
        return _CHECKS[req.command](req, code, stdout, stderr, out_text)
    except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
        return WRONG, f"unparseable output: {exc}"


def _expect_code(code: int, expected: int, what: str):
    if code != expected:
        return WRONG, f"{what}: exit {code}, expected {expected}"
    return None


def _check(req, code, stdout, stderr, out_text):
    truth = req.case.equigeodesic
    if req.with_metric:
        m = [_GEODESIC_RE.match(line) for line in stdout.splitlines()]
        verdicts = [x.group(1) == "true" for x in m if x]
        if len(verdicts) != 1 or verdicts[0] != truth:
            return WRONG, f"fixed-metric verdict {verdicts}, expected {truth}"
        return _expect_code(code, 0 if truth else 1, "check with metric") or (OK, "")
    routes = {}
    for line in stdout.splitlines():
        m = _ROUTE_RE.match(line)
        if m:
            routes[m.group(1)] = m.group(2) == "true"
    if set(routes) != {"block-condition", "bracket-certificate"}:
        return WRONG, f"expected both route lines, got {sorted(routes)}"
    if routes["block-condition"] != routes["bracket-certificate"]:
        return WRONG, f"routes disagree: {routes}"
    if routes["block-condition"] != truth:
        return WRONG, f"verdict {routes['block-condition']}, expected {truth}"
    return _expect_code(code, 0 if truth else 1, "check") or (OK, "")


def _canonicalize(req, code, stdout, stderr, out_text):
    if not req.case.equigeodesic:
        if code == 1 and "not equigeodesic" in stderr:
            return OK, ""
        return WRONG, f"non-equigeodesic input: exit {code}, expected 1 with a reason"
    bad = _expect_code(code, 0, "canonicalize")
    if bad:
        return bad
    got = sorted((float(m.group(3)) for m in map(_PAIR_RE.match, stdout.splitlines()) if m),
                 reverse=True)
    want = req.case.pair_values
    if len(got) != len(want):
        return WRONG, f"{len(got)} pairs, expected {len(want)}"
    for g, w in zip(got, want):
        if not _close(g, w, w):
            return WRONG, f"pair value {g!r}, expected {w!r}"
    doc = json.loads(out_text)
    if sorted(doc) != ["J", "U", "pairs", "residual"] or len(doc["U"]) != sum(req.case.parts):
        return WRONG, "canonical-form document lacks J, U, pairs or residual"
    return OK, ""


def _spectrum_matches(stdout: str, case) -> bool:
    got = sorted(float(t) for t in _field(stdout, "spectrum (i * theta)").split())
    want = case.spectrum()
    scale = max((abs(w) for w in want), default=1.0)
    return len(got) == len(want) and all(_close(g, w, scale) for g, w in zip(got, want))


def _closedness(req, code, stdout, stderr, out_text):
    case = req.case
    status = _field(stdout, "status")
    truth = case.commensurate
    if code in (0, 1) and not _spectrum_matches(stdout, case):
        return WRONG, "spectrum differs from the constructed one"
    if req.mode == "exact":
        if truth:
            bad = _expect_code(code, 0, "exact closedness")
        else:
            bad = _expect_code(code, 1, "exact closedness")
            if bad is None and status != "incommensurate":
                bad = WRONG, f"status {status!r}, expected 'incommensurate'"
        if bad:
            return bad
    elif code == 3:
        if status != "undetermined":
            return WRONG, f"exit 3 with status {status!r}"
        return (UNDETERMINED, "") if truth else (OK, "")
    elif truth:
        bad = _expect_code(code, 0, "float closedness")
        if bad:
            return bad
    else:
        bad = _expect_code(code, 1, "float closedness")
        if bad:
            return bad
        if status != "incommensurate-within-bound":
            return WRONG, f"status {status!r}, expected 'incommensurate-within-bound'"
    if code == 0:
        if status != "commensurate":
            return WRONG, f"exit 0 with status {status!r}"
        period = float(_field(stdout, "period"))
        if not _close(period, case.period, case.period):
            return WRONG, f"period {period!r}, expected {case.period!r}"
    return OK, ""


def _curve(req, code, stdout, stderr, out_text):
    bad = _expect_code(code, 0, "curve")
    if bad:
        return bad
    rows = list(csv.reader(io.StringIO(out_text)))
    parts = req.case.parts
    n = sum(parts)
    width = 2 + 2 * (n * n - sum(p * p for p in parts))
    if len(rows[0]) != width or rows[0][0] != "t" or rows[0][-1] != "dist_k":
        return WRONG, f"header width {len(rows[0])}, expected {width}"
    body = rows[1:]
    if len(body) != req.samples + 1 or any(len(r) != width for r in body):
        return WRONG, f"{len(body)} rows, expected {req.samples + 1} of width {width}"
    if float(body[0][0]) != 0.0 or abs(float(body[0][-1])) > DIST_ZERO_TOL:
        return WRONG, f"dist_k {body[0][-1]} at t={body[0][0]}, expected 0 at t=0"
    if req.case.commensurate and abs(float(body[-1][-1])) > DIST_PERIOD_TOL:
        return WRONG, f"dist_k {body[-1][-1]} at the period, expected ~0"
    return OK, ""


_CHECKS = {
    "check": _check,
    "canonicalize": _canonicalize,
    "closedness": _closedness,
    "curve": _curve,
}
