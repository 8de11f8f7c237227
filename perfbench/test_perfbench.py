"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _fingerprint(requests):
    return [
        (r.command, r.mode, r.with_metric, r.samples, r.t_max, json.dumps(r.case.doc),
         json.dumps(r.case.metric), r.case.theta_sq, r.case.equigeodesic)
        for r in requests
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.build_requests(workload, 11, 40)
    again = workloads.build_requests(workload, 11, 40)
    other = workloads.build_requests(workload, 12, 40)
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)
    # every cycle carries the same mix of commands, whatever the seed
    mix = sorted(r.command for r in first[: workloads.cycle_length(workload)])
    assert mix == sorted(r.command for r in other[: workloads.cycle_length(workload)])
    assert set(mix) == set(run.COMMANDS)


def test_ground_truth_periods():
    assert workloads.commensurate_period([Fraction(1), Fraction(4)]) == (True, 2 * math.pi)
    ok, period = workloads.commensurate_period([Fraction(9, 4), Fraction(1), Fraction(0)])
    assert ok and math.isclose(period, 4 * math.pi)
    assert workloads.commensurate_period([Fraction(1), Fraction(2)]) == (False, None)


def _closedness_request(theta_sq, mode="float"):
    doc = {"n": 4, "parts": [1, 1, 1, 1], "mode": mode, "blocks": {}}
    case = workloads.Case(doc, equigeodesic=True, theta_sq=theta_sq)
    return workloads.Request("closedness", case, mode=mode)


def _closedness_stdout(period, spectrum="2  1  -1  -2", status="commensurate"):
    return (f"spectrum (i * theta): {spectrum}\nstatus: {status}\n"
            f"base frequency: 1\nperiod: {period!r}\nmultipliers: 2 1 -1 -2\n")


def test_oracle_accepts_the_right_closedness_answer():
    req = _closedness_request([Fraction(4), Fraction(1)])
    assert oracle.check_response(req, 0, _closedness_stdout(2 * math.pi), "", None)[0] == oracle.OK


def test_oracle_flags_wrong_period_verdict_and_spectrum():
    req = _closedness_request([Fraction(4), Fraction(1)])
    assert oracle.check_response(req, 0, _closedness_stdout(math.pi), "", None)[0] == oracle.WRONG
    wrong_verdict = _closedness_stdout(2 * math.pi, status="incommensurate-within-bound")
    assert oracle.check_response(req, 1, wrong_verdict, "", None)[0] == oracle.WRONG
    wrong_spectrum = _closedness_stdout(2 * math.pi, spectrum="3  1  -1  -3")
    assert oracle.check_response(req, 0, wrong_spectrum, "", None)[0] == oracle.WRONG
    undecided = "spectrum (i * theta): 2 1 -1 -2\nstatus: undetermined\n"
    assert oracle.check_response(req, 3, undecided, "", None)[0] == oracle.UNDETERMINED
    exact = _closedness_request([Fraction(2), Fraction(1)], mode="exact")
    assert oracle.check_response(exact, 0, _closedness_stdout(2 * math.pi), "", None)[0] == oracle.WRONG
    refused = "error: characteristic polynomial has irrational roots"
    assert oracle.check_response(exact, 2, "", refused, None)[0] == oracle.NO_ANSWER


def test_oracle_flags_wrong_or_disagreeing_check_routes():
    case = workloads.Case({"parts": [1, 1, 1], "mode": "float", "blocks": {}}, True, [Fraction(1)])
    req = workloads.Request("check", case)
    both = "equigeodesic (block-condition): {}  worst residual 0\n" \
           "equigeodesic (bracket-certificate): {}  worst residual 0\n"
    assert oracle.check_response(req, 0, both.format("true", "true"), "", None)[0] == oracle.OK
    assert oracle.check_response(req, 1, both.format("false", "false"), "", None)[0] == oracle.WRONG
    assert oracle.check_response(req, 0, both.format("true", "false"), "", None)[0] == oracle.WRONG
    crash = "Traceback (most recent call last):\n  ...\nRuntimeError: boom\n"
    assert oracle.check_response(req, 1, "", crash, None)[0] == oracle.NO_ANSWER
    assert oracle.check_response(req, None, "", "", None)[0] == oracle.NO_ANSWER


def test_self_times_of_a_nested_tree_add_up_to_the_total():
    tree = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("a.x", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
        ("b.y", 3, 5.5, 6.0),
        ("b.z", 3, 7.0, 8.5),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    assert sum(selfs) == pytest.approx(10.0)


def test_tracer_rebinds_by_name_imports_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import flagdesic.cli as cli
    import flagdesic.closure as closure

    originals = (cli.spectral_data, closure.spectral_data, cli.main)
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.spectral_data is closure.spectral_data
        assert cli.spectral_data is not originals[0]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["roots", "3", "3", "3"])
    assert code == 0
    recorded = tracer.take()
    assert recorded[0][0] == "cli.main" and recorded[0][1] == -1
    assert {"flag.build_roots", "flag.t_roots"} <= {s[0] for s in recorded}
    assert (cli.spectral_data, closure.spectral_data, cli.main) == originals


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.per_layer_metrics()
