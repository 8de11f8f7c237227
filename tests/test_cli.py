"""End-to-end CLI tests: exit codes, reports, file outputs."""

import contextlib
import copy
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagdesic import cli
from flagdesic.cli import main
from flagdesic.documents import parse_vector_document
from flagdesic.examples import fixture_document, fixture_names
from flagdesic.flag import FlagPartition, build_roots


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def f9(tmp_path):
    return write_json(tmp_path / "f9.json", fixture_document("f9-333"))


@pytest.fixture
def f4(tmp_path):
    return write_json(tmp_path / "f4.json", fixture_document("f4-x2y3"))


def chain_document(c=1.0):
    return {
        "parts": [1, 1, 1],
        "mode": "float",
        "blocks": {"1,2": [[[c, 0.0]]], "2,3": [[[c, 0.0]]]},
    }


@pytest.fixture
def f3_chain(tmp_path):
    return write_json(tmp_path / "chain.json", chain_document())


def test_check_equigeodesic_fixture(f9, capsys):
    assert main(["check", f9]) == 0
    out = capsys.readouterr().out
    assert "block-condition" in out and "bracket-certificate" in out
    assert out.count("true") == 2


def test_check_negative_with_triple(tmp_path, capsys):
    for c in (1.0, 1e-200, 1e160):  # verdicts are scale-free
        assert main(["check", write_json(tmp_path / "chain.json", chain_document(c))]) == 1
        out = capsys.readouterr().out
        assert out.count("false") == 2
        assert out.count("violating triple (1, 2, 3)") == 1
        assert out.count("violating probe (1, 2)") == 1


def test_check_diagonal_block_error(tmp_path, capsys):
    doc = {"parts": [1, 1, 1], "mode": "float", "blocks": {"3,3": [[[1.0, 0.0]]]}}
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["check", path]) == 2
    assert "diagonal" in capsys.readouterr().err


def test_check_with_metric(tmp_path, capsys):
    normal = write_json(tmp_path / "gn.json", {"parts": [1, 1, 1], "lambda": {}})
    skewed = write_json(
        tmp_path / "gs.json", {"parts": [1, 1, 1], "lambda": {"2,3": 2.0}}
    )
    for c in (1.0, 1e-200, 1e160):  # the residual is scale-free
        f3_chain = write_json(tmp_path / "chain.json", chain_document(c))
        assert main(["check", f3_chain, normal]) == 0
        assert main(["check", f3_chain, skewed]) == 1
        assert capsys.readouterr().out == (
            "geodesic (fixed metric): true  residual 0.000e+00\n"
            "geodesic (fixed metric): false  residual 1.768e-01\n"
        )
    zero = write_json(tmp_path / "zero.json", chain_document(0.0))  # geodesic for every metric
    assert main(["check", zero, skewed]) == 0
    assert capsys.readouterr() == ("geodesic (fixed metric): true  residual 0.000e+00\n", "")


@pytest.mark.parametrize("tol", ["1e200", "1e308"])
@pytest.mark.parametrize("doc", [chain_document(), fixture_document("f4-x2y3")], ids=["chain", "f4"])
def test_check_with_a_tolerance_whose_square_passes_the_float_range(tmp_path, capsys, doc, tol):
    # tol * tol is inf, so every residual passes, as at --tol 1: both residuals are at most 1
    vec = write_json(tmp_path / "v.json", doc)
    assert main(["check", vec, "--tol", "1"]) == 0
    at_one = capsys.readouterr().out
    assert main(["check", vec, "--tol", tol]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (at_one, "")
    assert [line.split()[2] for line in out.splitlines()] == ["true", "true"]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_check_rejects_invalid_tol(tmp_path, f9, tol, capsys):
    metric = write_json(tmp_path / "g.json", {"parts": [3, 3, 3], "lambda": {}})
    for argv in (["check", f9], ["check", f9, metric]):
        assert main([*argv, "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: tolerance must be finite and nonnegative" in err


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/thing.json"]) == 2


def test_check_rejects_a_non_integer_n(tmp_path, capsys):
    vec = write_json(tmp_path / "v.json", {"n": "2", "parts": [1, 1]})
    assert main(["check", vec]) == 2
    assert capsys.readouterr().err == "error: \"n\" must be an integer, got '2'\n"


def test_input_too_large_for_memory_exits_2(tmp_path):
    resource = pytest.importorskip("resource")
    vec = write_json(tmp_path / "v.json", {"parts": [30000, 30000], "blocks": {}})  # 60000^2 entries

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "flagdesic.cli", "check", vec], env=env,
                          preexec_fn=limit_address_space, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: not enough memory: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize("entry", ["1" + "0" * 330, "1/1" + "0" * 330],
                         ids=["overflows", "rounds-to-0"])
@pytest.mark.parametrize("argv", [
    ["check"], ["closedness"], ["canonicalize"], ["curve", "--t-max", "1"],
    ["closedness", "--mode", "exact"],
], ids=" ".join)
def test_exact_entry_outside_the_float_range_exits_2(tmp_path, entry, argv, capsys):
    # overflowed (an OverflowError traceback, exit 1) or rounded to 0 (called the zero vector);
    # exact closedness converts no entry, and here its theta = +-entry leaves the float range
    doc = {"parts": [1, 1], "mode": "exact", "blocks": {"1,2": [[entry]]}}
    assert main([argv[0], write_json(tmp_path / "v.json", doc), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", SPECTRUM_PAST_RANGE if argv[-1] == "exact" else
                                   "error: entry (1, 2) is outside the float range: "
                                   "nonzero magnitudes run from 4.9e-324 to 1.8e+308\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_rejects_non_finite_numbers(tmp_path, f3_chain, bad, capsys):
    # json reads NaN, Infinity and -Infinity as floats
    vec = write_json(tmp_path / "v.json", {"parts": [1, 1], "blocks": {"1,2": [[[bad, 0.0]]]}})
    assert main(["check", vec]) == 2
    err = capsys.readouterr().err
    assert "block '1,2'" in err and "not finite" in err
    metric = write_json(tmp_path / "g.json", {"parts": [1, 1, 1], "lambda": {"1,2": bad}})
    assert main(["check", f3_chain, metric]) == 2
    err = capsys.readouterr().err
    assert "lambda['1,2']" in err and "not finite" in err


@pytest.mark.parametrize("bad", [[1.5, 1], [2.0, 1], ["2", True], [True, True]])
def test_check_rejects_non_integer_parts(tmp_path, f3_chain, bad, capsys):
    vec = write_json(tmp_path / "v.json", {"parts": bad, "blocks": {}})
    assert main(["check", vec]) == 2
    assert 'invalid "parts"' in capsys.readouterr().err
    metric = write_json(tmp_path / "g.json", {"parts": bad, "lambda": {}})
    assert main(["check", f3_chain, metric]) == 2
    assert 'invalid "parts"' in capsys.readouterr().err


@pytest.mark.parametrize("bad", [3, "11", None, {"1": 1}], ids=["number", "string", "null", "object"])
def test_check_rejects_parts_that_is_not_an_array(tmp_path, f3_chain, bad, capsys):
    # iterating them would give a TypeError, the digits of a string or the keys of an object
    err = f'error: "parts" must be an array of positive integers, got {bad!r}\n'
    vec = write_json(tmp_path / "v.json", {"parts": bad, "blocks": {}})
    assert main(["check", vec]) == 2
    assert capsys.readouterr() == ("", err)
    metric = write_json(tmp_path / "g.json", {"parts": bad, "lambda": {}})
    assert main(["check", f3_chain, metric]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("command", ["check", "closedness"])
def test_exact_and_float_modes_print_the_same(tmp_path, capsys, command, name):
    path = write_json(tmp_path / "x.json", fixture_document(name, "exact"))
    outputs = []
    for mode in ("float", "exact"):
        code = main([command, path, "--mode", mode])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_canonicalize_fixture(tmp_path, f9, capsys):
    out_path = tmp_path / "canon.json"
    assert main(["canonicalize", f9, "--out", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "pairs" in printed and "residual" in printed
    doc = json.loads(out_path.read_text())
    values = sorted(p[2] for p in doc["pairs"])
    assert values == pytest.approx([1.0, 2.0, 3.0, 4.0])
    assert doc["residual"] <= 1e-9
    assert doc["J"]["parts"] == [3, 3, 3]
    assert len(doc["U"]) == 9


def test_canonicalize_writes_out_before_its_listing(tmp_path, f9, capsys):
    # a failed write prints no listing: exit 2, empty stdout and one error line
    assert main(["canonicalize", f9, "--out", str(tmp_path / "missing" / "x.json")]) == 2
    failed = capsys.readouterr()
    assert failed.out == ""
    assert failed.err.startswith("error: ") and failed.err.count("\n") == 1
    out_path = tmp_path / "canon.json"
    assert main(["canonicalize", f9, "--out", str(out_path)]) == 0
    listing = capsys.readouterr().out
    # without --out, stdout is the listing, then the document
    assert main(["canonicalize", f9]) == 0
    assert capsys.readouterr().out == listing + out_path.read_text()


def test_canonicalize_rejects_chain(f3_chain, capsys):
    assert main(["canonicalize", f3_chain]) == 1
    assert "not equigeodesic" in capsys.readouterr().err


def test_canonicalize_drops_values_under_the_rank_cut(tmp_path, capsys):
    # already diagonal; the 0.9e-9 entries fall under the cut 1e-9 * sigma_max
    tiny = [[[0.9e-9, 0.0]]]
    doc = {
        "parts": [1] * 8,
        "mode": "float",
        "blocks": {"1,2": [[[1.0, 0.0]]], "3,4": tiny, "5,6": tiny, "7,8": tiny},
    }
    path = write_json(tmp_path / "cut.json", doc)
    assert main(["canonicalize", path, "--out", str(tmp_path / "canon.json")]) == 0
    assert "(1, 2)  1\n" in capsys.readouterr().out
    assert json.loads((tmp_path / "canon.json").read_text())["pairs"] == [[1, 2, 1.0]]


def test_canonicalize_uncertified_form_is_undetermined(monkeypatch, f9, capsys):
    def refuse(x):
        raise RuntimeError("canonical form residual exceeds the bound")

    monkeypatch.setattr("flagdesic.equigeo.canonicalize", refuse)
    assert main(["canonicalize", f9]) == 3
    assert "undetermined" in capsys.readouterr().err


# a_12 = diag(1, 3e-9) and a_13 = e_2: the block condition holds to its tolerance (residual
# 3e-9), yet the singular vector of 3e-9, kept at the rank cut, does not fit block 1
_A13 = [[[0, 0]], [[1, 0]]]


@pytest.mark.parametrize("parts, a12, a13", [
    # (3, 2, 1): not orthogonal in block 1; (2, 2, 1): three singular vectors for its two dimensions
    ([3, 2, 1], [[[1, 0], [0, 0]], [[0, 0], [3e-9, 0]], [[0, 0], [0, 0]]], _A13 + [[[0, 0]]]),
    ([2, 2, 1], [[[1, 0], [0, 0]], [[0, 0], [3e-9, 0]]], _A13),
])
def test_canonicalize_of_a_marginal_equigeodesic_is_undetermined(tmp_path, capsys, parts, a12, a13):
    path = write_json(tmp_path / "marginal.json", {"parts": parts, "blocks": {"1,2": a12, "1,3": a13}})
    assert main(["check", path]) == 0
    capsys.readouterr()
    out = tmp_path / "canon.json"
    assert main(["canonicalize", path, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: canonical form undetermined: the block condition holds, but "
                            "the singular vectors kept at the rank cut do not fit block 1\n")
    assert not out.exists()


# a_12 = (1, 5e-9) and a_23 = e_2: the block condition holds to its tolerance (residual 5e-9),
# and each block has the one singular value 1, so the rank cut drops nothing; the product
# a_12 a_23 = 5e-9 stays in the form, past its residual bound
_NEAR = {"parts": [1, 2, 1], "blocks": {"1,2": [[[1, 0], [5e-9, 0]]], "2,3": [[[0, 0]], [[1, 0]]]}}


def test_canonicalize_of_a_form_past_its_residual_bound_is_undetermined(tmp_path, capsys):
    path = write_json(tmp_path / "near.json", _NEAR)
    assert main(["check", path]) == 0
    capsys.readouterr()
    out = tmp_path / "canon.json"
    assert main(["canonicalize", path, "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "error: canonical form undetermined: canonical form residual "
                                       "7.071e-09 exceeds 2.000e-09; the block condition's worst "
                                       "residual is 5.000e-09, within its tolerance 1.000e-08\n")
    assert not out.exists()
    # the exact twin fails the block condition: canonicalize decides it exactly and exits 1
    twin = write_json(tmp_path / "near.exact.json", {**_NEAR, "mode": "exact", "blocks": {
        "1,2": [["1", "5/1000000000"]], "2,3": [["0"], ["1"]]}})
    assert main(["canonicalize", twin, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "not equigeodesic: input is not equigeodesic: blocks "
                                       "(1, 2, 3) have residual 5.000e-09\n")
    assert not out.exists()


def _exact_marginal(parts):
    """The exact twin of the marginal documents: a_12 = diag(1, 3/10^9) and a_13 = e_2."""
    pad = parts[0] - 2
    return {"parts": parts, "mode": "exact", "blocks": {
        "1,2": [["1", "0"], ["0", "3/1000000000"]] + [["0", "0"]] * pad,
        "1,3": [["0"], ["1"]] + [["0"]] * pad,
    }}


@pytest.mark.parametrize("parts", [[3, 2, 1], [2, 2, 1]])
def test_canonicalize_decides_the_block_condition_of_an_exact_document_exactly(tmp_path, capsys,
                                                                                parts):
    path = write_json(tmp_path / "marginal.exact.json", _exact_marginal(parts))
    assert main(["check", path, "--mode", "exact"]) == 1
    out = capsys.readouterr().out
    assert out.count("violating triple (2, 1, 3)") == out.count("violating probe (1, 2)") == 1
    out = tmp_path / "canon.json"
    assert main(["canonicalize", path, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "not equigeodesic: input is not equigeodesic: blocks "
                                       "(2, 1, 3) have residual 3.000e-09\n")
    assert not out.exists()


@st.composite
def sparse_exact_documents(draw):
    """Exact documents of three or four blocks, each block there or not, with entries 0, +-k/q
    or +-k/q +- (k'/q')i for k, k' <= 3 and q, q' = 1 or 10^9: chains, equigeodesic vectors, and
    products that the float block condition passes at its tolerance although they are not zero."""
    parts = draw(st.lists(st.integers(1, 3), min_size=3, max_size=4))
    p = FlagPartition(tuple(parts))
    part = st.builds("{}{}/{}".format, st.sampled_from("+-"), st.integers(1, 3),
                     st.sampled_from([1, 10**9]))
    entry = st.just("0") | part | st.builds("{}{}i".format, part, part)
    blocks = {}
    for i, j in p.positive_pairs():
        if draw(st.booleans()):
            rows, cols = p.parts[i - 1], p.parts[j - 1]
            blocks[f"{i},{j}"] = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                               min_size=rows, max_size=rows))
    return {"parts": parts, "mode": "exact", "blocks": blocks}


@settings(max_examples=150, deadline=None)
@given(sparse_exact_documents())
@example(_exact_marginal([2, 2, 1]))
def test_canonicalize_exits_1_exactly_where_exact_check_does(tmp_path_factory, doc):
    path = write_json(tmp_path_factory.getbasetemp() / "drawn.exact.json", doc)
    check = main(["check", path, "--mode", "exact"])
    canonical = main(["canonicalize", path, "--out", os.devnull])
    assert (canonical == 1) == (check == 1), (check, canonical)


def test_exact_canonicalize_scans_the_blocks_once(monkeypatch, tmp_path, capsys):
    import flagdesic.equigeo as equigeo
    import flagdesic.flag as flag

    calls = []
    scan = flag._equigeodesic_scan

    def counting(x, tol):
        calls.append(x.mode.value)
        return scan(x, tol)

    for module in (flag, equigeo):  # equigeo holds the name too, so every caller is counted
        monkeypatch.setattr(module, "_equigeodesic_scan", counting)
    path = write_json(tmp_path / "f9e.json", fixture_document("f9-333", "exact"))
    assert main(["canonicalize", path, "--out", os.devnull]) == 0
    assert calls == ["exact"]


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_check_forms_the_block_products_once(monkeypatch, tmp_path, capsys, mode):
    import flagdesic.equigeo as equigeo
    import flagdesic.flag as flag

    calls = []
    scan = flag._equigeodesic_scan

    def counting(x, tol):
        calls.append(x.mode.value)
        return scan(x, tol)

    for module in (flag, equigeo):  # both routes read one walk of the product tables
        monkeypatch.setattr(module, "_equigeodesic_scan", counting)
    path = write_json(tmp_path / "f9.json", fixture_document("f9-333", mode))
    assert main(["check", path, "--mode", mode]) == 0
    assert calls == [mode]


def test_closedness_computes_the_spectrum_once(monkeypatch, tmp_path, capsys):
    import flagdesic.closure as closure

    calls = []
    solve = closure.matrix_spectral_data

    def counting(a):
        calls.append(a)
        return solve(a)

    monkeypatch.setattr(closure, "matrix_spectral_data", counting)
    path = write_json(tmp_path / "f4e.json", fixture_document("f4-x2y3", "exact"))
    assert main(["closedness", path, "--mode", "exact"]) == 0
    assert len(calls) == 1


def test_closedness_commensurate(f4, capsys):
    assert main(["closedness", f4]) == 0
    out = capsys.readouterr().out
    assert "status: commensurate" in out
    assert "period: 6.28318530718" in out
    assert "multipliers: 3 2 -2 -3" in out


def test_closedness_of_single_root_plane_vector(tmp_path, capsys):
    path = write_json(tmp_path / "u12.json", fixture_document("f3-u12"))
    assert main(["closedness", path]) == 0
    assert "status: commensurate" in capsys.readouterr().out


def test_check_exact_with_huge_denominators(tmp_path, capsys):
    # D is about 1e90: the scaled products' squared norms pass the float range
    dens = [10**30, 3**63, 7**36]
    cells = [[[f"{q + 1}/{q}"]] for q in dens]
    doc = {"parts": [1, 1, 1], "mode": "exact", "blocks": dict(zip(["1,2", "2,3", "1,3"], cells))}
    path = write_json(tmp_path / "big.json", doc)
    assert main(["check", path, "--mode", "exact"]) == 1
    exact_out = capsys.readouterr().out
    assert main(["check", path]) == 1
    assert exact_out == capsys.readouterr().out
    assert "violating triple (1, 2, 3)" in exact_out and "violating probe (1, 2)" in exact_out


def test_closedness_exact_mode(tmp_path, capsys):
    path = write_json(tmp_path / "f4e.json", fixture_document("f4-x2y3", "exact"))
    assert main(["closedness", path, "--mode", "exact"]) == 0
    assert "commensurate" in capsys.readouterr().out


def test_closedness_exact_requires_exact_document(f4, capsys):
    assert main(["closedness", f4, "--mode", "exact"]) == 2
    assert "exact" in capsys.readouterr().err


def test_closedness_incommensurate(tmp_path, capsys):
    doc = {
        "parts": [2, 2],
        "mode": "exact",
        "blocks": {"1,2": [["1", "0"], ["0", "1+1i"]]},
    }
    path = write_json(tmp_path / "sqrt2.json", doc)
    assert main(["closedness", path]) == 1
    out = capsys.readouterr().out
    assert "incommensurate-within-bound" in out
    assert main(["closedness", path, "--mode", "exact"]) == 1


def test_closedness_undetermined(tmp_path, capsys):
    rho = 0.5 + 1e-8
    doc = {
        "parts": [2, 2],
        "mode": "float",
        "blocks": {"1,2": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [rho, 0.0]]]},
    }
    path = write_json(tmp_path / "near.json", doc)
    assert main(["closedness", path]) == 3
    out = capsys.readouterr().out
    assert "undetermined" in out
    assert "reason: continued-fraction" in out


def test_closedness_exact_unavailable_advises_float(tmp_path, capsys):
    # sigma^2 = (3 +- sqrt 5) / 2: an irrational theta^2 proves the spectrum incommensurate
    doc = {
        "parts": [2, 2],
        "mode": "exact",
        "blocks": {"1,2": [["1", "1"], ["0", "1"]]},
    }
    path = write_json(tmp_path / "irr.json", doc)
    assert main(["closedness", path, "--mode", "exact"]) == 1
    assert capsys.readouterr() == (
        "spectrum (i * theta): 1.61803398875  0.61803398875  -0.61803398875  -1.61803398875\n"
        "status: incommensurate\n", "")


def _exact_pair(entry):
    return {"parts": [1, 1], "mode": "exact", "blocks": {"1,2": [[entry]]}}


EXACT_CHAIN = {"parts": [1, 1, 1, 1], "mode": "exact",
               "blocks": {"1,2": [["1"]], "2,3": [["1"]], "3,4": [["1"]]}}


def _closed_chain(entry):
    """EXACT_CHAIN with a_14 = ``entry``: a cycle whose theta^2 are irrational."""
    return {**EXACT_CHAIN, "blocks": {**EXACT_CHAIN["blocks"], "1,4": [[entry]]}}


#: an error line naming the float range, where a decided verdict's floats would leave it
SPECTRUM_PAST_RANGE = ("error: the spectrum lies outside the float range: "
                       "some theta rounds to 0 or inf\n")
PERIOD_PAST_RANGE = "error: the period lies outside the float range: it exceeds 1.8e+308\n"


@pytest.mark.parametrize("doc, code, expected", [
    # theta^2 = 9e22 lies past 2^53, where the float square misses the integer
    (_exact_pair("300000000000"), 0,
     ("spectrum (i * theta): 300000000000  -300000000000\nstatus: commensurate\n"
      "base frequency: 300000000000\nperiod: 2.09439510239e-11\nmultipliers: 1 -1\n", "")),
    # theta^2 = 2^1200 lies past the float range; theta = 2^600 is a float
    (_exact_pair(str(2**600)), 0,
     ("spectrum (i * theta): 4.14951556888e+180  -4.14951556888e+180\nstatus: commensurate\n"
      "base frequency: 4.14951556888e+180\nperiod: 1.51419730879e-180\nmultipliers: 1 -1\n", "")),
    # theta^2 = 10^320 lies past the float range, and the float theta is not 10^160
    (_exact_pair("1" + "0" * 160), 0,
     ("spectrum (i * theta): 1e+160  -1e+160\nstatus: commensurate\n"
      "base frequency: 1e+160\nperiod: 6.28318530718e-160\nmultipliers: 1 -1\n", "")),
    # theta^2 = (3 +- sqrt 5) / 2
    (EXACT_CHAIN, 1,
     ("spectrum (i * theta): 1.61803398875  0.61803398875  -0.61803398875  -1.61803398875\n"
      "status: incommensurate\n", "")),
    # theta^2 = 10^-600 underflows, theta = 10^-300 does not: what float mode prints
    (_exact_pair("1/1" + "0" * 300), 0,
     ("spectrum (i * theta): 1e-300  -1e-300\nstatus: commensurate\n"
      "base frequency: 1e-300\nperiod: 6.28318530718e+300\nmultipliers: 1 -1\n", "")),
    # theta = 10^-320 is a float, its period 2 pi 10^320 is not
    (_exact_pair("1/1" + "0" * 320), 2, ("", PERIOD_PAST_RANGE)),
    # theta = {1, 1 + 10^-400}: the base frequency 1 / (10^400 + 1) underflows
    ({"parts": [1, 1, 1, 1], "mode": "exact",
      "blocks": {"1,2": [["1"]], "3,4": [[f"{10**400 + 1}/{10**400}"]]}},
     2, ("", PERIOD_PAST_RANGE)),
    # an entry of 10^-400, which no float holds, beside a_12 = 1: theta = +-sqrt(1 + 10^-800), 0
    ({"parts": [1, 1, 1], "mode": "exact", "blocks": {"1,2": [["1"]], "1,3": [[f"1/{10**400}"]]}},
     0, ("spectrum (i * theta): 1  0  -1\nstatus: commensurate\n"
         "base frequency: 1\nperiod: 6.28318530718\nmultipliers: 1 0 -1\n", "")),
    # singular values {1, 10^-400}: theta = 10^-400 is no float
    ({"parts": [2, 2], "mode": "exact",
      "blocks": {"1,2": [[f"1/{10**200}", f"{10**400 - 1}/{10**400}"], ["0", f"1/{10**200}"]]}},
     2, ("", SPECTRUM_PAST_RANGE)),
    # the chain closed by an entry no float holds: theta^2 is irrational, and the float spectrum
    # is solved on a copy of a * 2^-e, where 10^-400 rounds to 0 beside the largest entry 1
    (_closed_chain(f"1/{10**400}"), 1,
     ("spectrum (i * theta): 1.61803398875  0.61803398875  -0.61803398875  -1.61803398875\n"
      "status: incommensurate\n", "")),
    # closed by 10^400: the float spectrum, scaled back by 2^e, passes the float range
    (_closed_chain(str(10**400)), 2, ("", SPECTRUM_PAST_RANGE)),
    # the open chain of three entries 10^-400: every theta, scaled back, rounds to 0
    ({**EXACT_CHAIN, "blocks": {key: [[f"1/{10**400}"]] for key in EXACT_CHAIN["blocks"]}}, 2,
     ("", SPECTRUM_PAST_RANGE)),
], ids=["3e11", "2^600", "1e160", "chain", "1e-300", "1e-320", "1+1e-400", "entry-1e-400",
         "1e-400", "chain-1e-400", "chain-1e400", "chain-of-1e-400"])
def test_exact_closedness_beyond_float_squares(tmp_path, capsys, doc, code, expected):
    assert main(["closedness", write_json(tmp_path / "v.json", doc), "--mode", "exact"]) == code
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("n", [13, 20])
def test_exact_closedness_past_the_float_range_by_its_norm_solves_nothing(monkeypatch, tmp_path,
                                                                           capsys, n):
    # every entry 10^4200: sum theta^2 = ||A||_F^2 >= n 2^2048, so the largest theta rounds to inf,
    # before a characteristic polynomial that takes seconds (n = 13) or is out of reach (n = 20)
    import flagdesic.gaussian as gaussian

    calls = []
    solve = gaussian.exact_char_poly
    monkeypatch.setattr(gaussian, "exact_char_poly", lambda a: calls.append(a) or solve(a))
    entry = [["1" + "0" * 4200]]
    doc = {"parts": [1] * n, "mode": "exact",
           "blocks": {f"{i},{j}": entry for i, j in FlagPartition((1,) * n).positive_pairs()}}
    assert main(["closedness", write_json(tmp_path / "v.json", doc), "--mode", "exact"]) == 2
    assert capsys.readouterr() == ("", SPECTRUM_PAST_RANGE)
    assert calls == []


def _run_warning_free(args, timeout=60):
    """The CLI in a process of its own, with every RuntimeWarning an error."""
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "flagdesic.cli", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_infinite_period_is_undetermined_without_a_warning(tmp_path):
    vec = write_json(tmp_path / "v.json", {"parts": [1, 1], "blocks": {"1,2": [[[1e-320, 0]]]}})
    done = _run_warning_free(["closedness", vec])
    assert (done.returncode, done.stderr) == (3, "")
    assert done.stdout == ("spectrum (i * theta): 9.99988867183e-321  -9.99988867183e-321\n"
                           "status: undetermined\ndenominator bound: 1000000\n"
                           "reason: exp-confirmation, exp(T A) defect nan\n")


#: theta = 1e+308: h + h^* overflows unless the spectrum is solved on a scaled copy
NEAR_MAX = {"parts": [1, 1], "blocks": {"1,2": [[[1e308, 0]]]}}
#: theta = sqrt(2) * 1.5e+308, past the float range
PAST_MAX = {"parts": [1, 2], "blocks": {"1,2": [[[1.5e308, 0], [1.5e308, 0]]]}}
PAST_RANGE = "error: the spectrum lies outside the float range: some |theta| exceeds 1.8e+308\n"
#: theta = 2e+308: one singular value, sqrt(4) * 1e+308, past the float range
PAST_MAX_4 = {"parts": [1, 4], "blocks": {"1,2": [[[1e308, 0]] * 4]}}
EQUIGEODESIC = ("equigeodesic (block-condition): true  worst residual 0.000e+00\n"
                "equigeodesic (bracket-certificate): true  worst residual 0.000e+00\n")


def _canonical_stdout(a):
    """What canonicalize prints for parts (1, 1) and a_12 = a > 0: U = 1 and J = A."""
    doc = {"J": {"n": 2, "parts": [1, 1], "mode": "float", "blocks": {"1,2": [[[a, 0.0]]]}},
           "U": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
           "pairs": [[1, 2, a]], "residual": 0.0}
    return (f"pairs (row, col, value):\n  (1, 2)  {a:.12g}\nresidual 0.000e+00\n"
            + json.dumps(doc, indent=2) + "\n")


@pytest.mark.parametrize("doc, args, code, out, err", [
    (NEAR_MAX, ["closedness"], 0, "spectrum (i * theta): 1e+308  -1e+308\nstatus: commensurate\n"
     "base frequency: 1e+308\nperiod: 6.28318530718e-308\nmultipliers: 1 -1\n", ""),
    (NEAR_MAX, ["curve", "--t-max", "6.283185307179586", "--samples", "8"], 2, "",
     "error: the phase t * theta at --t-max lies outside the float range\n"),
    # the modulus of 1.5e+308 + 1.5e+308i overflows; its parts do not
    ({"parts": [1, 1], "blocks": {"1,2": [[[1.5e308, 1.5e308]]]}}, ["check"], 0, EQUIGEODESIC, ""),
    (PAST_MAX, ["closedness"], 2, "", PAST_RANGE),
    (PAST_MAX, ["curve", "--t-max", "1", "--samples", "2"], 2, "", PAST_RANGE),
    ({"parts": [1, 1], "blocks": {"1,2": [[[1, 0]]]}}, ["canonicalize"], 0, _canonical_stdout(1.0),
     ""),
    # U and J are computed on a scaled copy, so U is that of a_12 = 1 and J holds 1e+308 itself
    (NEAR_MAX, ["canonicalize"], 0, _canonical_stdout(1e308), ""),
    (PAST_MAX, ["canonicalize"], 2, "", PAST_RANGE),
    (PAST_MAX_4, ["canonicalize"], 2, "", PAST_RANGE),
    (PAST_MAX_4, ["closedness"], 2, "", PAST_RANGE),
    (PAST_MAX_4, ["curve", "--t-max", "0", "--samples", "1"], 2, "", PAST_RANGE),
    (_exact_pair("1" + "0" * 308), ["closedness", "--mode", "exact"], 0,
     "spectrum (i * theta): 1e+308  -1e+308\nstatus: commensurate\n"
     "base frequency: 1e+308\nperiod: 6.28318530718e-308\nmultipliers: 1 -1\n", ""),
], ids=["closedness", "curve-phase", "check-modulus", "closedness-past", "curve-past",
        "canonicalize-one", "canonicalize", "canonicalize-past", "canonicalize-past-4",
        "closedness-past-4", "curve-past-4", "exact-closedness"])
def test_spectra_near_the_float_maximum(tmp_path, doc, args, code, out, err):
    vec = write_json(tmp_path / "v.json", doc)
    done = _run_warning_free([args[0], vec, *args[1:]])
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


#: every entry of the three blocks of parts (2, 2, 2) is 1
ALL_ONES = {"parts": [2, 2, 2], "blocks": {key: [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]
                                           for key in ("1,2", "1,3", "2,3")}}


@pytest.mark.parametrize("factor", [1.0, 2.0**-1000], ids=["near-max", "scaled-down"])
def test_fixed_metric_residual_near_the_float_maximum(tmp_path, factor):
    # lambda.X is scaled like X, so [X, lambda.X] cannot overflow and the residual is scale-free
    lam = {"1,2": 1.7e308 * factor, "1,3": 1e308 * factor, "2,3": 1e300 * factor}
    vec = write_json(tmp_path / "v.json", ALL_ONES)
    metric = write_json(tmp_path / "g.json", {"parts": [2, 2, 2], "lambda": lam})
    done = _run_warning_free(["check", vec, metric])
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "geodesic (fixed metric): false  residual 2.902e-01\n", "")


@pytest.mark.parametrize("deep_file", ["vector", "metric"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, deep_file):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)  # json.dumps cannot nest this deep
    if deep_file == "vector":
        argv = ["check", str(deep)]
    else:
        argv = ["check", write_json(tmp_path / "v.json", ONE_BLOCK), str(deep)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {deep}: JSON nested too deeply to read\n")


def test_curve_near_the_float_maximum_is_finite(tmp_path):
    done = _run_warning_free(["curve", write_json(tmp_path / "v.json", NEAR_MAX),
                              "--t-max", "1", "--samples", "4"])
    assert (done.returncode, done.stderr) == (0, "")
    rows = list(csv.reader(io.StringIO(done.stdout)))[1:]
    assert len(rows) == 5 and all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("entry", ["1e10000000", "1e-5", "1e5", "2E3i"])
def test_exact_entries_with_an_exponent_are_refused(tmp_path, entry):
    vec = write_json(tmp_path / "v.json", _exact_pair(entry))
    done = _run_warning_free(["check", vec, "--mode", "exact"], timeout=20)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"error: block '1,2': cannot parse Gaussian rational {entry!r}: each "
                           "part must be an integer, p/q or a decimal, without an exponent\n")


ONE_BLOCK = {"parts": [1, 1], "blocks": {"1,2": [[[1.0, 0.0]]]}}


@pytest.mark.parametrize("argv, docs, message", [
    (["closedness", "{0}"], [{"parts": [1, 1]}], "the zero vector has no period (constant curve)"),
    (["curve", "{0}", "--t-max", "1", "--samples", "0"], [ONE_BLOCK], "--samples must be at least 1"),
    (["curve", "{0}", "--t-max", "0", "--samples", "-5"], [ONE_BLOCK], "--samples must be at least 1"),
    (["examples"], [], "give a fixture name or --list"),
    (["closedness", "{0}", "--bound", "0"], [ONE_BLOCK], "denominator bound must be a positive integer"),
    (["check", "{0}"], [{"parts": [1, 1], "blocks": {"1,2": [[[10**400, 0]]]}}],
     f"block '1,2': value {10**400} is beyond the float range"),
    (["check", "{0}"], [{"parts": [1, 1], "blocks": {"1,2": [[[1, 0]]], "1, 2": [[[1, 0]]]}}],
     "block (1,2) supplied twice"),
    (["check", "{0}"], [{"parts": [1, 1], "blocks": {"2,1": [[[1, 0]]], "2, 1": [[[1, 0]]]}}],
     "block (2,1) supplied twice"),
    (["check", "{0}", "{1}"], [ONE_BLOCK, [1]], "metric document must be a JSON object"),
    (["check", "{0}", "{1}"], [ONE_BLOCK, {}], 'metric document is missing "parts"'),
    (["check", "{0}", "{1}"], [ONE_BLOCK, {"parts": [1, 1], "lambda": [2]}],
     '"lambda" must be an object keyed by "i,j"'),
    (["check", "{0}", "{1}"], [ONE_BLOCK, {"parts": [1, 1], "lambda": {"1,2": 2, "2,1": 3}}],
     "lambda for pair (1, 2) supplied twice with different values"),
    (["check", "{0}"], [{"parts": [1, 1], "mode": "exact", "blocks": {"1,2": [["1+2i"]], "2,1": [["1"]]}}],
     "blocks (1, 2) and (2, 1) disagree by 2.828e+00; supply one half or make them consistent"),
    (["check", "{0}", "{1}"], [ONE_BLOCK, {"parts": [1, 1], "lambda": {"1;2": 2}}],
     'lambda key \'1;2\' is not of the form "i,j"'),
    (["check", "{0}", "{1}"], [ONE_BLOCK, {"parts": [1, 1], "lambda": {"1,1": 2}}],
     "lambda key '1,1' addresses a diagonal block; diagonal blocks are zero in m"),
    (["check", "{0}", "{1}"], [ONE_BLOCK, {"parts": [1, 1], "lambda": {"1,3": 2}}],
     "lambda key '1,3' out of range 1..2"),
    (["check", "{0}"], [{"parts": [1, 1, 1], "block": {"1,2": [[[1, 0]]], "2,3": [[[1, 0]]]}}],
     "unknown key 'block' in vector document; allowed keys: n, parts, mode, blocks"),
    (["check", "{0}", "{1}"], [ONE_BLOCK, {"parts": [1, 1], "lamda": {"1,2": 2}}],
     "unknown key 'lamda' in metric document; allowed keys: parts, lambda"),
], ids=["zero-vector", "samples-0", "samples-negative-at-t-max-0", "examples-no-name", "bound-0",
        "int-beyond-float", "upper-twice", "lower-twice", "metric-not-object", "metric-no-parts",
        "lambda-not-object", "lambda-disagrees", "exact-halves-disagree", "lambda-key-malformed",
        "lambda-key-diagonal", "lambda-key-out-of-range", "vector-unknown-key",
        "metric-unknown-key"])
def test_usage_and_document_errors_exit_2_with_their_message(tmp_path, capsys, argv, docs, message):
    paths = [write_json(tmp_path / f"doc{k}.json", doc) for k, doc in enumerate(docs)]
    assert main([a.format(*paths) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("texts, name", [
    (['{"parts":[1,1],"blocks":{"1,2":[[[1,0]]],"1,2":[[[5,0]]]}}'], "1,2"),
    (['{"parts":[1,1],"parts":[1,1],"blocks":{"1,2":[[[1,0]]]}}'], "parts"),
    ([json.dumps(ONE_BLOCK), '{"parts":[1,1],"lambda":{"1,2":2,"1,2":3}}'], "1,2"),
], ids=["block", "top-level", "metric"])
def test_a_repeated_json_name_exits_2(tmp_path, capsys, texts, name):
    """json would keep the last of two equal names; the document is refused instead."""
    paths = [tmp_path / f"doc{k}.json" for k in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_text(text)
    assert main(["check", *map(str, paths)]) == 2
    assert capsys.readouterr() == ("", f'error: {paths[-1]}: key "{name}" appears twice\n')


def test_exact_lower_half_gives_the_upper_half_vector(tmp_path, capsys):
    upper = {"1,2": [["1+2i"], ["1/2"]]}
    lower = {"2,1": [["-1+2i", "-1/2"]]}  # a_21 = -a_12^*
    outputs = []
    for blocks in (upper, lower, {**upper, **lower}):
        doc = {"parts": [2, 1], "mode": "exact", "blocks": blocks}
        x = parse_vector_document(doc)
        assert np.array_equal(x.matrix.data, parse_vector_document({**doc, "blocks": upper}).matrix.data)
        path = write_json(tmp_path / "v.json", doc)
        codes = [main(["check", path, "--mode", "exact"]), main(["closedness", path, "--mode", "exact"])]
        outputs.append((codes, capsys.readouterr()))
    assert outputs[0][0] == [0, 0] and outputs[0][1].err == ""
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_curve_csv_shape_and_periodicity(tmp_path, f4):
    out_path = tmp_path / "curve.csv"
    period = 2 * math.pi
    assert (
        main(
            [
                "curve",
                f4,
                "--t-max",
                str(period),
                "--samples",
                "8",
                "--out",
                str(out_path),
            ]
        )
        == 0
    )
    rows = list(csv.reader(out_path.read_text().splitlines()))
    header, data = rows[0], rows[1:]
    assert header[0] == "t" and header[-1] == "dist_k"
    assert len(data) == 9
    first = [float(v) for v in data[0][1:]]
    last = [float(v) for v in data[-1][1:]]
    assert max(abs(a - b) for a, b in zip(first, last)) <= 1e-8


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_curve_decomposes_once_and_closedness_never(tmp_path, f9, monkeypatch, capsys):
    calls = _count_eigh(monkeypatch)
    out = str(tmp_path / "c.csv")
    assert main(["curve", f9, "--t-max", "6.283185307179586", "--samples", "50", "--out", out]) == 0
    assert len(calls) == 1
    assert main(["closedness", f9]) == 0
    assert len(calls) == 1


def test_option_defaults_are_the_library_defaults():
    # both readers, the plain one and argparse, take --tol and --bound from the constants the
    # library functions default to
    from flagdesic.closure import DEFAULT_BOUND
    from flagdesic.equigeo import DEFAULT_EQUI_TOL

    for read in (cli._read_plain, cli._build_parser().parse_args):
        check, closedness = read(["check", "v.json"]), read(["closedness", "v.json"])
        assert check.tol is DEFAULT_EQUI_TOL and closedness.bound is DEFAULT_BOUND


@pytest.mark.parametrize("t_max", ["nan", "inf", "-inf", "-1"])
def test_curve_rejects_invalid_t_max(tmp_path, f4, t_max, capsys):
    out_path = tmp_path / "c.csv"
    assert main(["curve", f4, f"--t-max={t_max}", "--out", str(out_path)]) == 2
    assert capsys.readouterr() == ("", "error: --t-max must be finite and nonnegative\n")
    assert not out_path.exists()


def test_curve_t_max_zero_single_identity_row(tmp_path, f4, capsys):
    assert main(["curve", f4, "--t-max", "0"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2
    assert [float(v) for v in rows[1]] == [0.0] * len(rows[0])  # exp(0) = I


@pytest.mark.parametrize("a12", [1.0, 1e-200, 1e-320])
def test_curve_starts_at_the_base_point_and_follows_a_small_rotation(tmp_path, capsys, a12):
    # exp(t A) is sin(t a12) at (1, 2) and -sin(t a12) at (2, 1), so dist_k = sqrt(2) sin(t a12):
    # 0 at t = 0 exactly, and each value to its own rounding, below 1e-308 too
    vec = write_json(tmp_path / "v.json", {"parts": [1, 1], "blocks": {"1,2": [[[a12, 0.0]]]}})
    assert main(["curve", vec, "--t-max", "1", "--samples", "4"]) == 0
    rows = [[float(v) for v in row] for row in csv.reader(capsys.readouterr().out.splitlines()[1:])]
    assert rows[0] == [0.0] * 6
    for t, re12, im12, re21, im21, dist in rows[1:]:
        s = math.sin(t * a12)
        assert abs(re12 - s) <= 1e-14 * s + 2.0**-1074 and re21 == -re12
        assert abs(im12) <= 1e-15 * s and im21 == -im12
        assert abs(dist - math.sqrt(2.0) * s) <= 1e-14 * s + 2.0**-1073


@pytest.mark.parametrize("options, rows", [
    (["--t-max", "1", "--samples", "4"], 5),
    (["--t-max", "0"], 1),
], ids=["samples", "t-max-0"])
def test_curve_on_one_block_has_no_off_block_columns(tmp_path, capsys, options, rows):
    vec = write_json(tmp_path / "v.json", {"parts": [2], "blocks": {}})
    assert main(["curve", vec, *options]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,dist_k" and len(lines) == rows + 1
    assert [line.split(",")[1] for line in lines[1:]] == ["0"] * rows


def test_examples_list_and_emit(tmp_path, capsys):
    assert main(["examples", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert names == ["f3-u12", "f4-x2y3", "f9-333", "fn-211"]
    assert main(["examples", "f4-x2y3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parts"] == [1, 1, 1, 1]
    assert main(["examples", "f3-u12", "--mode", "exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "exact"


def test_examples_unknown_name(capsys):
    assert main(["examples", "who"]) == 2
    assert "available" in capsys.readouterr().err


def test_examples_compose_with_check(tmp_path, capsys):
    for name, expected in [("f3-u12", 0), ("fn-211", 0), ("f9-333", 0), ("f4-x2y3", 0)]:
        path = tmp_path / f"{name}.json"
        assert main(["examples", name, "--out", str(path)]) == 0
        assert main(["check", str(path)]) == expected
    capsys.readouterr()


#: every composition of n <= 6, and (3, 3, 3)
ROOT_PARTITIONS = [tuple(np.diff((0, *cuts, n)).tolist()) for n in range(1, 7) for k in range(n)
                   for cuts in itertools.combinations(range(1, n), k)] + [(3, 3, 3)]


@pytest.mark.parametrize("parts", [
    pytest.param(parts, id="-".join(map(str, parts))) for parts in ROOT_PARTITIONS])
def test_roots_reports(capsys, parts):
    counts = tuple(map(len, build_roots(FlagPartition(parts))))
    assert main(["roots", *map(str, parts)]) == 0
    out = capsys.readouterr().out
    pairs = list(itertools.combinations(range(1, len(parts) + 1), 2))
    assert f"positive K-roots: {counts[0]}\npositive M-roots: {counts[1]}\n" in out
    assert f"isotropy modules s(s-1)/2: {len(pairs)}\n" in out
    assert "positive T-roots: " + " ".join(f"({i},{j})" for i, j in pairs) + "\n" in out
    assert f"dim m: {sum(parts) ** 2 - sum(ni * ni for ni in parts)}\n" in out


def test_roots_invalid_partition(capsys):
    assert main(["roots", "0"]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


# ---------------------------------------------------------------------------
# help and usage texts
# ---------------------------------------------------------------------------

HELP_ARGVS = [[], ["--help"], ["nosuch"], ["--mode", "exact"]] + [
    argv for name in cli._COMMANDS for argv in ([name, "--help"], [name, "--bogus"], [name, "3", "--bogus"])
]


def _outcome(run):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run()
    return code, out.getvalue(), err.getvalue()


def _parse_exit(parser, argv):
    try:
        parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    raise AssertionError(f"{argv} parsed without exiting")


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_and_usage_texts_match_the_parser_of_every_command(argv):
    # none of these is a plain command line, so main's texts and codes are argparse's own
    expected = _outcome(lambda: _parse_exit(cli._build_parser(), argv))
    assert _outcome(lambda: main(argv)) == expected


#: Tokens a command line is drawn from: file names, options, their spellings argparse alone
#: reads (help, ``--``, an abbreviation, ``--opt=value``), values that convert or do not.
ARGV_TOKENS = st.sampled_from([
    "v.json", "m.json", "f9-333", "3", "0", "--mode", "exact", "float", "bogus", "--tol", "-1",
    "nan", "1e3", "--out", "--list", "--t-max", "--samples", "--bound", "-h", "--help", "--",
    "--mo", "--mode=exact", "", "-",
])

#: Values of positionals and options: some convert, some do not, some start with ``-``.
ARGV_VALUES = st.sampled_from(["v.json", "exact", "float", "bogus", "3", "0", "-1", "nan", "1e3", ""])


@st.composite
def command_lines(draw):
    """A command line built from a command's own table, then 0 to 2 tokens of the alphabet
    inserted anywhere after the name: well-formed ones often, malformed ones of every kind."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    argv, pairs = [name], []
    for names, kwargs in cli._COMMANDS[name][2]:
        if not names[0].startswith("-"):
            low, high = {"?": (0, 1), "+": (1, 3)}.get(kwargs.get("nargs"), (1, 1))
            argv += draw(st.lists(ARGV_VALUES, min_size=low, max_size=high))
        elif kwargs.get("required") or draw(st.booleans()):
            pairs.append([names[0]] if "action" in kwargs else [names[0], draw(ARGV_VALUES)])
    argv += itertools.chain.from_iterable(draw(st.permutations(pairs)))
    for token in draw(st.lists(ARGV_TOKENS, max_size=2)):
        argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


def _comparable(namespace):
    return {k: "nan" if isinstance(v, float) and math.isnan(v) else v
            for k, v in vars(namespace).items()}


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_a_command_line_the_plain_reader_accepts_parses_alike_in_argparse(argv):
    plain = cli._read_plain(argv)
    if plain is not None:
        assert _comparable(plain) == _comparable(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["check", "v.json", "m.json", "--mode", "exact", "--tol", "1e-6"],
    ["curve", "v.json", "--t-max", "1", "--samples", "4", "--out", "c.csv"],
    ["closedness", "v.json", "--bound", "12"],
    ["examples", "--list"],
    ["examples", "f9-333", "--mode", "exact", "--out", "f9.json"],
    ["roots", "3", "3", "3"],
    ["canonicalize", "v.json"],
], ids=" ".join)
def test_the_plain_reader_reads_well_formed_command_lines(argv):
    plain = cli._read_plain(argv)
    assert plain is not None
    assert vars(plain) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["check", "v.json", "--mode=exact"], ["check", "v.json", "--mo", "exact"],
    ["check", "v.json", "--help"], ["check", "--", "v.json"], ["check", "--mode", "exact", "v.json"],
    ["check", "v.json", "--tol", "1", "--tol", "2"], ["check", "v.json", "--tol", "-1"],
    ["check", "v.json", "--mode", "bogus"], ["roots", "3", "x"], ["roots", "-1"], ["curve", "v.json"],
    ["check"], ["check", "a", "b", "c"], ["nosuch"], [],
], ids=" ".join)
def test_the_plain_reader_leaves_every_other_command_line_to_argparse(argv):
    assert cli._read_plain(argv) is None


# ---------------------------------------------------------------------------
# malformed documents: a documented exit code, never a traceback
# ---------------------------------------------------------------------------

#: Values that no field of a vector document accepts, at any depth.
NOT_A_FIELD_VALUE = st.sampled_from([None, True, False, "x", [], {"x": 1}])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

COMMANDS = st.sampled_from([
    ["check"], ["check", "--mode", "exact"], ["closedness"], ["closedness", "--mode", "exact"],
    ["canonicalize"], ["curve", "--t-max", "1", "--samples", "2"],
])

FIXTURE_DOCS = st.builds(fixture_document, st.sampled_from(fixture_names()),
                         st.sampled_from(["float", "exact"]))


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _draw_path(data, doc, min_depth=0):
    """A path into ``doc``, its depth drawn first so that deep leaves are drawn as often as keys."""
    paths = [p for p in _paths(doc) if len(p) >= min_depth]
    depth = data.draw(st.sampled_from(sorted({len(p) for p in paths})))
    return data.draw(st.sampled_from([p for p in paths if len(p) == depth]))


def _edit(doc, path, value=None, delete=False):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run_on_text(tmp_path_factory, command, text):
    work = tmp_path_factory.getbasetemp()
    (work / "mutated.json").write_text(text)
    argv = [command[0], str(work / "mutated.json"), *command[1:]]
    if command[0] in ("canonicalize", "curve"):
        argv += ["--out", str(work / "mutated.out")]
    return _outcome(lambda: main(argv))


@settings(deadline=None)
@given(FIXTURE_DOCS, COMMANDS, st.data())
def test_mutated_documents_exit_with_a_documented_code(tmp_path_factory, doc, command, data):
    path = _draw_path(data, doc, min_depth=1)
    if data.draw(st.booleans()):
        doc = _edit(doc, path, delete=True)
    else:
        doc = _edit(doc, path, data.draw(JSON_VALUES))
    code, _, err = _run_on_text(tmp_path_factory, command, json.dumps(doc))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert (code == 2) == err.startswith("error: ")


def _assert_exit_2(tmp_path_factory, command, text):
    code, out, err = _run_on_text(tmp_path_factory, command, text)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@settings(max_examples=300, deadline=None)
@given(FIXTURE_DOCS, COMMANDS, NOT_A_FIELD_VALUE, st.data())
def test_wrong_typed_values_exit_2(tmp_path_factory, doc, command, value, data):
    _assert_exit_2(tmp_path_factory, command, json.dumps(_edit(doc, _draw_path(data, doc), value)))


@settings(deadline=None)
@given(FIXTURE_DOCS, COMMANDS, st.data())
def test_missing_or_bad_parts_and_truncated_json_exit_2(tmp_path_factory, doc, command, data):
    kind = data.draw(st.sampled_from(["missing parts", "bad parts", "truncated"]))
    if kind == "missing parts":
        doc = _edit(doc, ("parts",), delete=True)
    elif kind == "bad parts":
        bad = st.integers(-2, 0) | st.floats() | NOT_A_FIELD_VALUE  # parts are positive ints
        parts = data.draw(st.lists(st.integers(1, 3)))
        parts.insert(data.draw(st.integers(0, len(parts))), data.draw(bad))
        doc = _edit(doc, ("parts",), parts)
    text = json.dumps(doc)
    if kind == "truncated":
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    _assert_exit_2(tmp_path_factory, command, text)
