"""End-to-end CLI tests: exit codes, reports, file outputs."""

import csv
import json
import math

import numpy as np
import pytest

from flagdesic.cli import main
from flagdesic.documents import fixture_document, fixture_names


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def f9(tmp_path):
    return write_json(tmp_path / "f9.json", fixture_document("f9-333"))


@pytest.fixture
def f4(tmp_path):
    return write_json(tmp_path / "f4.json", fixture_document("f4-x2y3"))


@pytest.fixture
def f3_chain(tmp_path):
    doc = {
        "parts": [1, 1, 1],
        "mode": "float",
        "blocks": {"1,2": [[[1.0, 0.0]]], "2,3": [[[1.0, 0.0]]]},
    }
    return write_json(tmp_path / "chain.json", doc)


def test_check_equigeodesic_fixture(f9, capsys):
    assert main(["check", f9]) == 0
    out = capsys.readouterr().out
    assert "block-condition" in out and "bracket-certificate" in out
    assert out.count("true") == 2


def test_check_negative_with_triple(f3_chain, capsys):
    assert main(["check", f3_chain]) == 1
    out = capsys.readouterr().out
    assert "false" in out
    assert "(1, 2, 3)" in out


def test_check_diagonal_block_error(tmp_path, capsys):
    doc = {"parts": [1, 1, 1], "mode": "float", "blocks": {"3,3": [[[1.0, 0.0]]]}}
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["check", path]) == 2
    assert "diagonal" in capsys.readouterr().err


def test_check_with_metric(tmp_path, f3_chain, capsys):
    normal = write_json(tmp_path / "gn.json", {"parts": [1, 1, 1], "lambda": {}})
    assert main(["check", f3_chain, normal]) == 0
    skewed = write_json(
        tmp_path / "gs.json", {"parts": [1, 1, 1], "lambda": {"2,3": 2.0}}
    )
    assert main(["check", f3_chain, skewed]) == 1
    out = capsys.readouterr().out
    assert "geodesic" in out


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/thing.json"]) == 2


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

    monkeypatch.setattr("flagdesic.cli.canonicalize", refuse)
    assert main(["canonicalize", f9]) == 3
    assert "undetermined" in capsys.readouterr().err


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
    assert "violating triple (1, 2, 3)" in exact_out


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
    doc = {
        "parts": [2, 2],
        "mode": "exact",
        "blocks": {"1,2": [["1", "1"], ["0", "1"]]},
    }
    path = write_json(tmp_path / "irr.json", doc)
    assert main(["closedness", path, "--mode", "exact"]) == 2
    err = capsys.readouterr().err
    assert "irrational eigenvalue" in err
    assert err.count("--mode float") == 1 and "Float mode" not in err


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


def test_curve_t_max_zero_single_identity_row(tmp_path, f4, capsys):
    assert main(["curve", f4, "--t-max", "0"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2
    assert float(rows[1][-1]) <= 1e-12


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


def test_roots_reports(capsys):
    assert main(["roots", "1", "1", "1"]) == 0
    out = capsys.readouterr().out
    assert "positive T-roots: (1,2) (1,3) (2,3)" in out
    assert "dim m: 6" in out
    assert main(["roots", "3", "3", "3"]) == 0
    out = capsys.readouterr().out
    assert "isotropy modules s(s-1)/2: 3" in out
    assert main(["roots", "2", "1", "1"]) == 0
    out = capsys.readouterr().out
    assert "isotropy modules s(s-1)/2: 3" in out


def test_roots_invalid_partition(capsys):
    assert main(["roots", "0"]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
