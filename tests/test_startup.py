"""Start-up and exit guards: each command, in a fresh interpreter, loads only the modules it
uses, and the program entry freezes what it loaded while ``main`` leaves the collector alone.
The entry ends the process with ``os._exit`` after flushing; what it prints, writes and
exits with is what ``main`` gives in-process."""

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagdesic
from flagdesic.examples import fixture_document

# ``python -m flagdesic.cli``: the package, then cli as __main__. numpy and json load first,
# so ``added`` holds only what flagdesic itself imports, whatever they import.
# The entry's os._exit is swapped for a SystemExit, so the state can be read after the
# command: the collector on again, with the loaded modules frozen, and no thread left that
# os._exit would cut off.
PROBE = """
import gc, json, os, runpy, sys, threading
import numpy
before = set(sys.modules)
sys.argv, code = ["flagdesic", *sys.argv[1:]], None
def leave(status):
    raise SystemExit(status)
os._exit = leave
try:
    runpy.run_module("flagdesic.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("flagdesic") or m == "csv")
added = sorted(set(sys.modules) - before)
print(json.dumps([code, loaded, added, gc.isenabled(), gc.get_freeze_count(),
                  threading.active_count()]))
"""

BASE = ["flagdesic", "flagdesic.documents", "flagdesic.flag", "flagdesic.linalg"]

#: What argparse loads; only help and usage errors need it.
PARSER_MODULES = {"argparse", "gettext", "locale"}


def run_fresh(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(flagdesic.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    paths = {"out": str(tmp / "out")}
    for name, doc in [("vector", fixture_document("f9-333")),
                      ("exact", fixture_document("f9-333", "exact")),
                      ("metric", {"parts": [3, 3, 3], "lambda": {"1,2": 2.0}})]:
        paths[name] = str(tmp / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize("argv, extra", [
    ("examples --list", ["flagdesic.examples"]),
    ("roots 3 3 3", ["flagdesic.roots"]),
    ("check {vector}", []),
    ("check {vector} {metric}", ["flagdesic.equigeo", "flagdesic.metric"]),
    ("canonicalize {vector} --out {out}", ["flagdesic.equigeo"]),
    ("closedness {vector}", ["flagdesic.closure"]),
    ("closedness {exact} --mode exact", ["flagdesic.closure", "flagdesic.gaussian"]),
    ("curve {vector} --t-max 1 --samples 4 --out {out}", []),
    ("check {exact} --mode exact", []),
    ("canonicalize {exact} --out {out}", ["flagdesic.equigeo"]),
    ("curve {exact} --t-max 1 --samples 4 --out {out}", []),
])
def test_command_loads_only_its_modules(files, argv, extra):
    code, loaded, added, enabled, frozen, threads = run_fresh(PROBE, *argv.format(**files).split())
    assert code == 0
    assert threads == 1
    assert enabled and frozen > 0
    assert loaded == sorted(BASE + extra)
    assert "dataclasses" not in added  # no record class is generated at import
    assert not PARSER_MODULES & set(added)  # a well-formed command line needs no argparse
    # exact documents are read straight to integers: only the exact spectrum needs Fractions
    if "closedness {exact}" not in argv:
        assert "flagdesic.gaussian" not in loaded
        assert not {"fractions", "decimal"} & set(added)


@pytest.mark.parametrize("argv, expected", [
    ("check {vector} --help", 0),
    ("check {vector} --bogus", 2),
])
def test_help_and_usage_errors_load_argparse(files, argv, expected):
    code, loaded, added, *_ = run_fresh(PROBE, *argv.format(**files).split())
    assert code == expected
    assert {"argparse", "gettext"} <= set(added)
    assert loaded == sorted(BASE)  # argparse prints and exits before the handler runs


def test_return_distance_gates_without_loading_equigeo():
    # the block condition it runs first lives in flag, beside the block layout it reads
    code = """if True:
        import json, sys
        from flagdesic.closure import geodesic_return_distance
        from flagdesic.flag import FlagPartition, TangentVector
        x = TangentVector.from_blocks(FlagPartition((1, 1, 1)), {(1, 2): [[1.0]]})
        assert geodesic_return_distance(x, [0.0, 1.0])[0] == 0.0
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("flagdesic"))))
    """
    assert run_fresh(code) == ["flagdesic", "flagdesic.closure", "flagdesic.flag",
                               "flagdesic.linalg"]


def test_import_flagdesic_loads_no_submodule():
    code = "import json, sys, flagdesic; print(json.dumps(sorted(m for m in sys.modules if m.startswith('flagdesic'))))"
    assert run_fresh(code) == ["flagdesic"]


def test_every_public_name_resolves():
    listed = dir(flagdesic)
    for name in flagdesic.__all__:
        scope = {}
        exec(f"from flagdesic import {name}", scope)
        home = importlib.import_module(f"flagdesic.{flagdesic._MODULE_OF[name]}")
        assert scope[name] is getattr(home, name)
        assert name in listed
    assert len(flagdesic.__all__) == sum(map(len, flagdesic._EXPORTS.values()))  # no name twice


def test_the_verdict_names_are_one_object_wherever_they_are_read():
    import flagdesic.equigeo as equigeo
    import flagdesic.flag as flag

    for name in ("equigeodesic_verdicts", "EquigeodesicVerdict"):
        assert getattr(flagdesic, name) is getattr(flag, name) is getattr(equigeo, name)


def test_unknown_attribute_raises():
    import flagdesic.cli as cli

    with pytest.raises(AttributeError, match="no_such_name"):
        flagdesic.no_such_name
    with pytest.raises(ImportError):
        exec("from flagdesic import no_such_name", {})
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


@pytest.mark.parametrize("argv", [["roots", "3", "3", "3"], ["check", "{vector}"]])
def test_main_leaves_the_collector_as_it_finds_it(files, argv, capsys):
    from flagdesic.cli import main

    before = gc.isenabled(), gc.get_freeze_count()
    assert main([a.format(**files) for a in argv]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_console_script_is_run_and_prints_what_main_prints(capsys):
    from flagdesic.cli import main

    pyproject = Path(flagdesic.__file__).parents[2] / "pyproject.toml"
    assert 'flagdesic = "flagdesic.cli:run"' in pyproject.read_text()
    assert main(["examples", "--list"]) == 0
    expected = capsys.readouterr().out
    # what the console-script wrapper does: import cli, then call run()
    code = "import sys; from flagdesic.cli import run; sys.argv[1:] = ['examples', '--list']; run()"
    env = dict(os.environ, PYTHONPATH=str(Path(flagdesic.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def cli_process(argv, stdout=subprocess.PIPE, shell_redirect="", buffered=False):
    """``python -m flagdesic.cli argv`` in a fresh process: (exit code, stdout, stderr).

    ``buffered`` drops PYTHONUNBUFFERED from the environment, so short output reaches stdout
    only at the entry's last flush; ``sh`` applies ``shell_redirect`` to the process.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(flagdesic.__file__).parents[1]))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    args = [sys.executable, "-m", "flagdesic.cli", *argv]
    if shell_redirect:
        args = ["sh", "-c", f'exec "$@" {shell_redirect}', "sh", *args]
    done = subprocess.run(args, env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60)
    out = done.stdout.decode() if done.stdout is not None else None
    return done.returncode, out, done.stderr.decode()


def in_process(argv, capsys):
    from flagdesic.cli import main

    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# exit 3: a_12 = diag(1, 3e-9) beside a_13 = e_2 passes the block condition, but the singular
# vector of 3e-9 kept at the rank cut does not fit block 1 (as in test_cli)
MARGINAL = {"parts": [2, 2, 1], "blocks": {"1,2": [[[1, 0], [0, 0]], [[0, 0], [3e-9, 0]]],
                                           "1,3": [[[0, 0]], [[1, 0]]]}}
CHAIN = {"parts": [1, 1, 1], "blocks": {"1,2": [[[1, 0]]], "2,3": [[[1, 0]]]}}


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("argv, expected", [
    ("examples --list", 0),
    ("check {chain}", 1),
    ("check {missing}", 2),
    ("canonicalize {marginal}", 3),
])
def test_exit_code_and_output_come_through_the_entry(tmp_path, capsys, argv, expected, buffered):
    paths = {"missing": str(tmp_path / "missing.json")}
    for name, doc in [("chain", CHAIN), ("marginal", MARGINAL)]:
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    argv = argv.format(**paths).split()
    reference = in_process(argv, capsys)
    assert reference[0] == expected
    assert cli_process(argv, buffered=buffered) == reference


@pytest.mark.parametrize("buffered", [False, True])
def test_long_output_through_a_pipe_and_an_out_file_are_complete(files, tmp_path, capsys,
                                                                 buffered):
    argv = ["curve", files["vector"], "--t-max", "6.283185307179586", "--samples", "2000"]
    code, out, err = in_process(argv, capsys)
    assert code == 0 and len(out.encode()) > 64 * 1024  # more than a pipe holds at once
    assert cli_process(argv, buffered=buffered) == (0, out, "")
    target = tmp_path / "curve.csv"
    assert cli_process(argv + ["--out", str(target)], buffered=buffered) == (0, "", "")
    assert target.read_text() == out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("argv", [["examples", "--list"], ["examples", "f9-333"]])
def test_a_full_stdout_exits_2_with_one_error_line(argv, buffered):
    with open("/dev/full", "wb") as full:
        code, _, err = cli_process(argv, stdout=full, buffered=buffered)
    assert (code, err) == (2, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("argv", [["examples", "--list"], ["examples", "f9-333"]])
def test_a_closed_stdout_exits_0_quietly(argv, buffered):
    assert cli_process(argv, stdout=None, shell_redirect=">&-", buffered=buffered) == (0, None, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("argv, redirect", [
    (["examples", "nosuch"], "2>/dev/full"),  # main's own error line
    (["examples", "--list"], ">/dev/full 2>/dev/full"),  # the entry's stdout-flush error line
])
def test_an_error_line_stderr_cannot_take_keeps_exit_2(argv, redirect, buffered):
    assert cli_process(argv, shell_redirect=redirect, buffered=buffered) == (2, "", "")
