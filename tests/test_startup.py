"""Start-up guards: each command, in a fresh interpreter, loads only the modules it uses,
and the program entry freezes what it loaded while ``main`` leaves the collector alone."""

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

# ``python -m flagdesic.cli``: the package, then cli as __main__. numpy, argparse and json
# load first, so ``added`` holds only what flagdesic itself imports, whatever they import.
# The collector state is read after the command: on again, with the loaded modules frozen.
PROBE = """
import argparse, gc, json, runpy, sys
import numpy
before = set(sys.modules)
sys.argv, code = ["flagdesic", *sys.argv[1:]], None
try:
    runpy.run_module("flagdesic.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("flagdesic") or m == "csv")
added = sorted(set(sys.modules) - before)
print(json.dumps([code, loaded, added, gc.isenabled(), gc.get_freeze_count()]))
"""

BASE = ["flagdesic", "flagdesic.documents", "flagdesic.flag", "flagdesic.linalg"]


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
    ("check {vector}", ["flagdesic.equigeo"]),
    ("check {vector} {metric}", ["flagdesic.equigeo", "flagdesic.metric"]),
    ("canonicalize {vector} --out {out}", ["flagdesic.equigeo"]),
    ("closedness {vector}", ["flagdesic.closure"]),
    ("closedness {exact} --mode exact", ["flagdesic.closure", "flagdesic.gaussian"]),
    ("curve {vector} --t-max 1 --samples 4 --out {out}", []),
    ("check {exact} --mode exact", ["flagdesic.equigeo", "flagdesic.gaussian"]),
    ("canonicalize {exact} --out {out}", ["flagdesic.equigeo", "flagdesic.gaussian"]),
])
def test_command_loads_only_its_modules(files, argv, extra):
    code, loaded, added, enabled, frozen = run_fresh(PROBE, *argv.format(**files).split())
    assert code == 0
    assert enabled and frozen > 0
    assert loaded == sorted(BASE + extra)
    assert "dataclasses" not in added  # no record class is generated at import
    if "flagdesic.gaussian" not in extra:  # a float request loads no exact scalar code
        assert not {"fractions", "decimal"} & set(added)


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
