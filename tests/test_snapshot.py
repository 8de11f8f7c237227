"""The CLI's output on the 1,009 fixed calls of ``tools/snapshot.py``, against the digests
committed in ``snapshot_digests.jsonl``: one sha256 per call of its argv, exit code, stdout,
stderr and ``--out`` file.

Float output may differ in its last digits between numpy and BLAS builds, while exact output
is integer arithmetic, read out by correctly rounded divisions. So every call's argv and exit
code, and the whole output of every exact ``check`` and ``closedness`` call, are compared on
every Python; the other calls' output only under the Python minor version and numpy version
the file names in its header. A change that means to change some output regenerates the file
(``python tools/snapshot.py --digests tests/snapshot_digests.jsonl``), and its diff names the
calls whose output changed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("snapshot_digests.jsonl")


def _load_tool():
    spec = importlib.util.spec_from_file_location("snapshot_tool", ROOT / "tools" / "snapshot.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """(recorded versions, recorded digests, this run's versions and digests), in call order."""
    header, *recorded = map(json.loads, DIGESTS.read_text().splitlines())
    tool = _load_tool()
    fresh = [tool.digest(line) for line in tool.records(tmp_path_factory.mktemp("snapshot"))]
    return header, recorded, tool.versions(), fresh


def _is_exact_decision(argv) -> bool:
    return argv[0] in ("check", "closedness") and argv[-2:] == ["--mode", "exact"]


def _differing(recorded, fresh, keys, calls=lambda argv: True):
    """The argv of each compared call whose fields ``keys`` differ, one JSON line each."""
    return "\n".join(json.dumps(r["argv"]) for r, f in zip(recorded, fresh)
                     if calls(r["argv"]) and any(r[k] != f[k] for k in keys))


def test_every_call_keeps_its_argv_and_exit_code(digests):
    _, recorded, _, fresh = digests
    assert len(fresh) == len(recorded)
    bad = _differing(recorded, fresh, ("argv", "code"))
    assert not bad, f"argv or exit code differs from {DIGESTS.name} on:\n{bad}"


def test_every_exact_check_and_closedness_keeps_its_output(digests):
    _, recorded, _, fresh = digests
    assert any(_is_exact_decision(r["argv"]) for r in recorded)
    bad = _differing(recorded, fresh, ("argv", "sha256"), _is_exact_decision)
    assert not bad, f"output differs from {DIGESTS.name} on:\n{bad}"


def test_every_other_call_keeps_its_output_under_the_recorded_versions(digests):
    header, recorded, here, fresh = digests
    minor = [v.rsplit(".", 1)[0] for v in (header["python"], here["python"])]
    if minor[0] != minor[1] or header["numpy"] != here["numpy"]:
        pytest.skip(f"float output recorded under Python {header['python']} and numpy "
                    f"{header['numpy']}, run under Python {here['python']} and numpy "
                    f"{here['numpy']}: only argv, exit codes and exact decisions are compared")
    bad = _differing(recorded, fresh, ("argv", "sha256"), lambda argv: not _is_exact_decision(argv))
    assert not bad, f"output differs from {DIGESTS.name} on:\n{bad}"
