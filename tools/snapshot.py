"""Snapshot of the CLI's output on a fixed set of calls, one JSON line per call.

The calls are the benchmark's requests of seeds 1-3, 160 per workload and seed
(``perfbench/workloads.build_requests``, 960 in all), and every built-in example in
both modes under ``examples``, ``check``, ``closedness``, ``canonicalize --out`` and
``curve --out``. Each runs in-process through ``flagdesic.cli.main``, and its line holds
the argv, the exit code, stdout, stderr and the ``--out`` file (null where none was
written). The work directory's path is written as ``<work>``, so the files of two commits
are byte-identical exactly when the CLI gives the same output on every call:

    PYTHONPATH=src python tools/snapshot.py snapshot.jsonl
    cmp snapshot.jsonl other-commit-snapshot.jsonl

With ``--digests`` it writes a header line naming the Python and numpy versions, then one
line per call: its argv, its exit code and the sha256 of its snapshot line. That is the
committed ``tests/snapshot_digests.jsonl``, which ``tests/test_snapshot.py`` compares with
the CLI's output on every test run; a change that means to change some output regenerates it:

    PYTHONPATH=src python tools/snapshot.py --digests tests/snapshot_digests.jsonl
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from flagdesic import cli  # noqa: E402
from flagdesic.examples import fixture_names  # noqa: E402

SEEDS = (1, 2, 3)
REQUESTS_PER_SEED = 160
TOKEN = "<work>"


def _calls(work: Path):
    """(argv, --out path or None) of every call, the documents written under ``work``."""
    for wl in workloads.WORKLOADS:
        for seed in SEEDS:
            where = work / f"{wl}-{seed}"
            where.mkdir()
            requests = workloads.build_requests(wl, seed, REQUESTS_PER_SEED)
            workloads.write_inputs(requests, where)
            for req in requests:
                out = where / f"out-{req.index:04d}.{'csv' if req.command == 'curve' else 'json'}"
                yield req.argv(req.files["vector"], req.files.get("metric"), str(out)), out
    yield ["examples", "--list"], None
    for name in fixture_names():
        for mode in ("float", "exact"):
            doc = work / f"{name}.{mode}.json"
            yield ["examples", name, "--mode", mode], None
            yield ["examples", name, "--mode", mode, "--out", str(doc)], doc
            yield ["check", str(doc), "--mode", mode], None
            yield ["closedness", str(doc), "--mode", mode], None
            canonical = work / f"{name}.{mode}.canonical.json"
            yield ["canonicalize", str(doc), "--out", str(canonical)], canonical
            curve = work / f"{name}.{mode}.csv"
            yield ["curve", str(doc), "--t-max", "6.283185307179586", "--samples", "8",
                   "--out", str(curve)], curve


def records(work: Path):
    """The snapshot line of every call, each run in-process through ``cli.main`` under ``work``."""
    for args, out in _calls(work):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        record = {"argv": args, "code": code, "stdout": stdout.getvalue(),
                  "stderr": stderr.getvalue(),
                  "out": out.read_text() if out is not None and out.exists() else None}
        yield json.dumps(record).replace(str(work), TOKEN)


def digest(line: str) -> dict:
    """The argv and exit code of a snapshot line, and the sha256 of the whole line."""
    record = json.loads(line)
    return {"argv": record["argv"], "code": record["code"],
            "sha256": hashlib.sha256(line.encode()).hexdigest()}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    digests = argv[:1] == ["--digests"]
    if len(argv) != 1 + digests:
        print("usage: python tools/snapshot.py [--digests] OUTPUT", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        lines = list(records(Path(tmp)))
    if digests:
        lines = [json.dumps(d, separators=(",", ":")) for d in [versions(), *map(digest, lines)]]
    Path(argv[-1]).write_text("\n".join(lines) + "\n")
    print(f"{len(lines) - digests} calls written to {argv[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
