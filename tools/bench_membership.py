"""Cost of deciding whether a matrix lies in m, on two checkouts of flagdesic, one JSON report.

Three sections, each run side by side on the two checkouts, alternating which side goes first:

* ``layer``: the ``TangentVector`` constructor on a parsed vector's matrix, and
  ``parse_vector_document`` on its already decoded JSON, best of ``REPEAT`` each, in a fresh
  process per side and input, ``PAIRS`` times. The inputs are the benchmark generator's equigeodesic vectors at
  n = 64 to 512 (``perfbench/workloads``, read only, ``default_rng(0)``).
* ``traced``: ``perfbench/run.py --trace 1`` on both workloads for seeds 1-3, keeping the
  per-request calls and self time of ``linalg.require_skew_hermitian`` and the self time of
  ``flag``.
* ``end_to_end``: ``E2E_PAIRS`` pairs of ``perfbench/run.py --trace 0`` runs of the
  benchmark's own length on both workloads, the pair's number its seed: every end-to-end
  metric ``BENCHMARK.json`` names, each run listed, with each side's median and quartiles.

Give it two checkouts of the commits to compare; it prints the report, progress to stderr:

    python3 tools/bench_membership.py PARENT_ROOT CHANGE_ROOT > BENCH_membership.json

``main`` takes the ``layer`` script, its inputs and the ``traced`` counters, so another topic
runs the same protocol with its own (``tools/bench_skew_test.py``, ``tools/bench_block_products.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

#: (label, partition): both modes, n = 64 to 512.
INPUTS = (
    ("exact (32)^8, n=256", (32,) * 8),
    ("exact full flag n=64", (1,) * 64),
    ("float (32)^16, n=512", (32,) * 16),
    ("float full flag n=256", (1,) * 256),
)

PAIRS, REPEAT, TRACE_SECONDS, E2E_PAIRS = 3, 7, 5, 10

#: Per-request counters kept from each ``--trace 1`` run.
TRACED = ("linalg.require_skew_hermitian.calls", "linalg.require_skew_hermitian.self_s", "flag.self_s")

#: Run in each checkout's own interpreter: prints {"constructor_ms", "parse_ms"}, best of k.
CHILD = """
import json, sys, time
from flagdesic.documents import parse_vector_document
from flagdesic.flag import TangentVector

with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)
x = parse_vector_document(doc)

def best(fn):
    times = []
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1e3, 3)

print(json.dumps({"constructor_ms": best(lambda: TangentVector(x.partition, x.matrix)),
                  "parse_ms": best(lambda: parse_vector_document(doc))}))
"""


def _sides(pair: int, roots: dict):
    """The two (side, root) entries, the parent first on even pairs."""
    order = list(roots.items())
    return order if pair % 2 == 0 else order[::-1]


def _run(root: Path, argv: list) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(argv, cwd=root, env=env, check=True, capture_output=True, text=True).stdout


def _bench_metrics(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = _run(root, [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                      str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    result = json.loads(out.strip().splitlines()[-1])
    if not (result["correct"] is True and result["failed"] == 0):
        raise RuntimeError(f"{root}: {workload} seed {seed} gave a wrong or failed response")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _summary(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def cases(rng):
    """(label, document) of each ``layer`` input, drawn from ``rng``."""
    for label, parts in INPUTS:
        n = sum(parts)
        case = (workloads.exact_atoms_case(rng, parts, n // 2 - 1) if label.startswith("exact")
                else workloads.float_atoms_case(rng, parts, n // 2 - 1, haar=max(parts) > 1))
        yield label, case.doc


def main(argv=None, child: str = CHILD, doc: str = __doc__, inputs=cases, traced=TRACED) -> int:
    """Run the three sections on the two checkouts named in ``argv`` and print the report, with
    ``child`` as the ``layer`` script, run on each JSON document of ``inputs(rng)``, ``traced``
    as the counters kept, and ``doc`` as the description."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {"hardware": f"{os.cpu_count()} CPUs, Python {sys.version.split()[0]}, "
                          f"numpy {np.__version__}", "layer": [], "traced": [], "end_to_end": []}

    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as work:
        for label, data in inputs(rng):
            path = Path(work) / "doc.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            row = {"input": label, "parent": [], "change": []}
            for pair in range(PAIRS):
                for side, root in _sides(pair, roots):
                    out = _run(root, [sys.executable, "-c", child, str(path), str(REPEAT)])
                    row[side].append(json.loads(out))
            row["best_ms"] = {side: {name: min(run[name] for run in row[side]) for name in row[side][0]}
                              for side in roots}
            report["layer"].append(row)
            print(json.dumps(row), file=sys.stderr)

    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            row = {"workload": workload, "seed": seed}
            for side, root in _sides(seed - 1, roots):
                metrics = _bench_metrics(root, workload, seed, TRACE_SECONDS, 1)
                row[side] = {name: metrics[name] for name in traced}
            report["traced"].append(row)
            print(json.dumps(row), file=sys.stderr)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["end_to_end"]]
    for workload in workloads.WORKLOADS:
        runs = {"parent": [], "change": []}
        for pair in range(E2E_PAIRS):
            for side, root in _sides(pair, roots):
                metrics = _bench_metrics(root, workload, pair + 1, bench["run_seconds"], 0)
                runs[side].append({name: metrics[name] for name in names})
            print(workload, pair, file=sys.stderr)
        report["end_to_end"].append({
            "workload": workload, "runs": runs,
            "summary": {name: {side: _summary([r[name] for r in runs[side]]) for side in runs}
                        for name in names}})
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
