"""Wall time of a fresh ``flagdesic check`` process, on two checkouts of flagdesic.

The protocol of ``tools/bench_membership.py`` (alternating sides; the ``layer``, ``traced``
and ``end_to_end`` sections), with its own ``layer`` script and inputs: the ``check``
requests of seed 1 of each workload (``perfbench/workloads``, read only), each run as
``python -m flagdesic.cli check ...`` in a fresh process ``REPEAT`` times, start-up and
exit included. Per request it keeps the best and the median of those runs; the ``layer`` row
gives their means over the requests, in ms. The ``traced`` section keeps the self time and
calls per request of the ``flag`` and ``equigeo`` layers, to show which layer a ``check``
charges the equigeodesic walk to:

    python3 tools/bench_check_startup.py PARENT_ROOT CHANGE_ROOT > BENCH_check_startup.json
"""

from __future__ import annotations

import sys

import bench_membership
from bench_membership import workloads

#: Run in each checkout's own interpreter, with its ``src`` on PYTHONPATH: reads a list of
#: requests {"argv", "vector", "metric"}, writes their documents, times each ``check`` process
#: k times, and prints the means over the requests of each one's best and median, in ms.
CHILD = """
import json, statistics, subprocess, sys, tempfile, time
from pathlib import Path

with open(sys.argv[1], encoding="utf-8") as fh:
    requests = json.load(fh)

best, median = [], []
with tempfile.TemporaryDirectory() as work:
    for req in requests:
        files = {"out": str(Path(work) / "out")}
        for name in ("vector", "metric"):
            if req[name] is not None:
                files[name] = str(Path(work) / f"{name}.json")
                Path(files[name]).write_text(json.dumps(req[name]), encoding="utf-8")
        argv = [sys.executable, "-m", "flagdesic.cli", *(a.format(**files) for a in req["argv"])]
        times = []
        for _ in range(int(sys.argv[2])):
            start = time.perf_counter()
            done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            times.append(time.perf_counter() - start)
            if done.returncode not in (0, 1):
                sys.exit(f"{argv}: exit {done.returncode}: {done.stderr.decode()}")
        best.append(min(times))
        median.append(statistics.median(times))

print(json.dumps({"check_best_ms": round(statistics.fmean(best) * 1e3, 3),
                  "check_median_ms": round(statistics.fmean(median) * 1e3, 3)}))
"""

TRACED = ("flag.self_s", "flag.calls", "equigeo.self_s", "equigeo.calls")


def cases(rng):
    """(label, list of ``check`` requests) of each ``layer`` input; ``rng`` is unused, as
    each workload draws its requests from its own seed."""
    for workload in workloads.WORKLOADS:
        requests = workloads.build_requests(workload, 1, 8 * workloads.cycle_length(workload))
        yield (f"{workload} seed 1 check requests, per request",
               [{"argv": req.argv("{vector}", "{metric}", "{out}"), "vector": req.case.doc,
                 "metric": req.case.metric if req.with_metric else None}
                for req in requests if req.command == "check"])


if __name__ == "__main__":
    sys.exit(bench_membership.main(child=CHILD, doc=__doc__, inputs=cases, traced=TRACED))
