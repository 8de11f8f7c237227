"""Cost of the exact kernels, which run on the integer pair [x, y] of an Exact matrix, on two checkouts.

The protocol of ``tools/bench_membership.py`` (alternating sides; the ``layer``, ``traced``
and ``end_to_end`` sections), with its own ``layer`` script and inputs: per vector, best of
``REPEAT`` each, in ms, ``parse_vector_document`` on its decoded JSON, the ``TangentVector``
constructor on its matrix and ``equigeodesic_verdicts`` (both routes, as ``flagdesic check``
forms them), and on a closedness request ``is_killing_closed``, averaged per request. The
inputs, drawn in this order from ``default_rng(0)``: exact (8)^16 with 16 chains, exact (32)^8
with 127 pairs, the dense float full flag with n = 256 of ``tools/bench_block_products.py``,
then the dense exact full flag with n = 64 that CI builds, and the ``check`` and ``closedness``
requests of seed 1 of exact-rational. The ``traced`` section keeps the self time of the parse
and of the ``flag``, ``linalg`` and ``equigeo`` layers, and that of ``is_killing_closed``, per
request:

    python3 tools/bench_exact_pairs.py PARENT_ROOT CHANGE_ROOT > BENCH_exact_pairs.json
"""

from __future__ import annotations

import sys

import bench_membership
from bench_block_products import dense_full_flag
from bench_membership import workloads

#: Run in each checkout's own interpreter: reads {"check": [...], "closedness": [...]} of vector
#: documents and prints the mean over them of each kernel's best of k, in ms.
CHILD = """
import json, sys, time
from flagdesic.closure import is_killing_closed
from flagdesic.documents import parse_vector_document
from flagdesic.equigeo import equigeodesic_verdicts
from flagdesic.flag import TangentVector

with open(sys.argv[1], encoding="utf-8") as fh:
    docs = json.load(fh)

def mean_best(fn, args):
    total = 0.0
    for arg in args:
        times = []
        for _ in range(int(sys.argv[2])):
            start = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - start)
        total += min(times)
    return round(total / len(args) * 1e3, 4)

xs = [parse_vector_document(doc) for doc in docs["check"]]
out = {"parse_ms": mean_best(parse_vector_document, docs["check"]),
       "tangent_vector_ms": mean_best(lambda x: TangentVector(x.partition, x.matrix), xs),
       "verdicts_ms": mean_best(equigeodesic_verdicts, xs)}
if docs["closedness"]:
    out["is_killing_closed_ms"] = mean_best(is_killing_closed, [parse_vector_document(doc)
                                                                for doc in docs["closedness"]])
print(json.dumps(out))
"""

TRACED = ("documents.parse_vector_document.self_s", "flag.self_s", "linalg.self_s", "equigeo.self_s",
          "closure.is_killing_closed.self_s")


def dense_exact_full_flag(n: int) -> dict:
    """CI's exact full flag of size n: entry (i, j) is (i + j) % 3 - 1, plus i where i * j is odd."""
    return {"parts": [1] * n, "mode": "exact",
            "blocks": {f"{i},{j}": [[f"{(i + j) % 3 - 1}" + "+i" * (i * j % 2)]]
                       for i in range(1, n + 1) for j in range(i + 1, n + 1)}}


def cases(rng):
    """(label, {"check": documents, "closedness": documents}) of each ``layer`` input."""
    def only(doc):
        return {"check": [doc], "closedness": []}

    yield "exact (8)^16, 16 chains", only(workloads.exact_atoms_case(rng, (8,) * 16, 40, n_chains=16).doc)
    yield "exact (32)^8, 127 pairs", only(workloads.exact_atoms_case(rng, (32,) * 8, 127).doc)
    yield "dense float full flag n=256", only(dense_full_flag(rng, 256))
    yield "dense exact full flag n=64", only(dense_exact_full_flag(64))
    requests = workloads.build_requests("exact-rational", 1, 8 * workloads.cycle_length("exact-rational"))
    yield "exact-rational seed 1 requests, per request", {
        command: [req.case.doc for req in requests if req.command == command and req.mode == "exact"]
        for command in ("check", "closedness")}


if __name__ == "__main__":
    sys.exit(bench_membership.main(child=CHILD, doc=__doc__, inputs=cases, traced=TRACED))
