"""Cost of the two equigeodesic routes, which read one walk of the block products, on two checkouts.

The protocol of ``tools/bench_membership.py`` (alternating sides; the ``layer``, ``traced``
and ``end_to_end`` sections), with its own ``layer`` script and inputs: the block condition
``is_equigeodesic``, the certificate ``equigeodesic_certificate``, and both verdicts the way
``flagdesic check`` forms them (``check_ms``: ``equigeodesic_verdicts``, or on a checkout
without it the two calls one after the other), on each parsed vector, best of ``REPEAT`` each,
in ms per vector. The inputs (``default_rng(0)``) are dense float full flags
with n = 256 and 128 (every upper entry from {-1, 0, 1} + {0, 1}i), the float full flag with
n = 128 and 63 pairs, exact (8)^16 with 16 chains, exact (32)^8 with 127 pairs, the float (2)^12
chain, and the ``check`` requests of seed 1 of each workload, timed one by one and averaged per
request. The ``traced`` section keeps both routes' calls and self times per request, and the
self time of the ``equigeo`` and ``flag`` layers:

    python3 tools/bench_block_products.py PARENT_ROOT CHANGE_ROOT > BENCH_block_products.json
"""

from __future__ import annotations

import sys

import bench_membership
from bench_membership import workloads

#: Run in each checkout's own interpreter: reads a list of vector documents and prints the
#: mean over them of each route's best of k, in ms.
CHILD = """
import json, sys, time
from flagdesic.documents import parse_vector_document
from flagdesic.equigeo import equigeodesic_certificate, is_equigeodesic

try:
    from flagdesic.equigeo import equigeodesic_verdicts as check
except ImportError:  # a checkout whose check calls the two routes one after the other
    def check(x):
        return is_equigeodesic(x), equigeodesic_certificate(x)

with open(sys.argv[1], encoding="utf-8") as fh:
    xs = [parse_vector_document(doc) for doc in json.load(fh)]

def best(fn, x):
    times = []
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        fn(x)
        times.append(time.perf_counter() - start)
    return min(times)

routes = {"block_condition_ms": is_equigeodesic, "certificate_ms": equigeodesic_certificate,
          "check_ms": check}
print(json.dumps({name: round(sum(best(fn, x) for x in xs) / len(xs) * 1e3, 4)
                  for name, fn in routes.items()}))
"""

TRACED = ("equigeo.is_equigeodesic.calls", "equigeo.is_equigeodesic.self_s",
          "equigeo.equigeodesic_certificate.calls", "equigeo.equigeodesic_certificate.self_s",
          "equigeo.self_s", "flag.self_s")


def dense_full_flag(rng, n: int) -> dict:
    """Float full flag of size n whose every upper entry is drawn from {-1, 0, 1} + {0, 1}i."""
    return {"parts": [1] * n, "blocks": {f"{i},{j}": [[[int(rng.integers(-1, 2)), int(rng.integers(0, 2))]]]
                                         for i in range(1, n + 1) for j in range(i + 1, n + 1)}}


def cases(rng):
    """(label, list of vector documents) of each ``layer`` input."""
    yield "dense float full flag n=256", [dense_full_flag(rng, 256)]
    yield "dense float full flag n=128", [dense_full_flag(rng, 128)]
    yield "float full flag n=128, 63 pairs", [workloads.float_atoms_case(rng, (1,) * 128, 63).doc]
    yield "exact (8)^16, 16 chains", [workloads.exact_atoms_case(rng, (8,) * 16, 40, n_chains=16).doc]
    yield "exact (32)^8, 127 pairs", [workloads.exact_atoms_case(rng, (32,) * 8, 127).doc]
    yield "float (2)^12 chain", [workloads.float_atoms_case(rng, (2,) * 12, 10, chain=True).doc]
    for workload in workloads.WORKLOADS:
        requests = workloads.build_requests(workload, 1, 8 * workloads.cycle_length(workload))
        yield (f"{workload} seed 1 check requests, per request",
               [req.case.doc for req in requests if req.command == "check"])


if __name__ == "__main__":
    sys.exit(bench_membership.main(child=CHILD, doc=__doc__, inputs=cases, traced=TRACED))
