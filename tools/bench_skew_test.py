"""Cost of the skew-Hermitian test and the kernels that run it, on two checkouts of flagdesic.

The protocol of ``tools/bench_membership.py`` (alternating sides; the ``layer``, ``traced``
and ``end_to_end`` sections), with its own ``layer`` script: on a parsed vector's matrix A,
best of ``REPEAT`` each, ``require_skew_hermitian(A)``, ``TangentVector(p, A)`` and, in Float
mode, ``skew_spectrum(A)`` and ``killing_flow(A)``, on the same four inputs (exact (32)^8 and
full flag n = 64, float (32)^16 and full flag n = 256, ``default_rng(0)``). The ``traced``
section keeps the calls and self time of ``linalg.require_skew_hermitian`` and the self time
of ``flag`` per request:

    python3 tools/bench_skew_test.py PARENT_ROOT CHANGE_ROOT > BENCH_skew_test.json
"""

from __future__ import annotations

import sys

import bench_membership

#: Run in each checkout's own interpreter: prints the best of k of each kernel, in ms.
CHILD = """
import json, sys, time
from flagdesic.documents import parse_vector_document
from flagdesic.flag import TangentVector
from flagdesic.linalg import Mode, killing_flow, require_skew_hermitian, skew_spectrum

with open(sys.argv[1], encoding="utf-8") as fh:
    x = parse_vector_document(json.load(fh))
a = x.matrix

def best(fn):
    times = []
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1e3, 3)

kernels = {"require_skew_hermitian_ms": lambda: require_skew_hermitian(a),
           "tangent_vector_ms": lambda: TangentVector(x.partition, a)}
if x.mode is Mode.FLOAT:
    kernels.update(skew_spectrum_ms=lambda: skew_spectrum(a), killing_flow_ms=lambda: killing_flow(a))
print(json.dumps({name: best(fn) for name, fn in kernels.items()}))
"""

if __name__ == "__main__":
    sys.exit(bench_membership.main(child=CHILD, doc=__doc__))
