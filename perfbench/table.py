"""Per-layer baseline table: best-of-k seconds per stage for each input class.

Run from the root of a checkout:

    python3 perfbench/table.py [--repeat 3]

Prints a markdown table with one row per input class and one column per
stage: document parse (JSON and validation), block condition, bracket
certificate, canonical form, spectrum, and closedness (including the
exp(T A) confirmation). Inputs are equigeodesic vectors from the benchmark's
own generator; the exact rows use moduli with denominators 1 and 2, so their
spectra are rational with small denominators. A stage that raises shows the
exception's name instead of a time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import workloads

#: (label, partition) per row; the label says which scalar mode the row uses.
ROWS = (
    ("float (3,3,3), n=9", (3, 3, 3)),
    ("float (16)^8, n=128", (16,) * 8),
    ("float full flag n=24", (1,) * 24),
    ("float full flag n=64", (1,) * 64),
    ("exact (6,6,6), n=18", (6, 6, 6)),
    ("exact full flag n=12", (1,) * 12),
)

STAGES = ("parse", "block cond.", "certificate", "canonicalize", "spectrum", "closedness")


def _case(label: str, parts, rng):
    n = sum(parts)
    if label.startswith("exact"):
        return workloads.exact_atoms_case(rng, parts, n // 2 - 1, denominators=(1, 2))
    return workloads.float_atoms_case(rng, parts, n // 2 - 1, haar=max(parts) > 1)


def _best(fn, repeat: int) -> str:
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # a stage the library cannot do on this input
            return type(exc).__name__
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return f"{best * 1e3:.1f} ms" if best < 1.0 else f"{best:.2f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="best of this many timings")
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "flagdesic").is_dir():
        print("error: no src/flagdesic here; run from the root of a flagdesic checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from flagdesic import (
        canonicalize, equigeodesic_certificate, is_equigeodesic, is_killing_closed,
        spectral_data,
    )
    from flagdesic.documents import parse_vector_document

    rng = np.random.default_rng(0)
    print("| input | " + " | ".join(STAGES) + " |")
    print("|---" * (len(STAGES) + 1) + "|")
    for label, parts in ROWS:
        case = _case(label, parts, rng)
        text = json.dumps(case.doc)
        x = parse_vector_document(json.loads(text))
        stages = {
            "parse": lambda: parse_vector_document(json.loads(text)),
            "block cond.": lambda: is_equigeodesic(x),
            "certificate": lambda: equigeodesic_certificate(x),
            "canonicalize": None if case.exact else (lambda: canonicalize(x)),
            "spectrum": lambda: spectral_data(x),
            "closedness": lambda: is_killing_closed(x),
        }
        cells = ["—" if fn is None else _best(fn, args.repeat) for fn in stages.values()]
        print(f"| {label} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
