"""Span tracing of the flagdesic layers, installed from outside the library.

``Tracer.installed`` wraps every public module-level function of each layer
module and rebinds the wrapper in every ``flagdesic`` namespace that holds
the function, because ``cli`` and ``closure`` import functions by name; on
leaving the block it puts the originals back. A span records its function, its
parent span and its start and end; self time is computed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

#: Layer modules of flagdesic, in call order from the command line inwards.
LAYERS = ("cli", "documents", "flag", "metric", "linalg", "equigeo", "closure")

#: Functions reported one by one: those an optimisation of each layer would move.
#: Every other public function is wrapped too, so that its time is not charged
#: to its caller's layer.
REPORTED = {
    "cli": ("main",),
    "documents": ("parse_vector_document", "parse_metric_document", "serialize_vector"),
    "flag": ("off_block_positions", "off_block_norm"),
    "metric": ("hadamard_action", "basis_metric"),
    "linalg": (
        "require_skew_hermitian", "commutator", "project_m", "skew_spectrum",
        "unitary_exp", "exact_skew_squares", "exact_char_poly",
        "signed_thetas_from_squares",
    ),
    "equigeo": (
        "is_equigeodesic", "equigeodesic_certificate", "canonicalize",
        "is_geodesic_vector", "is_essentially_diagonal",
    ),
    "closure": ("spectral_data", "commensurability", "is_killing_closed"),
}

#: (function, command): calls of the function per request of that command.
PER_COMMAND = (("closure.spectral_data", "closedness"), ("linalg.unitary_exp", "curve"))


def per_layer_metrics() -> list:
    """(name, unit) of every metric a traced run reports, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s/req"), (f"{layer}.calls", "calls/req"),
                (f"{layer}.share", "ratio")]
        for fn in REPORTED[layer]:
            out += [(f"{layer}.{fn}.self_s", "s/req"), (f"{layer}.{fn}.calls", "calls/req")]
    out += [(f"{fn}.calls_per_{command}", "calls/req") for fn, command in PER_COMMAND]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's.

    ``spans`` holds (name, parent index or -1, start, end) tuples. Spans come
    from one thread's call stack, so children nest inside their parent and
    never overlap one another.
    """
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Span wrappers around the layer functions, with an in-memory span list."""

    def __init__(self):
        self.spans = []
        self._current = -1
        self._to_wrapper = {}  # id(original) -> wrapper
        self._to_original = {}  # id(wrapper) -> original
        for layer in LAYERS:
            module = importlib.import_module(f"flagdesic.{layer}")
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrapper = self._wrap(fn, f"{layer}.{name}")
                    self._to_wrapper[id(fn)] = wrapper
                    self._to_original[id(wrapper)] = fn

    def _wrap(self, fn, qualname):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            parent = self._current
            spans.append([qualname, parent, time.perf_counter(), 0.0])
            self._current = idx
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = time.perf_counter()
                self._current = parent

        return wrapper

    @staticmethod
    def _swap(table):
        for modname, module in list(sys.modules.items()):
            if modname == "flagdesic" or modname.startswith("flagdesic."):
                for name, value in list(vars(module).items()):
                    new = table.get(id(value))
                    if new is not None:
                        setattr(module, name, new)

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the duration of the block, originals after it."""
        self._swap(self._to_wrapper)
        try:
            yield
        finally:
            self._swap(self._to_original)

    def take(self) -> list:
        """The spans recorded since the last call, as tuples; clears the list."""
        spans, self.spans, self._current = self.spans, [], -1
        return [tuple(s) for s in spans]
