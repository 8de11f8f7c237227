"""Command-line front door: flagdesic check|canonicalize|closedness|curve|examples|roots.

``check`` names each failing route's own witness: the block condition's first violating
triple, the certificate's first violating probe. Exit codes: 0 affirmative, 1 negative, 2
usage or parse error (or an input too large for memory), 3 undetermined. ``canonicalize``
exits 1 only where the block condition fails, in the document's own mode (exactly, on an exact
document), and 3 where it holds but no canonical form can be certified (the singular vectors
kept at the rank cut do not fit a block, or the residual exceeds the bound), after printing why.

A command runs in a process of its own, through :func:`run`, which flushes stdout and
stderr after the command and then ends the process with ``os._exit``: the interpreter
frees nothing that is about to vanish, and no ``atexit`` handler runs. ``main`` is for
in-process and library callers; it returns the exit code and leaves the garbage
collector as it finds it. Every command loads numpy and the modules ``cli`` imports
(``documents``, ``flag``, ``linalg``), even one that calls none of them, as ``roots`` never
calls ``documents``; each handler imports the rest of what its command needs in its own body.

A well-formed command line (the command, its positionals, then ``--option value`` pairs)
is read straight off ``_COMMANDS``; argparse, which also loads gettext and locale, is
imported only to print help or a usage error, or to read any other spelling, so every
help text, usage message and exit code is argparse's own. An error line that stderr cannot
take still leaves with the error's exit code.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # a one-shot process: no collector pass while modules load
    gc.disable()

import json
import math
import os
import sys
import types

import numpy as np

from .documents import parse_metric_document, parse_vector_document, serialize_vector
from .flag import (FlagPartition, NotEquigeodesic, TangentVector, build_roots, off_block_mask,
                   off_block_positions, t_roots)
from .linalg import DEFAULT_BOUND, DEFAULT_EQUI_TOL, Mode, _unit_scale, killing_flow


def __getattr__(name):
    # perfbench/test_perfbench.py::test_tracer_rebinds_by_name_imports_and_restores_them
    # reads cli.spectral_data; it can go with the benchmark change of ROADMAP item 1
    if name == "spectral_data":
        from .closure import spectral_data

        return spectral_data
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    def unique_names(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise _CliError(f"{path}: key {json.dumps(name)} appears twice")
            seen.add(name)
        return dict(pairs)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_names)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    except RecursionError:
        raise _CliError(f"{path}: JSON nested too deeply to read")


def _load_vector(path: str, requested_mode: str):
    x = parse_vector_document(_load_json(path))
    if requested_mode == "exact":
        if x.mode is not Mode.EXACT:
            raise _CliError(
                f"{path}: document is in float mode; exact computation needs an exact document"
            )
        return x
    return x.to_float()


def _write_out(text: str, out):
    if out is None:
        print(text, end="")  # unlike sys.stdout.write, a no-op where stdout was closed
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args) -> int:
    from .equigeo import equigeodesic_verdicts, is_geodesic_vector

    x = _load_vector(args.vector, args.mode)
    if args.metric is not None:
        g = parse_metric_document(_load_json(args.metric), x.partition)
        ok, residual = is_geodesic_vector(x, g, args.tol)
        print(f"geodesic (fixed metric): {str(ok).lower()}  residual {residual:.3e}")
        return 0 if ok else 1
    verdicts = equigeodesic_verdicts(x, args.tol)
    for v in verdicts:
        line = f"equigeodesic ({v.method}): {str(v.is_equigeodesic).lower()}"
        line += f"  worst residual {v.worst_residual:.3e}"
        if v.violating_triple is not None:
            line += f"  violating triple {v.violating_triple}"
        if v.violating_probe is not None:
            line += f"  violating probe {v.violating_probe}"
        print(line)
    return 0 if all(v.is_equigeodesic for v in verdicts) else 1


def _cmd_canonicalize(args) -> int:
    from .equigeo import canonicalize

    x = parse_vector_document(_load_json(args.vector))
    try:
        form = canonicalize(x)
    except NotEquigeodesic as exc:
        print(f"not equigeodesic: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        raise _CliError(f"canonical form undetermined: {exc}", code=3)
    u = form.U.data
    doc = {
        "J": serialize_vector(TangentVector(x.partition, form.J)),
        "U": np.stack((u.real, u.imag), axis=-1).tolist(),
        "pairs": [[r, c, a] for r, c, a in form.pairs],
        "residual": form.residual,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out is not None:  # written first, so a failed write prints no listing
        _write_out(text, args.out)
        text = ""
    listing = "".join(f"  ({r}, {c})  {a:.12g}\n" for r, c, a in form.pairs)
    print(f"pairs (row, col, value):\n{listing}residual {form.residual:.3e}\n{text}", end="")
    return 0


def _cmd_closedness(args) -> int:
    from .closure import AllZeroSpectrum, Closedness, is_killing_closed

    x = _load_vector(args.vector, args.mode)
    try:
        verdict = is_killing_closed(x, args.bound)
    except AllZeroSpectrum:
        raise _CliError("the zero vector has no period (constant curve)")
    thetas = "  ".join(f"{t:.12g}" for t in verdict.thetas)
    print(f"spectrum (i * theta): {thetas}")
    print(f"status: {verdict.status.value}")
    if verdict.status is Closedness.COMMENSURATE:
        print(f"base frequency: {verdict.base_frequency:.12g}")
        print(f"period: {verdict.period:.12g}")
        print("multipliers: " + " ".join(str(m) for m in verdict.multipliers))
        return 0
    if verdict.bound_used is not None:
        print(f"denominator bound: {verdict.bound_used}")
    if verdict.status is Closedness.UNDETERMINED:
        reason = verdict.reason
        if verdict.defect is not None:
            reason += f", exp(T A) defect {verdict.defect:.3e}"
        print(f"reason: {reason}")
        return 3
    return 1


def _cmd_curve(args) -> int:
    x = _load_vector(args.vector, "float")
    p = x.partition
    if not (math.isfinite(args.t_max) and args.t_max >= 0):
        raise _CliError("--t-max must be finite and nonnegative")
    if args.samples < 1:
        raise _CliError("--samples must be at least 1")
    if args.t_max == 0:
        ts = [0.0]
    else:
        ts = [args.t_max * k / args.samples for k in range(args.samples + 1)]
    mask = off_block_mask(p)
    header = ["t"]
    for r, c in off_block_positions(p):
        header.extend([f"re_{r + 1}_{c + 1}", f"im_{r + 1}_{c + 1}"])
    header.append("dist_k")

    w, flow = killing_flow(x.matrix)
    if not math.isfinite(ts[-1] * float(np.max(np.abs(w)))):
        raise _CliError("the phase t * theta at --t-max lies outside the float range")
    off = np.array([flow(t)[mask] for t in ts])  # one row of off-block entries per t
    s = np.array([[_unit_scale(r)] for r in off])  # exact, so no square of a tiny entry underflows
    # hypot is Python's abs(complex); the leading zero and cumsum add each row left to right
    sq = np.hypot(off.real * s, off.imag * s) ** 2
    dist = np.sqrt(np.cumsum(np.column_stack((np.zeros(len(ts)), sq)), axis=1)[:, -1]) / s[:, 0]
    table = np.column_stack((ts, off.view(np.float64), dist)).tolist()  # re, im interleaved
    row = "%.12g" + ",%.15g" * (len(header) - 1) + "\n"
    _write_out(",".join(header) + "\n" + "".join(row % tuple(r) for r in table), args.out)
    return 0


def _cmd_examples(args) -> int:
    from .examples import fixture_document, fixture_names

    if args.list:
        for name in fixture_names():
            print(name)
        return 0
    if args.name is None:
        raise _CliError("give a fixture name or --list")
    try:
        doc = fixture_document(args.name, args.mode)
    except KeyError:
        raise _CliError(
            f"unknown example {args.name!r}; available: {', '.join(fixture_names())}"
        )
    _write_out(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_roots(args) -> int:
    try:
        p = FlagPartition(tuple(args.parts))
    except ValueError as exc:
        raise _CliError(str(exc))
    k_pos, m_pos = build_roots(p)
    troots = t_roots(p)
    print(f"partition: {p.parts}  n = {p.total}")
    print(f"positive K-roots: {len(k_pos)}")
    print(f"positive M-roots: {len(m_pos)}")
    print(f"isotropy modules s(s-1)/2: {len(troots)}")
    print("positive T-roots: " + " ".join(f"({t.i},{t.j})" for t in troots))
    print(f"dim m: {p.dim_m()}")
    return 0


_MODE = (("--mode",), {"choices": ["float", "exact"], "default": "float"})
_OUT = (("--out",), {"default": None, "help": "output file (default stdout)"})

#: The subcommands, in help order: name -> (help, handler, add_argument calls).
_COMMANDS = {
    "check": ("equigeodesic / geodesic verdicts for a vector file", _cmd_check, [
        (("vector",), {}),
        (("metric",), {"nargs": "?", "default": None, "help": "optional metric file"}),
        _MODE,
        (("--tol",), {"type": float, "default": DEFAULT_EQUI_TOL}),
    ]),
    "canonicalize": ("block-unitary essentially diagonal form", _cmd_canonicalize, [
        (("vector",), {}),
        _OUT,
    ]),
    "closedness": ("Killing-field closedness via the spectrum", _cmd_closedness, [
        (("vector",), {}),
        _MODE,
        (("--bound",), {"type": int, "default": DEFAULT_BOUND}),
    ]),
    "curve": ("sample exp(tA) along the curve into CSV", _cmd_curve, [
        (("vector",), {}),
        (("--t-max",), {"type": float, "required": True, "dest": "t_max"}),
        (("--samples",), {"type": int, "default": 200}),
        _OUT,
    ]),
    "examples": ("emit a built-in example document", _cmd_examples, [
        (("name",), {"nargs": "?", "default": None}),
        (("--list",), {"action": "store_true"}),
        _MODE,
        _OUT,
    ]),
    "roots": ("root and module counts for a partition", _cmd_roots, [
        (("parts",), {"nargs": "+", "type": int}),
    ]),
}


def _build_parser():
    """The argparse parser of every command: the reader of help and usage errors."""
    import argparse  # here, so a well-formed command line never loads it

    parser = argparse.ArgumentParser(
        prog="flagdesic",
        description="Equigeodesic vectors on flag manifolds: certification, "
        "canonical forms, and Killing-field closedness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for args, kwargs in arguments:
            sp.add_argument(*args, **kwargs)
        sp.set_defaults(func=func)
    return parser


def _read_plain(argv):
    """The namespace ``_build_parser()`` gives for ``argv``, read straight off ``_COMMANDS``
    where ``argv`` is a command name, its positionals, then ``--option value`` pairs (and
    ``--list``), each option once; ``None`` for anything else, which argparse then reads:
    help, ``--opt=value``, abbreviations, ``--``, an unknown or repeated option, a token
    starting with ``-`` where a value or positional belongs, an option before a positional,
    a value its type or choices refuse, or a missing argument."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    values, options, positionals = {"command": argv[0], "func": func}, {}, []
    for names, kwargs in arguments:
        flag = kwargs.get("action") == "store_true"
        dest = kwargs.get("dest", names[0].lstrip("-").replace("-", "_"))
        values[dest] = kwargs.get("default", False if flag else None)
        if names[0].startswith("-"):
            options[names[0]] = (dest, flag, kwargs)
        else:
            positionals.append((dest, kwargs))

    def convert(token, kwargs):
        value = kwargs.get("type", str)(token)
        if "choices" in kwargs and value not in kwargs["choices"]:
            raise ValueError(token)
        return value

    cut = next((k for k, t in enumerate(argv) if t.startswith("-")), len(argv))
    given, tokens, seen = argv[1:cut], iter(argv[cut:]), set()
    try:
        for dest, kwargs in positionals:
            nargs = kwargs.get("nargs")
            taken = [convert(t, kwargs) for t in (given if nargs == "+" else given[:1])]
            given = given[len(taken):]
            if taken:
                values[dest] = taken if nargs == "+" else taken[0]
            elif nargs != "?":
                return None
        if given:
            return None
        for name in tokens:
            if name not in options or name in seen:
                return None
            seen.add(name)
            dest, flag, kwargs = options[name]
            if flag:
                values[dest] = True
                continue
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            values[dest] = convert(value, kwargs)
    except (TypeError, ValueError):
        return None
    if any(kwargs.get("required") and name not in seen for name, (_, _, kwargs) in options.items()):
        return None
    return types.SimpleNamespace(**values)


def _fail(message, code: int) -> int:
    """Print ``error: message`` to stderr and return ``code``, also where stderr cannot
    take the line (a full disk): the exit code is the error's, not the write's."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CliError as exc:
        return _fail(exc, exc.code)
    except (ValueError, OSError) as exc:
        return _fail(exc, 2)
    except MemoryError as exc:
        return _fail(f"not enough memory: {str(exc) or 'allocation failed'}", 2)


def run():
    """The program entry: ``python -m flagdesic.cli`` and the console script.

    Freezes every object loaded so far, which the collector then never walks again on a
    pass while the command runs, and turns collection back on for the command itself.
    When ``main`` returns, flushes stdout and stderr and ends the process with
    ``os._exit``, skipping interpreter teardown, so no ``atexit`` handler runs; library
    callers use :func:`main`. Output that stdout cannot take at that flush (a full disk,
    a closed pipe) exits 2 with one ``error:`` line, as a failed write inside ``main``
    does. An exception that escapes ``main`` leaves the ordinary way.
    """
    gc.freeze()
    gc.enable()
    code = main()
    try:
        if sys.stdout is not None:  # None where stdout was closed: print wrote nothing
            sys.stdout.flush()
    except OSError as exc:
        code = _fail(exc, 2)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
