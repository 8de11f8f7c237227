"""flagdesic benchmark: time to a verdict from the command line, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload float-many-blocks --seed 1 --seconds 40 --trace 0

With ``--trace 0`` one client drives the real CLI (``python -m flagdesic.cli``
with ``src`` on ``PYTHONPATH``) in a closed loop: one request at a time, each
a fresh process, until ``--seconds`` have passed and at least
``MIN_REQUESTS`` were attempted. Every response is checked by the oracle
against the ground truth its seeded input was built with.

The speed of a shared host drifts by tens of percent from one second to the
next, and every process on it drifts together. So just before each request a
fixed reference program, which imports nothing from the checkout, is timed in
a fresh interpreter, and the request's wall time is scaled by
``REFERENCE_S / reference time``: every reported time is in seconds at the
speed where the reference takes ``REFERENCE_S``. The unscaled wall times are
printed in the summary line.

With ``--trace 1`` the same requests run in-process through
``flagdesic.cli.main``, each once untraced and once inside span wrappers
around every layer function, and per-layer self times and call counts are
reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the workload descriptors and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans

#: A run keeps sending requests until both limits are reached, and then ends
#: at a cycle boundary, so the p90 latency always has at least ten samples
#: beyond it and every run holds the same mix of requests.
MIN_REQUESTS = 100
#: No new cycle starts after this many seconds, so a run ends well inside 180 s.
HARD_LIMIT_S = 120.0
#: A request still running after this is killed and counts as failed at this latency.
REQUEST_TIMEOUT_S = 30.0
#: One timed no-work CLI call (for setup_s) after every this many requests, so
#: its samples are spread over the run like the requests' are.
SETUP_EVERY = 8
#: Requests generated per run; a run that gets through all of them starts over.
POOL_REQUESTS = 160
#: Scratch directory, inside the checkout, for generated inputs and outputs.
WORK_DIR = ".perfbench_work"
COMMANDS = ("check", "canonicalize", "closedness", "curve")
#: The reference program: a fixed pure-Python loop in an isolated interpreter.
REFERENCE_CODE = "s = 0\nfor i in range(200000):\n    s += i * i\n"
#: Scaled times are in seconds at the host speed where the reference takes this long.
REFERENCE_S = 0.1

END_TO_END = (
    ("latency_p50_s", "s"), ("latency_p90_s", "s"), ("requests_per_s", "1/s"),
    ("check_p50_s", "s"), ("canonicalize_p50_s", "s"), ("closedness_p50_s", "s"),
    ("curve_p50_s", "s"), ("success_ratio", "ratio"), ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


@dataclass
class Record:
    command: str
    latency: float
    outcome: str
    reason: str
    commensurate_closedness: bool
    wall: float = 0.0

    @property
    def failed(self) -> bool:
        return self.outcome in (oracle.WRONG, oracle.NO_ANSWER)


def undetermined_ratio(records) -> float:
    """Closedness exits 3 on commensurate-by-construction inputs, over those requests."""
    comm = [r for r in records if r.commensurate_closedness]
    return sum(r.outcome == oracle.UNDETERMINED for r in comm) / len(comm) if comm else 0.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# one CLI process
# ---------------------------------------------------------------------------


def run_child(args, env, timeout: float) -> tuple:
    """Run ``python args`` to its exit.

    Returns (exit code or None on timeout, seconds from spawn to exit, or the
    timeout, stdout, stderr).
    """
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *args], env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, errors="replace",
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # the child is killed and waited for
        return None, timeout, "", ""
    return done.returncode, time.perf_counter() - start, done.stdout, done.stderr


def reference_scale(env) -> float:
    """REFERENCE_S over the reference program's wall time, measured now."""
    code, seconds, _, err = run_child(["-I", "-c", REFERENCE_CODE], env, REQUEST_TIMEOUT_S)
    if code != 0:
        raise SetupError(f"the reference program exited {code}: {err.strip()[-300:]}")
    return REFERENCE_S / seconds


def setup_call(env) -> float:
    """Wall time of ``flagdesic examples --list``: interpreter start plus import."""
    code, latency, out, err = run_child(["-m", "flagdesic.cli", "examples", "--list"], env,
                                        REQUEST_TIMEOUT_S)
    if code != 0 or not out.split():
        raise SetupError(f"`flagdesic examples --list` exited {code}: {err.strip()[-300:]}")
    return latency


def _out_path(req, work: Path) -> str:
    return str(work / ("out.csv" if req.command == "curve" else "out.json"))


def _read_out(path: str):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _commensurate_closedness(req) -> bool:
    return req.command == "closedness" and bool(req.case.commensurate)


# ---------------------------------------------------------------------------
# untraced: the real CLI, one process per request
# ---------------------------------------------------------------------------


def cli_run(requests, work: Path, seconds: float, env, cycle: int) -> tuple:
    setup_call(env)  # warm-up: fills the page cache and writes bytecode
    setup_times, setup_walls, references = [], [], []
    records = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (
            len(records) % cycle == 0 and elapsed >= seconds and len(records) >= MIN_REQUESTS
        ):
            break
        scale = reference_scale(env)
        references.append(REFERENCE_S / scale)
        if len(records) % SETUP_EVERY == 0:
            setup_walls.append(setup_call(env))
            setup_times.append(scale * setup_walls[-1])
        req = requests[len(records) % len(requests)]
        out_path = _out_path(req, work)
        Path(out_path).unlink(missing_ok=True)
        argv = req.argv(req.files["vector"], req.files.get("metric"), out_path)
        code, latency, out, err = run_child(["-m", "flagdesic.cli", *argv], env,
                                            REQUEST_TIMEOUT_S)
        outcome, reason = oracle.check_response(req, code, out, err, _read_out(out_path))
        records.append(Record(req.command, scale * latency, outcome, reason,
                              _commensurate_closedness(req), wall=latency))
    values = end_to_end_metrics(records, statistics.median(setup_times))
    # the largest peak RSS of any child; the requests' children are the largest
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    walls = [r.wall for r in records]
    unscaled = {
        "wall_latency_p50_s": statistics.median(walls),
        "wall_latency_p90_s": statistics.quantiles(walls, n=10)[8],
        "wall_setup_s": statistics.median(setup_walls),
        "reference_wall_s": statistics.median(references),
    }
    return records, values, unscaled


def end_to_end_metrics(records, setup_s: float) -> dict:
    """Every end-to-end metric but peak RSS, from the records' scaled latencies."""
    latencies = [r.latency for r in records]
    completed = sum(r.reason != "timeout" for r in records)
    values = {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
        "requests_per_s": completed / sum(latencies),
    }
    for command in COMMANDS:
        values[f"{command}_p50_s"] = statistics.median(
            [r.latency for r in records if r.command == command]
        )
    values["success_ratio"] = 1.0 - sum(r.failed for r in records) / len(records)
    values["decided_ratio"] = 1.0 - undetermined_ratio(records)
    values["setup_s"] = setup_s
    return values


# ---------------------------------------------------------------------------
# traced: in-process, span wrappers around every layer function
# ---------------------------------------------------------------------------


def _call_main(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback on the command line; the oracle reports it
        err.write(traceback.format_exc())
        code = 1
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def traced_run(requests, work: Path, seconds: float, root: Path, cycle: int) -> tuple:
    sys.path.insert(0, str(root / "src"))
    import flagdesic.cli as cli

    tracer = spans.Tracer()
    fn_calls, fn_self = {}, {}
    per_command = {key: [0, 0] for key in spans.PER_COMMAND}  # [calls, requests]
    traced_total = untraced_total = 0.0
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < min(seconds, HARD_LIMIT_S):
        for _ in range(cycle):
            if time.perf_counter() - start >= HARD_LIMIT_S:
                break
            req = requests[len(records) % len(requests)]
            out_path = _out_path(req, work)
            argv = req.argv(req.files["vector"], req.files.get("metric"), out_path)
            # alternate which side runs first, so neither always finds warm caches
            for traced in ((False, True) if len(records) % 2 == 0 else (True, False)):
                Path(out_path).unlink(missing_ok=True)
                with tracer.installed() if traced else contextlib.nullcontext():
                    code, latency, out, err = _call_main(cli, argv)
                if not traced:
                    untraced_total += latency
                    continue
                traced_total += latency
                recorded = tracer.take()
                outcome, reason = oracle.check_response(req, code, out, err, _read_out(out_path))
                records.append(Record(req.command, latency, outcome, reason,
                                      _commensurate_closedness(req)))
            for (name, _, _, _), self_s in zip(recorded, spans.self_times(recorded)):
                fn_calls[name] = fn_calls.get(name, 0) + 1
                fn_self[name] = fn_self.get(name, 0.0) + self_s
            for key in per_command:
                if req.command == key[1]:
                    per_command[key][0] += sum(1 for s in recorded if s[0] == key[0])
                    per_command[key][1] += 1
    return records, per_layer_values(records, fn_calls, fn_self, per_command,
                                     traced_total, untraced_total), {}


def per_layer_values(records, fn_calls, fn_self, per_command, traced_total, untraced_total):
    count = len(records)
    values = {}
    for layer in spans.LAYERS:
        names = [n for n in fn_calls if n.startswith(layer + ".")]
        layer_self = sum(fn_self[n] for n in names)
        values[f"{layer}.self_s"] = layer_self / count
        values[f"{layer}.calls"] = sum(fn_calls[n] for n in names) / count
        values[f"{layer}.share"] = layer_self / traced_total
        for fn in spans.REPORTED[layer]:
            name = f"{layer}.{fn}"
            values[f"{name}.self_s"] = fn_self.get(name, 0.0) / count
            values[f"{name}.calls"] = fn_calls.get(name, 0) / count
    for (fn, command), (calls, reqs) in per_command.items():
        values[f"{fn}.calls_per_{command}"] = calls / reqs if reqs else 0.0
    values["trace.overhead_ratio"] = traced_total / untraced_total
    return values


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _report(workload, trace, threads, records, values, unscaled, descriptors) -> dict:
    failed = sum(r.failed for r in records)
    summary = {
        **unscaled,
        "workload": workload,
        "trace": trace,
        "blas_threads": threads,
        "failed_ratio": failed / len(records),
        "undetermined_ratio": undetermined_ratio(records),
        "outcomes": {o: sum(r.outcome == o for r in records)
                     for o in (oracle.OK, oracle.UNDETERMINED, oracle.WRONG, oracle.NO_ANSWER)},
        "failure_reasons": sorted({f"{r.command}: {r.reason}" for r in records if r.failed})[:20],
        "descriptors": descriptors,
    }
    print(json.dumps(summary, sort_keys=True))
    units = dict(spans.per_layer_metrics()) if trace else dict(END_TO_END)
    for name, unit in units.items():
        print(f"{name:52s} {values[name]:.6g} {unit}")
    return {
        "correct": not any(r.outcome == oracle.WRONG for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "flagdesic" / "cli.py").is_file():
        print("error: no src/flagdesic here; run from the root of a flagdesic checkout",
              file=sys.stderr)
        return 2
    # children and this process (the generator and the traced run use numpy)
    # get the same BLAS thread count, at most the two cores the host has
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    base = root / WORK_DIR
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        requests = workloads.build_requests(args.workload, args.seed, POOL_REQUESTS)
        workloads.write_inputs(requests, work)
        cycle = workloads.cycle_length(args.workload)
        if args.trace:
            records, values, unscaled = traced_run(requests, work, args.seconds, root, cycle)
        else:
            records, values, unscaled = cli_run(requests, work, args.seconds, child_env(root), cycle)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
    done = [requests[k % len(requests)] for k in range(len(records))]
    result = _report(args.workload, args.trace, threads, records, values, unscaled,
                     workloads.descriptors(done))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
