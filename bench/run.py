#!/usr/bin/env python3
"""Benchmark of the pipeclimber simulator; see README.md next to this file.

Run from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload cli_four_section --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

With ``--trace 0`` it prints the end-to-end metrics, measured untraced; with
``--trace 1`` it prints the per-layer metrics of a separate traced run.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 2 when the checkout has
no ``src/pipeclimber``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("cli_four_section", "sweep_generated", "solver_random")

SETUP_REPEATS = 11  # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it
MIN_TRACED_OPS = 3

# On a shared 2-vCPU VM the same op ran up to 2x slower while the
# neighbours were busy, in phases lasting seconds to minutes, so raw wall
# times of one commit moved by more than any useful bound.  Every timed op
# therefore sits between runs of a fixed reference computation that does not
# touch pipeclimber, and op times are reported in reference-scaled seconds:
#     raw seconds * REFERENCE_S / median(nearby reference times).
# Where the reference takes REFERENCE_S they are plain wall seconds; the raw
# figures are printed next to them.
REFERENCE_S = 0.020
REFERENCE_WINDOW = 2  # reference runs on each side of an op that set its scale

# Set-up is mostly imports, which slowed far less than REFERENCE_S's
# computation in the host's slow phases, and its raw median moved by 40%
# between runs an hour apart.  Its reference is the `import numpy` it starts
# with, timed in the same fresh interpreter:
#     raw set-up seconds * NUMPY_IMPORT_S / seconds of that numpy import.
NUMPY_IMPORT_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_p50_s": "s",
    "wall_tail_s": "s",
    "rows_per_s": "1/s",
    "solves_per_s": "1/s",
    "peak_mem_mb": "MB",
}

SOLVE = "differential.solve_torque_balance"
STEP = "simulator.step"


class OpProfile(NamedTuple):
    """What one traced op did: calls and self ns per span name, wrapper counts,
    its raw wall time and the factor that scales its times to the reference."""

    calls: Counter
    self_ns: Counter
    extra: Counter
    wall_s: float
    scale: float


def _calls(name):
    return lambda p: p.calls[name]


def _self_ms(name):
    return lambda p: p.self_ns[name] * p.scale / 1e6


def _iterations_mean(p):
    return p.extra[SOLVE + ".iterations"] / p.calls[SOLVE] if p.calls[SOLVE] else 0.0


def _solve_hit_ratio(p):
    return 1.0 - p.calls[SOLVE] / p.calls[STEP] if p.calls[STEP] else 0.0


def _self_coverage(p):
    return sum(p.self_ns.values()) / 1e9 / p.wall_s


# Per-layer metrics taken from each traced op; the run reports their median
# over the traced ops.  Every time is self time, the span's duration minus
# the part its traced children cover (for a leaf layer, its whole time), in
# reference-scaled ms.
PER_OP_LAYER_METRICS = {
    "simulator.step.calls": ("calls/op", _calls(STEP)),
    "simulator.step.self_ms": ("ms/op", _self_ms(STEP)),
    "simulator.run.calls": ("calls/op", _calls("simulator.run")),
    "simulator.run.self_ms": ("ms/op", _self_ms("simulator.run")),
    "geometry.pose_at.calls": ("calls/op", _calls("geometry.pose_at")),
    "geometry.pose_at.ms": ("ms/op", _self_ms("geometry.pose_at")),
    "robot.required_track_speeds.calls": ("calls/op", _calls("robot.required_track_speeds")),
    "robot.required_track_speeds.ms": ("ms/op", _self_ms("robot.required_track_speeds")),
    "robot.spring_compression.calls": ("calls/op", _calls("robot.spring_compression")),
    "robot.spring_compression.ms": ("ms/op", _self_ms("robot.spring_compression")),
    "robot.asymmetry_deg.calls": ("calls/op", _calls("robot.asymmetry_deg")),
    "robot.asymmetry_deg.ms": ("ms/op", _self_ms("robot.asymmetry_deg")),
    SOLVE + ".calls": ("calls/op", _calls(SOLVE)),
    SOLVE + ".ms": ("ms/op", _self_ms(SOLVE)),
    SOLVE + ".iterations_mean": ("iterations", _iterations_mean),
    "differential.internal_state.ms": ("ms/op", _self_ms("differential.internal_state")),
    "differential.balance_state.self_ms": ("ms/op", _self_ms("differential.balance_state")),
    "simulator.solve_hit_ratio": ("ratio", _solve_hit_ratio),
    "scenario_io.emit_records.ms": ("ms/op", _self_ms("scenario_io.emit_records")),
    "scenario_io.emit_records.bytes": (
        "B/op", lambda p: p.extra["scenario_io.emit_records.bytes"]
    ),
    "simulator.summarize.ms": ("ms/op", _self_ms("simulator.summarize")),
    "simulator.sweep_orientation.ms": ("ms/op", _self_ms("simulator.sweep_orientation")),
    "scenario_io.summary_to_dict.ms": ("ms/op", _self_ms("scenario_io.summary_to_dict")),
    "cli.main.self_ms": ("ms/op", _self_ms("cli.main")),
    "scenario_io.parse_scenario.ms": ("ms/op", _self_ms("scenario_io.parse_scenario")),
    "geometry.build_network.ms": ("ms/op", _self_ms("geometry.build_network")),
    "dimensions.pipe_inner_radius.ms": ("ms/op", _self_ms("dimensions.pipe_inner_radius")),
    "trace.self_coverage": ("ratio", _self_coverage),
}


def reference_seconds() -> float:
    """Wall time of one fixed computation: small-float Python and numpy work."""
    import numpy as np  # not at module level: a --setup-only child times this import

    start = time.perf_counter()
    acc, table, v = 0.0, {}, np.array([1.0, 2.0, 3.0])
    for i in range(3000):
        x = i * 0.001
        t = (x, math.cos(x), math.sin(x))
        table[i & 255] = t
        a = np.abs(np.cos(v * x)) + 1.5
        acc += float(a[int(np.argmax(a))]) + sum(t) + len(str(i))
    return time.perf_counter() - start


def scale_factors(refs: list[float]) -> list[float]:
    """Factor that scales item i, which ran between refs[i] and refs[i + 1].

    It divides by the median of REFERENCE_WINDOW reference runs on each side:
    that damps the noise of one short run and still follows the host's phases.
    """
    window = REFERENCE_WINDOW
    return [
        REFERENCE_S / statistics.median(refs[max(0, i + 1 - window): i + 1 + window])
        for i in range(len(refs) - 1)
    ]


def scaled(raw: list[float], refs: list[float]) -> list[float]:
    """Reference-scaled seconds of raw[i], which ran between refs[i] and refs[i + 1]."""
    return [r * f for r, f in zip(raw, scale_factors(refs))]


def timed_setup(name: str, seed: int, workdir: Path):
    """Import pipeclimber, then generate, parse and validate the inputs.

    Returns (workload, set-up seconds, seconds of the numpy import that the
    set-up starts with, which is its reference).
    """
    start = time.perf_counter()
    import numpy  # noqa: F401  (pipeclimber imports it; timed apart here)

    numpy_s = time.perf_counter() - start
    import workloads  # imports pipeclimber

    workload = workloads.WORKLOADS[name](ROOT, seed, workdir)
    return workload, time.perf_counter() - start, numpy_s


def fresh_setup_seconds(name: str, seed: int, workdir: Path, count: int):
    """Set-up times measured in fresh interpreters, so that the import counts.

    Returns (raw seconds, scaled seconds) per interpreter; see NUMPY_IMPORT_S.
    The children may write bytecode caches, as an installed package has them,
    so that only the first set-up in a new checkout pays for compiling.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    seconds = []
    for _ in range(count):
        child_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=workdir))
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only", "--workdir", str(child_dir),
        ]
        done = subprocess.run(
            argv, capture_output=True, text=True, timeout=120, check=True, env=env
        )
        setup_s, numpy_s = (float(x) for x in done.stdout.split()[-2:])
        seconds.append((setup_s, setup_s * NUMPY_IMPORT_S / numpy_s))
    return seconds


class Tally:
    """Ops attempted and failed; an op fails when it raises or its output check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def next_index(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def check(self, workload, result):
        """Check one op's outputs, untimed; returns them, or None when it failed."""
        if isinstance(result, Exception):
            problems, out = [f"raised {result!r}"], None
        else:
            try:
                out = workload.collect(result)
                problems = workload.check(out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems, out = [f"output unreadable: {exc!r}"], None
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {self.attempted - 1}: " + "; ".join(problems))
            return None
        return out


def run_one(workload, tally: Tally, tracer=None):
    """One op, timed (traced if given a tracer), then its untimed check.

    Returns (wall s, checked output or None).
    """
    index = tally.next_index()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        try:
            result = workload.op(index)
        except Exception as exc:  # a failing op is counted, and the run goes on
            result = exc
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    return wall, tally.check(workload, result)


def run_ops(workload, tally: Tally, seconds: float):
    """Closed loop, untraced, for ``seconds`` and at least TAIL_BEYOND + 1 ops.

    Returns (raw op seconds, reference seconds around them, rows simulated).
    """
    walls, refs, rows = [], [reference_seconds()], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) <= TAIL_BEYOND:
        wall, out = run_one(workload, tally)
        walls.append(wall)
        refs.append(reference_seconds())
        if out is not None:
            rows += workload.rows(out)
    return walls, refs, rows


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_mem_mb(workload, tally: Tally) -> float:
    """tracemalloc peak over one op, in its own pass; the op is checked after."""
    tracemalloc.start()
    try:
        result = workload.op(tally.next_index())
    except Exception as exc:  # counted as failed by the check below
        result = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    tally.check(workload, result)
    return peak / 1e6


def records_bytes_per_row(scenario) -> float:
    """Heap held by the records list of one simulator run, per record."""
    from pipeclimber import simulator

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records, _ = simulator.run(scenario)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(records)


def run_metadata() -> dict:
    import numpy

    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        commit = head
    except OSError:
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "pipeclimber").glob("*.py"))
        ),
    }


def measure_end_to_end(name, seed, seconds, workload, tally, workdir):
    # Half the set-ups run before the timed loop and half after it, so that
    # they meet more than one phase of the host.
    setups = fresh_setup_seconds(name, seed, workdir, SETUP_REPEATS - SETUP_REPEATS // 2)
    walls, refs, rows = run_ops(workload, tally, seconds)
    setups += fresh_setup_seconds(name, seed, workdir, SETUP_REPEATS // 2)
    ops = scaled(walls, refs)
    timed = sum(ops)
    tail_value, tail_pct = tail(ops)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "wall_p50_s": statistics.median(ops),
        "wall_tail_s": tail_value,
        # One output record carries one differential equilibrium on every
        # workload (a simulated step, or one balance_state result).
        "rows_per_s": rows / timed,
        "solves_per_s": rows / timed,
        "peak_mem_mb": peak_mem_mb(workload, tally),
    }
    raw_tail, _ = tail(walls)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; raw "
                   f"{statistics.median(raw for raw, _ in setups):.4g} s",
        "wall_p50_s": f"n={len(ops)} ops; raw {statistics.median(walls):.4g} s",
        "wall_tail_s": f"p{tail_pct:.1f}, n={len(ops)} ops, {TAIL_BEYOND} beyond; "
                       f"raw {raw_tail:.4g} s",
        "rows_per_s": f"{rows} rows over {timed:.3f} s scaled timed wall; raw "
                      f"{rows / sum(walls):.6g}/s",
        "solves_per_s": f"{rows} equilibria over {timed:.3f} s scaled timed wall",
        "peak_mem_mb": "tracemalloc peak over one op",
    }
    table = [f"   reference computation: median {statistics.median(refs) * 1e3:.2f} ms over "
             f"{len(refs)} runs; the times above are scaled to {REFERENCE_S * 1e3:g} ms"]
    return {k: (v, END_TO_END_UNITS[k], notes[k]) for k, v in metrics.items()}, table


def measure_per_layer(name, seed, seconds, workload, tally):
    import pipeclimber
    from tracing import Tracer

    # Traced and untraced ops alternate, in turn first in each pair, so that
    # the overhead ratio compares ops run under the same machine load.
    tracer = Tracer(pipeclimber)
    walls, refs, traced_at = [], [reference_seconds()], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced_at) < MIN_TRACED_OPS:
        for with_trace in (False, True) if len(traced_at) % 2 == 0 else (True, False):
            wall, _ = run_one(workload, tally, tracer if with_trace else None)
            if with_trace:
                traced_at.append((len(walls), tracer.take_op()))
            walls.append(wall)
            refs.append(reference_seconds())
    factors = scale_factors(refs)
    profiles = [OpProfile(*taken, walls[i], factors[i]) for i, taken in traced_at]
    traced_ids = {i for i, _ in traced_at}
    traced = [walls[i] for i in sorted(traced_ids)]
    untraced = [w for i, w in enumerate(walls) if i not in traced_ids]
    n = f"median of {len(profiles)} traced ops"
    metrics = {
        metric: (statistics.median_low(f(p) for p in profiles), unit, n)
        for metric, (unit, f) in PER_OP_LAYER_METRICS.items()
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio",
        f"traced p50 over untraced p50, {len(traced)} and {len(untraced)} ops",
    )
    scenario = workload.sim_scenario
    metrics["simulator.records_bytes_per_row"] = (
        records_bytes_per_row(scenario) if scenario is not None else 0.0, "B/row",
        "tracemalloc over one run's records list",
    )
    spans_path = WORK / f"spans-{name}-seed{seed}.csv.gz"
    count = tracer.write_spans(spans_path)
    layers = sorted({layer for p in profiles for layer in p.calls})
    table = [
        f"  {layer:40s} {statistics.median_low(p.calls[layer] for p in profiles):>9} calls/op "
        f"{statistics.median_low(_self_ms(layer)(p) for p in profiles):10.3f} self ms/op"
        for layer in layers
    ]
    table.append(f"  spans of the last traced op ({count}) -> {spans_path.relative_to(ROOT)}")
    return metrics, table


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = timed_setup(name, seed, workdir / "main")[0]
        tally = Tally()
        # Warm-up op, untimed: fills caches and feeds the perturbed-output self-test.
        _, out = run_one(workload, tally)
        self_test = out is not None and bool(workload.check(workload.perturb(out)))
        if trace:
            metrics, table = measure_per_layer(name, seed, seconds, workload, tally)
        else:
            metrics, table = measure_end_to_end(name, seed, seconds, workload, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = run_metadata()
    print(f"== {name}  seed {seed}  inputs sha256 {workload.inputs_digest}")
    print("   " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    for metric, (value, unit, note) in metrics.items():
        print(f"   {metric:52s} {value:14.6g} {unit:9s} ({note})")
    for line in table:
        print(line)
    print(f"   output check: {tally.attempted} ops attempted, {tally.failed} failed "
          f"(failed_ratio {tally.failed / tally.attempted:.6g}); perturbed output "
          f"{'rejected' if self_test else 'NOT rejected'} by the check")
    for problem in tally.problems:
        print(f"   failure: {problem}")
    return {
        "correct": tally.failed == 0 and self_test,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter; print its seconds "
                             "and those of its numpy import")
    parser.add_argument("--workdir", type=Path, help="scratch directory for --setup-only")
    args = parser.parse_args(argv)

    if not (SRC / "pipeclimber" / "__init__.py").is_file():
        print(f"error: no pipeclimber sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        if args.workload == "all" or args.workdir is None:
            parser.error("--setup-only needs one --workload and --workdir")
        _, setup_s, numpy_s = timed_setup(args.workload, args.seed, args.workdir)
        print(setup_s, numpy_s)
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names
    }
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items() for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
