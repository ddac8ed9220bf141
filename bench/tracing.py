"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions at the module attribute where
their caller looks them up (``pipeclimber.simulator.pose_at``,
``pipeclimber.cli.emit_records``, ...) with wrappers that record one span per
call; ``Tracer.remove`` puts the originals back, so untraced ops run the
program unchanged.  Nothing under ``src/``
changes.

A span is (parent id, name, start ns, end ns); its id is its position.
Spans are kept in memory in one flat array and cleared by ``take_op`` after
every op, which turns them into per-layer calls and self times (span
duration minus the part its child spans cover).  The spans of the last op
are kept for ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
from array import array
from collections import Counter


def _extra_iterations(extra, args, kwargs, result):
    extra["differential.solve_torque_balance.iterations"] += result.iterations


def _extra_emit_bytes(extra, args, kwargs, result):
    # The CLI passes (records, format, path) positionally.
    extra["scenario_io.emit_records.bytes"] += os.path.getsize(args[2])


def targets(pipeclimber):
    """(module, attribute, span name, result hook) for every traced call site."""
    cli, sim, sio, diff = (
        pipeclimber.cli, pipeclimber.simulator, pipeclimber.scenario_io,
        pipeclimber.differential,
    )
    return [
        (cli, "main", "cli.main", None),
        (cli, "parse_scenario", "scenario_io.parse_scenario", None),
        (cli, "run_scenario", "simulator.run", None),
        (cli, "sweep_orientation", "simulator.sweep_orientation", None),
        (cli, "emit_records", "scenario_io.emit_records", _extra_emit_bytes),
        (cli, "summary_to_dict", "scenario_io.summary_to_dict", None),
        (sio, "build_network", "geometry.build_network", None),
        (sio, "pipe_inner_radius", "dimensions.pipe_inner_radius", None),
        (sim, "run", "simulator.run", None),
        (sim, "step", "simulator.step", None),
        (sim, "summarize", "simulator.summarize", None),
        (sim, "pose_at", "geometry.pose_at", None),
        (sim, "required_track_speeds", "robot.required_track_speeds", None),
        (sim, "spring_compression", "robot.spring_compression", None),
        (sim, "asymmetry_deg", "robot.asymmetry_deg", None),
        (sim, "solve_torque_balance", "differential.solve_torque_balance", _extra_iterations),
        (pipeclimber, "balance_state", "differential.balance_state", None),
        (diff, "solve_torque_balance", "differential.solve_torque_balance", _extra_iterations),
        (diff, "internal_state", "differential.internal_state", None),
    ]


class Tracer:
    """Span recorder whose wrappers are installed at module attributes."""

    def __init__(self, pipeclimber):
        self.names: list[str] = []
        self.spans = array("q")  # flat records: parent id, name id, start ns, end ns
        self.stack = [-1]  # ids of the open spans; -1 is "no parent"
        self.extra: Counter = Counter()  # counts recorded at the wrappers
        self.last_op = array("q")
        self._patches = [
            (module, attr, getattr(module, attr), self._wrap(name, getattr(module, attr), hook))
            for module, attr, name, hook in targets(pipeclimber)
        ]

    def _wrap(self, name, fn, hook):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, extra, clock = self.spans, self.stack, self.extra, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) >> 2
            spans.extend((stack[-1], name_id, clock(), 0))
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * span_id + 3] = clock()
                stack.pop()
            if hook is not None:
                hook(extra, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def take_op(self) -> tuple[Counter, Counter, Counter]:
        """Calls and self ns per span name for the op just traced, then reset.

        Returns (calls, self_ns, extra counts).
        """
        spans = self.spans
        count = len(spans) >> 2
        duration = [spans[4 * i + 3] - spans[4 * i + 2] for i in range(count)]
        covered = [0] * count
        for i in range(count):
            parent = spans[4 * i]
            if parent >= 0:
                covered[parent] += duration[i]
        calls, self_ns = Counter(), Counter()
        for i in range(count):
            name = self.names[spans[4 * i + 1]]
            calls[name] += 1
            self_ns[name] += duration[i] - covered[i]
        extra = Counter(self.extra)
        self.last_op = array("q", spans)
        del spans[:]
        self.extra.clear()
        return calls, self_ns, extra

    def write_spans(self, path) -> int:
        """Write the last op's spans as gzipped CSV; returns the span count."""
        spans = self.last_op
        count = len(spans) >> 2
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span_id,parent_id,name,start_ns,end_ns\n")
            for i in range(count):
                parent, name_id, start, end = spans[4 * i: 4 * i + 4]
                handle.write(f"{i},{parent},{self.names[name_id]},{start},{end}\n")
        return count
