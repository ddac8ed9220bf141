"""Quasi-static traversal of a pipe network.

Each step solves a static equilibrium instead of integrating dynamics: the
local pipe geometry dictates per-track required speeds, the speed mismatch
of each track produces a resistive torque through a linear slip law, and
the differential settles where all three torques are equal while the mean
output speed stays pinned to the input.  The body then advances along the
centerline by the mean track speed.

``run`` owns the time grid: it numbers the rows, places the body centre,
decides when the run ends and alone checks the limits under the body's front
and rear; ``step`` only solves the equilibrium at a given ``t`` and ``s``
and checks the centre's springs, by the rules ``_compression_error`` and
``_tilt_error``: the robot's formulas return numbers.  Both read curvatures,
not frames: the equilibrium depends only on the centre's, the limits only on
whether the centre, front and rear are in bends.  So ``run`` solves once per
centre curvature, applies the compression rule once per kind of segment
(bend or straight) the network has, and maps each (front, rear) pair of
kinds to the first limit it breaks; only such a pair sends it to find the
rows where the body's front or rear crosses a boundary, and the first row
on such a pair raises that limit.

The transmission sets each track's speed from the forces on it, with no
control loop, so within one segment the body moves at a constant speed.
Each row is therefore computed with one product, not by repeated adds,
whose error grows with the row count: row ``n`` of a run is at time
``n·dt_s``, and row ``k`` of a visit to a segment entered at ``s0`` has the
centre at ``s0 + k·ds``.  Both are monotone in the row number, so a
bisection finds the row where the centre, the front or the rear leaves its
segment, or where the time budget runs out: a run costs per segment, not
per row.

Records are a ``Records`` table: the record of each centre segment visited
once, with its rows as one ``Piece`` of that grid and the row where the
centre leaves it.  ``summarize`` reads each visit's piece for its entry
time; its mean track speeds are the speeds its rows share.  The table
keeps no column: a row is read from its piece, one bisection to find the
visit and one product for each of ``t`` and ``s``.

With equal slip stiffness on all tracks this equilibrium reproduces the
required speeds exactly (the common slip is the mean mismatch, which is
zero by the speed-averaging law), so slip vanishes in bends without any
control input.  That limit behaviour is what the acceptance suite pins.
"""

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import NamedTuple

from .differential import LinearLoad, TransmissionConfig, solve_torque_balance
from .errors import AsymmetryLimit, BadSegment, CompressionLimit, EmptySweep, MaxTimeExceeded
from .errors import OutOfRange, SimulationError
from .errors import require, require_positive
from .geometry import Bend, PipeNetwork, segment_at
from .geometry import pose_at  # noqa: F401  no call left; the bench tracer wraps it by name
from .robot import RobotParams, asymmetry_deg, required_track_speeds, spring_compression
from .robot import track_path_radius

MAX_STEPS = 1_000_000  # most rows a valid scenario may take: max_time_s / dt_s


class Scenario(NamedTuple):
    """Everything one run needs: network, robot, transmission, drive, time grid."""

    network: PipeNetwork
    robot: RobotParams
    transmission: TransmissionConfig
    input_speed_rad_s: float
    slip_stiffness: float
    dt_s: float
    max_time_s: float
    bend_extra_compression_mm: float = 1.5

    def validate(self) -> None:
        """Raise ValidationError naming the field at fault; validates the robot too."""
        require_positive(self, "dt_s", "slip_stiffness", "input_speed_rad_s")
        require(self.dt_s < self.max_time_s < math.inf, "max_time_s", self.max_time_s,
                f"finite and exceed dt_s ({self.dt_s})")
        require(self.max_time_s / self.dt_s <= MAX_STEPS, "max_time_s", self.max_time_s,
                f"at most {MAX_STEPS} steps of dt_s ({self.dt_s})")
        require(0.0 <= self.bend_extra_compression_mm < math.inf, "bend_extra_compression_mm",
                self.bend_extra_compression_mm, ">= 0 and finite")
        self.robot.validate()
        require(self.robot.preload_mm + self.bend_extra_compression_mm < math.inf,
                "bend_extra_compression_mm", self.bend_extra_compression_mm,
                f"such that preload_mm ({self.robot.preload_mm}) plus it is finite")
        # Finite factors can still multiply to 0 or inf.  Blame the one
        # farthest from 1; ties go to the input speed.
        factors = {
            "input_speed_rad_s": self.input_speed_rad_s,
            "ring_ratio": self.transmission.ring_ratio,
            "output_ratio": self.transmission.output_ratio,
            "sprocket_radius_mm": self.robot.sprocket_radius_mm,
        }
        culprit = max(factors, key=lambda name: abs(math.log(factors[name])))
        speed = self.center_speed_mm_s
        require(0.0 < speed < math.inf, culprit, factors[culprit],
                f"such that the centerline speed ({speed} mm/s) is > 0 and finite")
        # A bend's tracks run at speed * (R + h cos q) / R: keep the fastest
        # finite, the slowest, an APE reference, > 0 and the slip torque of the
        # widest mismatch, speed * h / R, finite.  ``run`` rejects R <= h.
        h = self.robot.contact_radius_mm
        for index, seg in enumerate(self.network.segments):
            if not isinstance(seg, Bend):
                continue
            if not speed * (seg.bend_radius + h) < math.inf:
                raise BadSegment(f"must keep the track speeds finite at {speed} mm/s, got "
                                 f"{seg.bend_radius}", index, "bend_radius")
            slowest = speed * (seg.bend_radius - h) / seg.bend_radius
            require(seg.bend_radius <= h or slowest > 0.0, culprit, factors[culprit],
                    f"such that every bend track speed (down to {slowest} mm/s) is > 0")
            mismatch = speed * h / seg.bend_radius
            require(self.slip_stiffness * mismatch < math.inf, "slip_stiffness",
                    self.slip_stiffness,
                    f"such that the slip torque of a {mismatch} mm/s speed mismatch is finite")

    @property
    def center_speed_mm_s(self) -> float:
        """Nominal centerline speed: geared-down input at the sprocket."""
        return (
            self.transmission.overall_ratio
            * self.input_speed_rad_s
            * self.robot.sprocket_radius_mm
        )


class SimRecord(NamedTuple):
    """One timestep: speeds and spring state per track plus the torque level."""

    t: float
    s: float
    segment_index: int
    track_speeds: tuple[float, float, float]  # mm/s
    required_speeds: tuple[float, float, float]  # mm/s
    slip: tuple[float, float, float]  # mm/s, track - required
    compressions: tuple[float, float, float]  # mm
    common_torque: float  # N*m


class Piece(NamedTuple):
    """``rows`` consecutive rows of one centre segment's visit: row ``k``
    (from 0) is row ``n + k`` of the run, at ``t = (n + k)·dt``, with the
    centre at ``s + k·ds``: one product and one add, so a row's error does
    not grow with the rows before it."""

    n: int
    dt: float
    s: float
    ds: float
    rows: int

    @property
    def t(self) -> float:
        """The time of the first row."""
        return self.n * self.dt

    def finite(self) -> tuple[bool, bool]:
        """Whether every ``t`` and every ``s`` is finite.  Each is monotone
        in the row number, so the first and last rows tell."""
        n, dt, s, ds, rows = self
        ends = 0, rows - 1
        return (all(math.isfinite((n + k) * dt) for k in ends),
                all(math.isfinite(s + k * ds) for k in ends))


class Records(Sequence):
    """A run's records, run-end encoded after Apache Arrow's layout.

    Rows with the centre in one segment share every field but ``t`` and
    ``s``, so ``values[j]`` holds the record of the ``j``-th centre segment
    visited, ``pieces[j]`` its rows as one ``Piece``, and
    ``run_ends[j]`` is the row where the centre leaves it; all three are
    tuples, and every run has at least one row.  The table holds nothing
    else: indexing by row number bisects ``run_ends`` for the visit and
    computes the row with ``Piece``'s formula, and iteration computes each
    row the same way.  Both give ``SimRecord`` rows, each built with
    ``tuple.__new__`` from ``t``, ``s`` and the fields after them, which every
    row of a visit shares; two tables are equal when their rows are.
    """

    def __init__(self, values, pieces):
        self.values = tuple(values)
        self.pieces = tuple(pieces)
        self.run_ends = tuple(accumulate(p.rows for p in self.pieces))

    def __len__(self) -> int:
        return self.run_ends[-1] if self.run_ends else 0

    def __getitem__(self, key):
        row = range(len(self))[operator.index(key)]  # IndexError past either end
        j = bisect_right(self.run_ends, row)
        n, dt, s, ds, rows = self.pieces[j]
        k = row - self.run_ends[j] + rows
        return tuple.__new__(SimRecord, ((n + k) * dt, s + k * ds, *self.values[j][2:]))

    def __iter__(self):
        for value, (n, dt, s, ds, rows) in zip(self.values, self.pieces):
            shared = value[2:]
            for k in range(rows):
                yield tuple.__new__(SimRecord, ((n + k) * dt, s + k * ds, *shared))

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Records({len(self)} rows, {len(self.values)} segments)"


class SegmentStats(NamedTuple):
    """Aggregates over the records logged inside one segment."""

    index: int
    kind: str
    entry_time: float
    exit_time: float
    mean_track_speeds: tuple[float, float, float]
    analytic_speeds: tuple[float, float, float]
    ape_percent: tuple[float, float, float]


class SimSummary(NamedTuple):
    """Run-level aggregates; per-track APE is the worst over all segments."""

    segments: tuple[SegmentStats, ...]
    per_track_ape_percent: tuple[float, float, float]
    max_abs_slip: float
    max_compression: float
    finish_time: float
    final_s: float
    total_distance_mm: float


class SweepEntry(NamedTuple):
    """One orientation of a sweep; ``error`` is set when that run failed."""

    orientation_deg: float
    summary: SimSummary | None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def ape(measured: float, theoretical: float) -> float:
    """Absolute percentage error of a measurement against a nonzero reference."""
    return 100.0 * abs(measured - theoretical) / abs(theoretical)


def step(scenario: Scenario, t: float, s: float) -> SimRecord:
    """The equilibrium at time ``t`` with the body centre at arc length ``s``.

    Solves the torque balance against the slip loads built from the
    required speeds at the centre segment's curvature, and raises the
    centre's ``_compression_error``.  The body's front and rear, and
    advancing ``t`` and ``s``, are left to ``run``.  It calls the robot and
    the solve through this module's names, which ``bench/tracing.py`` wraps.
    """
    network, robot = scenario.network, scenario.robot
    if not 0.0 <= s <= network.total_length:
        raise OutOfRange(f"arc length {s} outside [0, {network.total_length}]")
    index = segment_at(network, s)
    curvature = network.curvatures[index]

    required = ra, rb, rc = required_track_speeds(curvature, scenario.center_speed_mm_s, robot)
    compressions = spring_compression(curvature, robot, scenario.bend_extra_compression_mm)
    error = _compression_error(robot, compressions)
    if error:
        raise error

    k, r = scenario.slip_stiffness, robot.sprocket_radius_mm
    loads = LinearLoad(k, r, ra), LinearLoad(k, r, rb), LinearLoad(k, r, rc)
    (wa, wb, wc), torque, _ = solve_torque_balance(scenario.input_speed_rad_s, loads,
                                                  scenario.transmission)
    va, vb, vc = wa * r, wb * r, wc * r
    return SimRecord(t, s, index, (va, vb, vc), required, (va - ra, vb - rb, vc - rc),
                     compressions, torque)


def _compression_error(robot: RobotParams, compressions: tuple) -> CompressionLimit | None:
    """The CompressionLimit of springs at ``compressions`` (mm) over the
    robot's budget, naming the first of the largest, or None."""
    worst = max(range(3), key=compressions.__getitem__)
    if compressions[worst] > robot.max_compression_mm:
        return CompressionLimit(f"module {'ABC'[worst]} needs {compressions[worst]:.3f} mm, "
                                f"over the {robot.max_compression_mm} mm limit")
    return None


def _tilt_error(robot: RobotParams, front: tuple, rear: tuple) -> AsymmetryLimit | None:
    """The AsymmetryLimit of the tilt between ``front`` and ``rear``
    compressions over the robot's limit, naming the first of the largest, or None."""
    tilt = asymmetry_deg(front, rear, robot)
    worst = max(range(3), key=tilt.__getitem__)
    if tilt[worst] > robot.max_asym_deg:
        return AsymmetryLimit(f"module {'ABC'[worst]} tilts {tilt[worst]:.3f} deg, over the "
                              f"{robot.max_asym_deg} deg limit")
    return None


def _check_rows(scenario: Scenario, failing: dict, s: float, ds: float, rows: int) -> None:
    """Raise ``failing[pair]`` on the first of ``rows`` rows, row ``k`` at
    ``s + k·ds``, with the body's front and rear on a ``pair`` of kinds in
    ``failing``.  The segment under each end is monotone in ``k``, so one
    bisection finds the next row where either moves."""
    network, half = scenario.network, scenario.robot.length_mm / 2.0

    def ends(x):
        return segment_at(network, x + half), segment_at(network, x - half)

    row, pair = 0, ends(s)
    while row < rows:
        front, rear = pair
        error = failing.get((network.curvatures[front] != 0.0, network.curvatures[rear] != 0.0))
        if error:
            raise error
        row = bisect_left(range(rows), True, row + 1, key=lambda k: ends(s + k * ds) != pair)
        pair = ends(s + row * ds)


def first_exit(x: float, d: float, low: float, high: float, count: int) -> tuple[int, float]:
    """The first ``k`` in 1..``count`` with ``x + k·d`` outside ``[low,
    high)``, and ``x + k·d``; ``(count, x + count·d)`` if there is none.
    ``x + k·d`` is monotone in ``k``, so from an ``x`` in ``[low, high)``
    the rows outside follow all those inside, and a bisection finds the
    first: d zero, negative, NaN or overflowing to inf needs no case of
    its own."""
    k = min(bisect_left(range(count + 1), True, 1,
                        key=lambda k: not low <= x + k * d < high), count)
    return k, x + k * d


def run(scenario: Scenario) -> tuple[Records, SimSummary]:
    """Run until the network ends; MaxTimeExceeded carries partial results.

    ``step`` solves, and checks the centre's compression on, the first row
    of each centre curvature; a later segment reuses that record.  So
    ``step`` sees the first row with the centre in each kind of segment, and
    the centre's compression needs no other check.  The front and rear
    limits are checked here alone: each pair of kinds the network has maps
    to the first limit it breaks (the front's compression, the rear's, the
    tilt), and only such a pair sends ``_check_rows`` after the body's ends.

    Row ``n`` is at ``t = n·dt_s``, and the run's last row is the last with
    ``t`` below the time budget ``limit``.  ``n·dt_s`` is monotone in
    ``n``, so one bisection finds the first row at or past it, ``end``,
    among rows 0 to ``int(limit / dt)``, or else the row after them: the
    float quotient is at least the greatest integer under the exact one, so
    that row number is past the exact quotient, and its ``t`` is at or past
    ``limit``.  Each centre segment visited is one ``Piece``: its ``ds`` is
    ``dt_s`` times the mean track speed, and ``first_exit`` finds the row
    where the centre leaves the segment, or ``end``, and the ``s`` there.
    There the run checks the float range, then the time budget, then the
    network end, then the network start.
    """
    network, robot = scenario.network, scenario.robot
    dt, limit, total = scenario.dt_s, scenario.max_time_s, network.total_length
    bounds = network.cumulative_lengths
    kinds = {int(c != 0.0) for c in network.curvatures}  # no end is ever on another kind
    springs, over = {}, {}  # kind -> its springs' compression, and the limit it breaks
    for bend in kinds:  # only whether a curvature is 0 matters
        springs[bend] = spring_compression(float(bend), robot, scenario.bend_extra_compression_mm)
        over[bend] = _compression_error(robot, springs[bend])
    failing = {}  # (front, rear) pair of kinds -> the first limit it breaks
    for front, rear in itertools.product(kinds, repeat=2):
        error = over[front] or over[rear] or _tilt_error(robot, springs[front], springs[rear])
        if error:
            failing[front, rear] = error
    solved = {}  # centre curvature -> the record ``step`` solved there
    values, pieces = [], []  # per centre segment visited: its record, its rows' piece
    end = bisect_left(range(int(limit / dt) + 1), True, key=lambda n: n * dt >= limit)

    n, s = 0, 0.0
    while True:
        t = n * dt
        if n >= end:
            records = Records(values, pieces)
            raise MaxTimeExceeded(
                f"robot did not finish within {limit} s "
                f"(reached {s:.1f} of {total:.1f} mm)",
                records=records,
                summary=summarize(records, scenario, t, s) if records else None,
            )
        if s >= total:
            break
        if s < 0.0:  # a robot that slid back past the start
            raise OutOfRange(f"arc length {s} outside [0, {total}]")
        index = segment_at(network, s)
        curvature = network.curvatures[index]
        record = solved.get(curvature)
        if record is None:
            record = solved[curvature] = step(scenario, t, s)
        else:
            record = tuple.__new__(SimRecord, (t, s, index, *record[3:]))
        w0, w1, w2 = record.track_speeds
        ds = dt * (0.0 + w0 + w1 + w2) / 3.0
        # The centre stays in this segment while low <= s < high; row 0,
        # (t, s), is in it and within the budget.  A robot that does not
        # advance (ds underflows to 0) runs on the time budget alone.
        low, high = bounds[index - 1] if index else 0.0, bounds[index]
        k, s_next = first_exit(s, ds, low, high, end - n)
        if failing:
            _check_rows(scenario, failing, s, ds, k)
        values.append(record)
        pieces.append(Piece(n, dt, s, ds, k))
        n, s = n + k, s_next
        if not math.isfinite(s):  # inf or NaN on to this row
            raise SimulationError(f"arc length left the float range ({s} mm) at {n * dt} s: "
                                  f"dt_s ({dt}) times the track speed is too large")
    records = Records(values, pieces)
    return records, summarize(records, scenario, n * dt, s)


def analytic_track_speeds(scenario: Scenario, segment_index: int) -> tuple[float, float, float]:
    """Reference per-track speeds inside one segment (mm/s)."""
    center = scenario.center_speed_mm_s
    seg = scenario.network.segments[segment_index]
    if not isinstance(seg, Bend):
        return (center, center, center)
    h, radius = scenario.robot.contact_radius_mm, seg.bend_radius
    qa, qb, qc = scenario.robot.module_angles_deg
    return (center * track_path_radius(radius, h, qa) / radius,
            center * track_path_radius(radius, h, qb) / radius,
            center * track_path_radius(radius, h, qc) / radius)


def summarize(records: Records, scenario: Scenario, finish_time: float,
              final_s: float) -> SimSummary:
    """Aggregate records into per-segment and run-level statistics; the run
    ended at ``finish_time`` with the body centre at ``final_s``.  Each visit
    runs from its piece's ``t`` to the next's (the last to ``finish_time``)
    and gives its mean track speeds, the speeds its rows share, reference
    speeds and APEs; each track's worst APE is ``max`` over them in run
    order."""
    segments, values, pieces = scenario.network.segments, records.values, records.pieces
    segment_stats = []
    worst_a = worst_b = worst_c = 0.0
    exits = itertools.chain((piece.t for piece in pieces[1:]), (finish_time,))
    for value, piece, exit_time in zip(values, pieces, exits):
        index = value.segment_index
        means = ma, mb, mc = value.track_speeds
        analytic = aa, ab, ac = analytic_track_speeds(scenario, index)
        errors = ea, eb, ec = ape(ma, aa), ape(mb, ab), ape(mc, ac)
        worst_a, worst_b, worst_c = max(worst_a, ea), max(worst_b, eb), max(worst_c, ec)
        kind = "bend" if isinstance(segments[index], Bend) else "straight"
        segment_stats.append(SegmentStats(index, kind, piece.t, exit_time, means, analytic, errors))

    # Maxima over segments are maxima over rows.
    return SimSummary(tuple(segment_stats), (worst_a, worst_b, worst_c),
                      max([max(map(abs, r.slip)) for r in values]),
                      max([max(r.compressions) for r in values]), finish_time, final_s,
                      max(0.0, final_s - scenario.robot.length_mm))


def sweep_orientation(scenario: Scenario, orientations_deg) -> list[SweepEntry]:
    """Run the scenario once per orientation, tolerating per-run failures."""
    orientations = list(orientations_deg)
    if not orientations:
        raise EmptySweep("orientation sweep needs at least one angle")
    entries = []
    for theta in orientations:
        oriented = scenario._replace(robot=scenario.robot._replace(orientation_deg=theta))
        try:
            oriented.robot.validate()  # ValidationError, not a failed run, for a bad angle
            _, summary = run(oriented)
            entries.append(SweepEntry(orientation_deg=theta, summary=summary))
        except SimulationError as exc:
            entries.append(SweepEntry(orientation_deg=theta, summary=None, error=exc))
    return entries
