"""Quasi-static traversal of a pipe network.

Each step solves a static equilibrium instead of integrating dynamics: the
local pipe geometry dictates per-track required speeds, the speed mismatch
of each track produces a resistive torque through a linear slip law, and
the differential settles where all three torques are equal while the mean
output speed stays pinned to the input.  The body then advances along the
centerline by the mean track speed.

``run`` owns the time grid: it advances the time ``t`` and the body-centre
arc length ``s``, decides when the run ends and alone checks the limits
under the body's front and rear; ``step`` only solves the equilibrium at a
given ``t`` and ``s`` and checks the centre's springs.  Both read segment
curvatures, not frames: the equilibrium depends only on the centre's, the
limits only on whether the centre, front and rear are in bends.  So ``run``
solves once per centre curvature and tries the end limits once for each of
the four (front, rear) pairs of kinds; only a pair that fails sends it to
look up the body's ends on each row, and the first such row raises.  A
cumulative sum fills each segment's ``t`` and ``s``, so the physics costs
per segment and each row a few array elements.

Records are a ``Records`` table of columns: ``t`` and ``s`` per row, and the
record of each centre segment visited once, with the row where the centre
leaves it.  ``summarize`` and the CSV writer read the columns; indexing and
iteration give ``SimRecord`` rows.  Only per-row data are numpy arrays, the
columns and the masks and lookups that fill them; per-segment values are not.

With equal slip stiffness on all tracks this equilibrium reproduces the
required speeds exactly (the common slip is the mean mismatch, which is
zero by the speed-averaging law), so slip vanishes in bends without any
control input.  That limit behaviour is what the acceptance suite pins.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .differential import LinearLoad, TransmissionConfig, solve_torque_balance
from .errors import AsymmetryLimit, BadSegment, CompressionLimit, EmptySweep, MaxTimeExceeded
from .errors import SimulationError
from .errors import require, require_positive
from .geometry import Bend, PipeNetwork, pose_at, segment_at
from .robot import RobotParams, asymmetry_deg, required_track_speeds, spring_compression
from .robot import track_path_radius

MAX_STEPS = 1_000_000  # most rows a valid scenario may take: max_time_s / dt_s


@dataclass(frozen=True, eq=False)
class Scenario:
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


@dataclass(frozen=True)
class SimRecord:
    """One timestep: speeds and spring state per track plus the torque level."""

    t: float
    s: float
    segment_index: int
    track_speeds: tuple[float, float, float]  # mm/s
    required_speeds: tuple[float, float, float]  # mm/s
    slip: tuple[float, float, float]  # mm/s, track - required
    compressions: tuple[float, float, float]  # mm
    common_torque: float  # N*m


class Records(Sequence):
    """A run's records as columns, after Apache Arrow's run-end encoding.

    ``t`` and ``s`` are float64 columns with one value per row.  Rows with
    the centre in one segment share every other field, so ``values[j]``
    holds the record of the ``j``-th centre segment visited and
    ``run_ends[j]`` is the row where the centre leaves it; both are tuples.
    Every run has at least one row.  Indexing by row number and iteration
    give ``SimRecord`` rows; two tables are equal when their rows are.
    """

    def __init__(self, t, s, values, run_ends):
        self.t = t
        self.s = s
        self.values = tuple(values)
        self.run_ends = tuple(map(operator.index, run_ends))

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key):
        row = range(len(self))[operator.index(key)]  # IndexError past either end
        value = self.values[bisect_right(self.run_ends, row)]
        return replace(value, t=float(self.t[row]), s=float(self.s[row]))

    def __iter__(self):
        for value, t, s in self.runs():
            for t_row, s_row in zip(t.tolist(), s.tolist()):
                yield replace(value, t=t_row, s=s_row)

    def runs(self):
        """(record, t column, s column) per centre segment visited, in row order."""
        start = 0
        for value, end in zip(self.values, self.run_ends):
            yield value, self.t[start:end], self.s[start:end]
            start = end

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Records({len(self)} rows, {len(self.values)} segments)"


@dataclass(frozen=True)
class SegmentStats:
    """Aggregates over the records logged inside one segment."""

    index: int
    kind: str
    entry_time: float
    exit_time: float
    mean_track_speeds: tuple[float, float, float]
    analytic_speeds: tuple[float, float, float]
    ape_percent: tuple[float, float, float]


@dataclass(frozen=True)
class SimSummary:
    """Run-level aggregates; per-track APE is the worst over all segments."""

    segments: tuple[SegmentStats, ...]
    per_track_ape_percent: tuple[float, float, float]
    max_abs_slip: float
    max_compression: float
    finish_time: float
    final_s: float
    total_distance_mm: float


@dataclass(frozen=True)
class SweepEntry:
    """One orientation of a sweep; ``error`` is set when that run failed."""

    orientation_deg: float
    summary: SimSummary | None
    error: Exception | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


def ape(measured: float, theoretical: float) -> float:
    """Absolute percentage error of a measurement against a nonzero reference."""
    return 100.0 * abs(measured - theoretical) / abs(theoretical)


def step(scenario: Scenario, t: float, s: float) -> SimRecord:
    """The equilibrium at time ``t`` with the body centre at arc length ``s``.

    Solves the torque balance against the slip loads built from the
    required speeds at the centre segment's curvature, and checks the
    centre's springs.  The body's front and rear, and advancing ``t`` and
    ``s``, are left to ``run``.
    """
    network, robot = scenario.network, scenario.robot
    if not 0.0 <= s <= network.total_length:
        pose_at(network, s)  # raises OutOfRange
    index = segment_at(network, s)
    curvature = network.curvatures[index]

    required = required_track_speeds(curvature, scenario.center_speed_mm_s, robot)
    compressions = spring_compression(curvature, robot, scenario.bend_extra_compression_mm)

    loads = [LinearLoad(scenario.slip_stiffness, robot.sprocket_radius_mm, v) for v in required]
    balance = solve_torque_balance(scenario.input_speed_rad_s, loads, scenario.transmission)
    track_speeds = tuple(w * robot.sprocket_radius_mm for w in balance.output_speeds)

    return SimRecord(
        t=t,
        s=s,
        segment_index=index,
        track_speeds=track_speeds,
        required_speeds=required,
        slip=tuple(v - r for v, r in zip(track_speeds, required)),
        compressions=compressions,
        common_torque=balance.common_torque,
    )


def _check_ends(scenario: Scenario, front: float, rear: float) -> None:
    """Check the compression under the body's front and rear, at curvatures
    ``front`` and ``rear``, then the tilt between them.  Only whether each
    is a bend matters."""
    robot, extra = scenario.robot, scenario.bend_extra_compression_mm
    asymmetry_deg(spring_compression(front, robot, extra),
                  spring_compression(rear, robot, extra), robot)


def _accumulate(start: float, increment: float, count: int) -> np.ndarray:
    """``start`` and ``count`` repeated additions of ``increment``.  The sum
    runs in sequence, so each value has the bits of ``x = x + increment``."""
    column = np.full(count + 1, increment)
    column[0] = start
    return np.cumsum(column, out=column)


def run(scenario: Scenario) -> tuple[Records, SimSummary]:
    """Run until the network ends; MaxTimeExceeded carries partial results.

    ``step`` solves, and checks the centre's compression on, the first row
    of each centre curvature; a later segment reuses that record.  So
    ``step`` sees the first row with the centre in each kind of segment, and
    the centre's compression needs no other check.  The front and rear
    limits are checked here alone, once per pair of kinds under them; only
    if a pair fails are the rows' ends looked up, and the first row on such
    a pair raises, after its centre's solve.  Each row advances ``t`` by
    ``dt_s`` and ``s`` by ``dt_s`` times the mean track speed.
    Where the centre leaves its segment, the run checks the float range,
    then the time budget, then the network end, then the network start.
    """
    network = scenario.network
    dt, limit, total = scenario.dt_s, scenario.max_time_s, network.total_length
    bounds = network.cumulative_lengths
    half = scenario.robot.length_mm / 2.0
    is_bend = np.asarray(network.curvatures) != 0.0
    fails = np.zeros((2, 2), dtype=bool)  # [front is a bend, rear is a bend]
    for bends in np.ndindex(fails.shape):
        try:  # only whether a curvature is 0 matters
            _check_ends(scenario, *map(float, bends))
        except (CompressionLimit, AsymmetryLimit):
            fails[bends] = True
    solved = {}  # centre curvature -> the record ``step`` solved there
    t_columns, s_columns, values, run_ends = [], [], [], []

    def table() -> Records:
        return Records(np.concatenate([np.empty(0), *t_columns]),
                       np.concatenate([np.empty(0), *s_columns]), values, run_ends)

    rows = 0
    t = s = 0.0
    while True:
        if t >= limit:
            records = table()
            raise MaxTimeExceeded(
                f"robot did not finish within {limit} s "
                f"(reached {s:.1f} of {total:.1f} mm)",
                records=records,
                summary=summarize(records, scenario, t, s) if records else None,
            )
        if s >= total:
            break
        if s < 0.0:  # a robot that slid back past the start
            pose_at(network, s)  # raises OutOfRange, as ``step`` does here
        index = segment_at(network, s)
        curvature = network.curvatures[index]
        if curvature in solved:
            record = replace(solved[curvature], t=t, s=s, segment_index=index)
        else:
            record = solved[curvature] = step(scenario, t, s)
        w0, w1, w2 = record.track_speeds
        ds = dt * (0.0 + w0 + w1 + w2) / 3.0
        values.append(record)
        # The centre stays in this segment while low <= s < high.
        low, high = bounds[index - 1] if index else 0.0, bounds[index]
        stays = True
        while stays:
            # Rows up to the segment end or the time budget; the margin covers
            # rounding, and a short guess only extends the fill.  A robot
            # that does not advance (ds underflows to 0, or the solve leaves a
            # tiny negative mean speed) runs on the time budget alone.
            to_end = (high - s) / ds if ds > 0 else math.inf
            count = int(min(to_end, (limit - t) / dt, MAX_STEPS)) + 2
            t_rows, s_rows = _accumulate(t, dt, count), _accumulate(s, ds, count)
            # The run leaves this segment at the first row over budget or
            # with the centre elsewhere; row 0, (t, s), is neither.
            keep = (t_rows < limit) & (s_rows < high) & (s_rows >= low)
            stays = bool(keep.all())
            k = count if stays else int(np.argmin(keep))
            if fails.any():
                front = is_bend[segment_at(network, s_rows[:k] + half)].astype(np.intp)
                rear = is_bend[segment_at(network, s_rows[:k] - half)].astype(np.intp)
                failing = fails[front, rear]
                if failing.any():  # raises on the first row with the ends on a failing pair
                    row = int(np.argmax(failing))
                    _check_ends(scenario, float(front[row]), float(rear[row]))
            t_columns.append(t_rows[:k])
            s_columns.append(s_rows[:k])
            rows += k
            t, s = float(t_rows[k]), float(s_rows[k])
            if not math.isfinite(s):  # cumsum carries inf or NaN on to this row
                raise SimulationError(f"arc length left the float range ({s} mm) at {t} s: "
                                      f"dt_s ({dt}) times the track speed is too large")
        run_ends.append(rows)
    records = table()
    return records, summarize(records, scenario, t, s)


def analytic_track_speeds(scenario: Scenario, segment_index: int) -> tuple[float, float, float]:
    """Reference per-track speeds inside one segment (mm/s)."""
    center = scenario.center_speed_mm_s
    seg = scenario.network.segments[segment_index]
    if not isinstance(seg, Bend):
        return (center, center, center)
    h = scenario.robot.contact_radius_mm
    return tuple(
        center * track_path_radius(seg.bend_radius, h, angle) / seg.bend_radius
        for angle in scenario.robot.module_angles_deg
    )


def _copies_sum(v: float, n: int, memo: dict) -> float:
    """numpy's pairwise sum of ``n`` copies of ``v`` (``pairwise_sum`` in
    numpy/_core/src/umath/loops_utils.h.src): fewer than 8 in sequence from
    0.0, up to 128 in eight accumulators and then the rest, more split at
    ``n // 2`` rounded down to a multiple of 8.  ``memo`` holds the sum of
    each size met, so the split costs O(log n) adds."""
    total = memo.get(n)
    if total is None:
        if n < 8:
            total = 0.0
            for _ in range(n):
                total += v
        elif n <= 128:
            block = v  # each accumulator: n // 8 copies, in sequence
            for _ in range(n // 8 - 1):
                block += v
            pair = block + block  # the eight are equal, so each pair is too
            total = (pair + pair) + (pair + pair)
            for _ in range(n % 8):
                total += v
        else:
            half = n // 2 - n // 2 % 8
            total = _copies_sum(v, half, memo) + _copies_sum(v, n - half, memo)
        memo[n] = total
    return total


def mean_of_copies(v: float, n: int) -> float:
    """``float(np.mean(np.full(n, v)))`` bit for bit, sign of zero included,
    without the array: numpy's reduction starts from +0.0, then divides by ``n``."""
    return (0.0 + _copies_sum(v, n, {})) / n


def summarize(records: Records, scenario: Scenario, finish_time: float,
              final_s: float) -> SimSummary:
    """Aggregate records into per-segment and run-level statistics; the run
    ended at ``finish_time`` with the body centre at ``final_s``."""
    segment_stats = []
    per_track_ape = (0.0, 0.0, 0.0)
    ends = records.run_ends
    for pos, (value, end) in enumerate(zip(records.values, ends)):
        first = ends[pos - 1] if pos else 0
        index = value.segment_index
        exit_time = float(records.t[end]) if pos + 1 < len(ends) else finish_time
        # The mean over the run's rows of a value they all share, with the
        # bits of np.mean over those rows.
        mean_speeds = tuple(mean_of_copies(v, end - first) for v in value.track_speeds)
        analytic = analytic_track_speeds(scenario, index)
        errors = tuple(ape(m, a) for m, a in zip(mean_speeds, analytic))
        per_track_ape = tuple(map(max, per_track_ape, errors))
        segment_stats.append(
            SegmentStats(
                index=index,
                kind="bend" if isinstance(scenario.network.segments[index], Bend) else "straight",
                entry_time=float(records.t[first]),
                exit_time=exit_time,
                mean_track_speeds=mean_speeds,
                analytic_speeds=analytic,
                ape_percent=errors,
            )
        )

    # Maxima over segments are maxima over rows.
    max_slip = max(max(abs(v) for v in r.slip) for r in records.values)
    max_comp = max(max(r.compressions) for r in records.values)
    return SimSummary(
        segments=tuple(segment_stats),
        per_track_ape_percent=per_track_ape,
        max_abs_slip=max_slip,
        max_compression=max_comp,
        finish_time=finish_time,
        final_s=final_s,
        total_distance_mm=max(0.0, final_s - scenario.robot.length_mm),
    )


def sweep_orientation(scenario: Scenario, orientations_deg) -> list[SweepEntry]:
    """Run the scenario once per orientation, tolerating per-run failures."""
    orientations = list(orientations_deg)
    if not orientations:
        raise EmptySweep("orientation sweep needs at least one angle")
    entries = []
    for theta in orientations:
        oriented = replace(
            scenario, robot=replace(scenario.robot, orientation_deg=theta)
        )
        try:
            oriented.robot.validate()  # ValidationError, not a failed run, for a bad angle
            _, summary = run(oriented)
            entries.append(SweepEntry(orientation_deg=theta, summary=summary))
        except SimulationError as exc:
            entries.append(SweepEntry(orientation_deg=theta, summary=None, error=exc))
    return entries
