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
solves once per centre curvature, computes the springs' compression once
for each kind of segment (bend or straight) the network has, and from those
tries the tilt of each (front, rear) pair of kinds; only a pair that fails
sends it to find the rows where the body's front or rear crosses a
boundary, and the first row on such a pair raises.  Within a segment ``t``
and ``s`` advance by constant steps, so ``first_exit`` finds the row where
the centre, the front or the rear leaves its segment, and the ``(t, s)``
there, in closed form from the float arithmetic of repeated adds: a run
costs per segment, not per row.

Records are a ``Records`` table: the record of each centre segment visited
once, with its rows as one ``Piece`` progression of ``t`` and ``s`` and the
row where the centre leaves it.  ``summarize`` reads each visit's piece for
its entry time and row count, and takes its three mean track speeds from one
pairwise sum of copies; the writers build one chunk of rows at a time.

With equal slip stiffness on all tracks this equilibrium reproduces the
required speeds exactly (the common slip is the mean mismatch, which is
zero by the speed-averaging law), so slip vanishes in bends without any
control input.  That limit behaviour is what the acceptance suite pins.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate, repeat
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


class Piece(NamedTuple):
    """``rows`` consecutive rows of one centre segment's run: the first at
    ``(t, s)``, each later one adding ``dt`` to ``t`` and ``ds`` to ``s``
    in sequence, as ``x = x + d``."""

    t: float
    dt: float
    s: float
    ds: float
    rows: int

    def finite(self) -> tuple[bool, bool]:
        """Whether every ``t`` and every ``s`` is finite."""
        n = self.rows - 1
        return _finite(self.t, self.dt, n), _finite(self.s, self.ds, n)


def _finite(x: float, d: float, n: int) -> bool:
    """Whether ``x`` and its ``n`` adds of ``d`` are all finite.  An add that
    moves ``x`` moves it by at most three times ``|d|``, so
    ``|x_n| <= |x| + 3·n·|d|``; only a column whose bound passes 2**1023,
    half the float range, which leaves room for the bound's own rounding,
    needs ``first_exit`` to find its last row."""
    return math.isfinite(x) and (abs(x) + 3.0 * n * abs(d) <= 2.0 ** 1023
                                 or math.isfinite(first_exit(x, d, -math.inf, math.inf, n)[1]))


def piece_rows(piece: Piece, size: int):
    """The rows of ``piece`` in the writers' chunks: flat lists of floats,
    ``t`` and ``s`` interleaved, ``size`` rows to a list (the last may be
    shorter), with the bits of the columns; one more add starts the next."""
    t, dt, s, ds, rows = piece
    while rows:
        n = min(rows, size)
        flat = [0.0] * (2 * n)
        flat[::2] = accumulate(repeat(dt, n - 1), initial=t)  # adds in sequence
        flat[1::2] = accumulate(repeat(ds, n - 1), initial=s)
        yield flat
        t, s, rows = flat[-2] + dt, flat[-1] + ds, rows - n


# The fields after ``t`` and ``s``, which every row of a run shares.
_shared = operator.attrgetter("segment_index", "track_speeds", "required_speeds", "slip",
                              "compressions", "common_torque")


class Records(Sequence):
    """A run's records, run-end encoded after Apache Arrow's layout.

    Rows with the centre in one segment share every field but ``t`` and
    ``s``, so ``values[j]`` holds the record of the ``j``-th centre segment
    visited, ``pieces[j]`` its rows as one ``Piece`` progression, and
    ``run_ends[j]`` is the row where the centre leaves it; all three are
    tuples, and every run has at least one row.  The columns ``t`` and
    ``s`` are each an ``array('d')``, built on its first read and kept.
    Indexing by row number reads the columns; iteration makes each piece's
    rows by the same adds and builds no column.  Both give ``SimRecord``
    rows, and two tables are equal when their rows are.
    """

    def __init__(self, values, pieces):
        self.values = tuple(values)
        self.pieces = tuple(pieces)
        self.run_ends = tuple(accumulate(p.rows for p in self.pieces))

    def __len__(self) -> int:
        return self.run_ends[-1] if self.run_ends else 0

    @functools.cached_property
    def t(self) -> array:
        """Time (s) per row."""
        return array("d", itertools.chain.from_iterable(
            accumulate(repeat(p.dt, p.rows - 1), initial=p.t) for p in self.pieces))

    @functools.cached_property
    def s(self) -> array:
        """Centre arc length (mm) per row."""
        return array("d", itertools.chain.from_iterable(
            accumulate(repeat(p.ds, p.rows - 1), initial=p.s) for p in self.pieces))

    def __getitem__(self, key):
        row = range(len(self))[operator.index(key)]  # IndexError past either end
        value = self.values[bisect_right(self.run_ends, row)]
        return SimRecord(self.t[row], self.s[row], *_shared(value))

    def __iter__(self):
        for value, (t, dt, s, ds, rows) in zip(self.values, self.pieces):
            shared = _shared(value)
            for t_row, s_row in zip(accumulate(repeat(dt, rows - 1), initial=t),
                                    accumulate(repeat(ds, rows - 1), initial=s)):
                yield SimRecord(t_row, s_row, *shared)

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
    ``s``, are left to ``run``.  It calls the robot and the solve through
    this module's names, which ``bench/tracing.py`` wraps.
    """
    network, robot = scenario.network, scenario.robot
    if not 0.0 <= s <= network.total_length:
        raise OutOfRange(f"arc length {s} outside [0, {network.total_length}]")
    index = segment_at(network, s)
    curvature = network.curvatures[index]

    required = ra, rb, rc = required_track_speeds(curvature, scenario.center_speed_mm_s, robot)
    compressions = spring_compression(curvature, robot, scenario.bend_extra_compression_mm)

    k, r = scenario.slip_stiffness, robot.sprocket_radius_mm
    loads = LinearLoad(k, r, ra), LinearLoad(k, r, rb), LinearLoad(k, r, rc)
    (wa, wb, wc), torque, _ = solve_torque_balance(scenario.input_speed_rad_s, loads,
                                                  scenario.transmission)
    va, vb, vc = wa * r, wb * r, wc * r
    return SimRecord(t, s, index, (va, vb, vc), required, (va - ra, vb - rb, vc - rc),
                     compressions, torque)


def _reach(bounds: tuple, i: int, h: float) -> float:
    """The least float ``c`` with ``c + h >= b``, ``b = bounds[i]``: -inf for ``i``
    < 0, inf for the last, which ends no segment for ``segment_at``.  ``c + h``
    rounds to ``b`` or up from the midpoint of ``b`` and the float below it, so
    ``c`` is the float nearest that midpoint less ``h`` (``fsum`` of quarters,
    so no sum overflows) or a neighbour of it."""
    if not 0 <= i < len(bounds) - 1:
        return math.inf if i >= 0 else -math.inf
    b = bounds[i]
    c = 2.0 * math.fsum((math.nextafter(b, -math.inf) / 4.0, -h / 2.0, b / 4.0))
    while c + h < b:
        c = math.nextafter(c, math.inf)
    while math.nextafter(c, -math.inf) + h >= b:
        c = math.nextafter(c, -math.inf)
    return c


def _check_rows(scenario: Scenario, failing: set, s: float, ds: float, rows: int) -> None:
    """Raise on the first of ``rows`` rows, ``s`` and then ``ds`` added in
    sequence, with the body's front and rear on a pair of kinds in ``failing``:
    the springs under each end, then the tilt between them.  ``s + L/2`` rounds
    monotonically in ``s``, so the front keeps its segment while ``s`` stays
    between two ``_reach`` values, and so does the rear: ``first_exit`` finds
    each row where either moves."""
    network, robot = scenario.network, scenario.robot
    bounds, curvatures = network.cumulative_lengths, network.curvatures
    half, extra = robot.length_mm / 2.0, scenario.bend_extra_compression_mm
    row = 0
    while True:
        front, rear = segment_at(network, s + half), segment_at(network, s - half)
        if (curvatures[front] != 0.0, curvatures[rear] != 0.0) in failing:
            asymmetry_deg(spring_compression(curvatures[front], robot, extra),
                          spring_compression(curvatures[rear], robot, extra), robot)
        low = max(_reach(bounds, front - 1, half), _reach(bounds, rear - 1, -half))
        high = min(_reach(bounds, front, half), _reach(bounds, rear, -half))
        n, s = first_exit(s, ds, low, high, rows - 1 - row)
        if low <= s < high:  # no later row has another front or rear
            return
        row += n


_LAST_BINADE = 2.0 ** 1023  # from here on a sum may overflow


def first_exit(x: float, d: float, low: float, high: float, count: int) -> tuple[int, float]:
    """The first ``k`` in 1..``count`` with ``x_k`` outside ``[low, high)``,
    and ``x_k``, where ``x_k`` is ``x`` with ``d`` added ``k`` times in
    sequence (``x = x + d``, as ``accumulate``); ``(count, x_count)`` if
    there is none.

    Inside one binade of spacing ``u`` each add is exact up to one rounding
    to a multiple of ``u``, so while the exact sum stays below the binade's
    top every step adds ``round(d/u)·u`` (Goldberg, "What every computer
    scientist should know about floating-point arithmetic", 1991, §1.2).
    The steps in a binade and the first row at or past ``high`` then follow
    from integer arithmetic in units of ``u``.  A tie rounds to the even
    multiple of ``u``, so it obeys the rule only from an even one.  Where
    the rule proves nothing, the loop adds ``d`` once and tries again: ``d``
    not positive (zero, negative or NaN), ``x`` below ``d`` (or negative),
    ``x`` outside ``[low, high)``, a tie from an odd multiple, and the top
    binade, where a sum may overflow.  Subnormals need no exception: their
    spacing is one ``u`` throughout.  An add that leaves ``x`` as it was
    (``d`` zero, or too small to move it) ends the search.
    """
    k = 0
    while k < count:
        if 0.0 < d <= x < _LAST_BINADE and low <= x < high:
            u = math.ulp(x)
            q = d / u  # exact: u is a power of 2 and q < 2**53
            whole = math.floor(q)
            units = int(x / u)
            if q - whole != 0.5 or units % 2 == 0:
                step = round(q)  # a tie goes to the even neighbour, and units stay even
                # The spacing is u up to 2**53·u (2**-1021 for the subnormals),
                # and the j-th add stays below that while units + (j-1)·step + q < 2**53.
                room = 2**53 - units - whole - 1
                if room >= 0:
                    n = count - k if step == 0 else min(room // step + 1, count - k)
                    if high <= (units + n * step) * u:
                        j = -((units - math.ceil(high / u)) // step)
                        return k + j, (units + j * step) * u
                    k += n
                    x = (units + n * step) * u
                    if k == count:
                        break  # else the next add leaves the binade
        x = x + d
        k += 1
        if not low <= x < high:
            return k, x
        if x + d == x:  # then so is every later add: x stays put
            return count, x
    return k, x


def run(scenario: Scenario) -> tuple[Records, SimSummary]:
    """Run until the network ends; MaxTimeExceeded carries partial results.

    ``step`` solves, and checks the centre's compression on, the first row
    of each centre curvature; a later segment reuses that record.  So
    ``step`` sees the first row with the centre in each kind of segment, and
    the centre's compression needs no other check.  The front and rear
    limits are checked here alone: the compression once per kind the
    network has, and the tilt once per pair of those kinds; only if such a
    pair fails does ``_check_rows`` follow the body's ends, after the
    centre's solve.  Each row advances ``t`` by ``dt_s`` and ``s`` by
    ``dt_s`` times the mean track speed; ``first_exit`` finds the row where
    the centre leaves its segment or the time budget runs out, and its
    ``(t, s)``.  There the run checks the float range, then the time
    budget, then the network end, then the network start.

    Each centre segment visited is one ``Piece``, sized by one
    ``first_exit`` call over ``count = int((limit - t) / dt) + 2`` rows,
    which always reach the time budget ``limit``.  ``run`` expects a
    validated scenario, as ``parse_scenario`` and ``sweep_orientation``'s
    caller give it, so ``limit / dt`` is within ``Scenario.validate``'s cap
    on the rows of a run.  Each add of ``dt`` to ``t`` errs by at most half
    an ulp of a value below ``limit + 2·dt`` (Goldberg 1991, §1.2), and
    subnormal adds are exact, so ``count`` adds fall short of
    ``t + count·dt`` by less than about 1e-4·``dt``: the time column
    reaches ``limit`` within ``count`` rows.
    """
    network, robot = scenario.network, scenario.robot
    dt, limit, total = scenario.dt_s, scenario.max_time_s, network.total_length
    bounds = network.cumulative_lengths
    kinds = {int(c != 0.0) for c in network.curvatures}  # no end is ever on another kind
    compressions = {}  # kind -> its springs' compression, if within the limit
    for bend in kinds:  # only whether a curvature is 0 matters
        try:
            compressions[bend] = spring_compression(float(bend), robot,
                                                    scenario.bend_extra_compression_mm)
        except CompressionLimit:
            pass
    failing = set()  # (front, rear) pairs of kinds over a limit
    for front, rear in itertools.product(kinds, repeat=2):
        try:  # a kind over the compression limit is missing: KeyError
            asymmetry_deg(compressions[front], compressions[rear], robot)
        except (KeyError, AsymmetryLimit):
            failing.add((front, rear))
    solved = {}  # centre curvature -> the record ``step`` solved there
    values, pieces = [], []  # per centre segment visited: its record, its rows' piece

    t = s = 0.0
    while True:
        if t >= limit:
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
            record = SimRecord(t, s, index, *_shared(record)[1:])
        w0, w1, w2 = record.track_speeds
        ds = dt * (0.0 + w0 + w1 + w2) / 3.0
        # The centre stays in this segment while low <= s < high.  The rows
        # run to the time budget; the margin covers rounding.  A robot that
        # does not advance (ds underflows to 0, or the solve leaves a tiny
        # negative mean speed) runs on the time budget alone.
        low, high = bounds[index - 1] if index else 0.0, bounds[index]
        count = int((limit - t) / dt) + 2
        # The run leaves this segment at the first row over budget or with
        # the centre elsewhere; row 0, (t, s), is neither.
        k, s_next = first_exit(s, ds, low, high, count)
        k_t, t_next = first_exit(t, dt, -math.inf, limit, k)
        if k_t < k:  # over budget first
            k, s_next = k_t, first_exit(s, ds, low, high, k_t)[1]
        if failing:
            _check_rows(scenario, failing, s, ds, k)
        values.append(record)
        pieces.append(Piece(t, dt, s, ds, k))
        t, s = t_next, s_next
        if not math.isfinite(s):  # the sum carries inf or NaN on to this row
            raise SimulationError(f"arc length left the float range ({s} mm) at {t} s: "
                                  f"dt_s ({dt}) times the track speed is too large")
    records = Records(values, pieces)
    return records, summarize(records, scenario, t, s)


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


def _copies_sums(v: tuple, n: int, memo: dict) -> tuple:
    """numpy's pairwise sum of ``n`` copies of each of the three floats ``v``
    (``pairwise_sum`` in numpy/_core/src/umath/loops_utils.h.src), each on
    its own: fewer than 8 in sequence from 0.0, up to 128 in eight
    accumulators and then the rest, more split at ``n // 2`` rounded down
    to a multiple of 8.  The split depends on ``n`` alone, so the three
    sums share it, and ``memo`` holds the sums of each size met: O(log n)
    adds."""
    total = memo.get(n)
    if total is None:
        a, b, c = v
        if n < 8:
            x = y = z = 0.0
            for _ in range(n):
                x, y, z = x + a, y + b, z + c
        elif n <= 128:
            x, y, z = v  # each accumulator: n // 8 copies, in sequence
            for _ in range(n // 8 - 1):
                x, y, z = x + a, y + b, z + c
            # The eight are equal, so their sum, (p + p) + (p + p) with p the
            # sum of a pair, is 8 times one: each doubling is exact, or inf.
            x, y, z = 8.0 * x, 8.0 * y, 8.0 * z
            for _ in range(n % 8):
                x, y, z = x + a, y + b, z + c
        else:
            half = n // 2 - n // 2 % 8
            (x, y, z), (p, q, r) = _copies_sums(v, half, memo), _copies_sums(v, n - half, memo)
            x, y, z = x + p, y + q, z + r
        total = memo[n] = (x, y, z)
    return total


def means_of_copies(v: tuple, n: int) -> tuple:
    """``float(np.mean(np.full(n, x)))`` for each of the three floats ``v``,
    bit for bit, sign of zero included, without the arrays: numpy's
    reduction starts from +0.0, then divides by ``n``."""
    x, y, z = _copies_sums(v, n, {})
    return (0.0 + x) / n, (0.0 + y) / n, (0.0 + z) / n


def summarize(records: Records, scenario: Scenario, finish_time: float,
              final_s: float) -> SimSummary:
    """Aggregate records into per-segment and run-level statistics; the run
    ended at ``finish_time`` with the body centre at ``final_s``.  Each visit
    runs from its piece's ``t`` to the next's (the last to ``finish_time``)
    and gives means over its piece's rows, reference speeds and APEs; each
    track's worst APE is ``max`` over them in run order."""
    segments, values, pieces = scenario.network.segments, records.values, records.pieces
    segment_stats = []
    worst_a = worst_b = worst_c = 0.0
    exits = itertools.chain((piece.t for piece in pieces[1:]), (finish_time,))
    for value, piece, exit_time in zip(values, pieces, exits):
        index = value.segment_index
        # The mean over the run's rows of a value they all share, with the
        # bits of np.mean over those rows.
        means = ma, mb, mc = means_of_copies(value.track_speeds, piece.rows)
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
