"""Quasi-static traversal of a pipe network.

Each step solves a static equilibrium instead of integrating dynamics: the
local pipe geometry dictates per-track required speeds, the speed mismatch
of each track produces a resistive torque through a linear slip law, and
the differential settles where all three torques are equal while the mean
output speed stays pinned to the input.  The body then advances along the
centerline by the mean track speed.

With equal slip stiffness on all tracks this equilibrium reproduces the
required speeds exactly (the common slip is the mean mismatch, which is
zero by the speed-averaging law), so slip vanishes in bends without any
control input.  That limit behaviour is what the acceptance suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .differential import LinearLoad, TransmissionConfig, solve_torque_balance
from .errors import EmptySweep, EndOfNetwork, MaxTimeExceeded, SimulationError, ZeroReference
from .errors import require, require_positive
from .geometry import Bend, PipeNetwork, pose_at
from .robot import RobotParams, asymmetry_deg, required_track_speeds, spring_compression
from .robot import track_path_radius


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything one run needs: network, robot, transmission, drive, time grid."""

    network: PipeNetwork
    robot: RobotParams
    transmission: TransmissionConfig
    input_speed_rad_s: float
    slip_stiffness: float
    dt_s: float = 0.01
    max_time_s: float = 120.0
    bend_extra_compression_mm: float = 1.5

    def validate(self) -> None:
        """Raise ValidationError naming the field at fault, then validate the robot."""
        require_positive(self, "dt_s", "slip_stiffness", "input_speed_rad_s")
        require(self.dt_s < self.max_time_s < math.inf, "max_time_s", self.max_time_s,
                f"finite and exceed dt_s ({self.dt_s})")
        require(0.0 <= self.bend_extra_compression_mm < math.inf, "bend_extra_compression_mm",
                self.bend_extra_compression_mm, ">= 0 and finite")
        self.robot.validate()

    @property
    def center_speed_mm_s(self) -> float:
        """Nominal centerline speed: geared-down input at the sprocket."""
        return (
            self.transmission.overall_ratio
            * self.input_speed_rad_s
            * self.robot.sprocket_radius_mm
        )


class SimState(NamedTuple):
    """Progress of one run: time (s) and body-center arc length (mm)."""

    t: float
    s: float


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
    """Absolute percentage error of a measurement against a reference."""
    if theoretical == 0.0:
        raise ZeroReference("APE against a zero reference is undefined")
    return 100.0 * abs(measured - theoretical) / abs(theoretical)


# The load set is constant along a segment, so every step inside it solves a
# bit-identical equilibrium; memoizing the pure solve keeps runs cheap.
@lru_cache(maxsize=256)
def _balance(input_speed: float, loads: tuple, config: TransmissionConfig):
    return solve_torque_balance(input_speed, list(loads), config)


def step(scenario: Scenario, state: SimState) -> tuple[SimRecord, SimState]:
    """Advance one timestep; raises EndOfNetwork once the body center leaves.

    Solves the torque balance against the slip loads built from the local
    required speeds, logs the equilibrium, then advances the body by the
    mean track speed (the centerline speed, by the averaging law).
    """
    network = scenario.network
    if state.s >= network.total_length:
        raise EndOfNetwork
    pose = pose_at(network, state.s)
    robot = scenario.robot

    center_speed = scenario.center_speed_mm_s
    required = required_track_speeds(pose, center_speed, robot)
    compressions = spring_compression(pose, robot, scenario.bend_extra_compression_mm)
    _check_body_tilt(scenario, state.s)

    required = tuple(float(v) for v in required)
    loads = tuple(
        LinearLoad(
            stiffness=scenario.slip_stiffness,
            wheel_radius=robot.sprocket_radius_mm,
            target_speed=required[j],
        )
        for j in range(3)
    )
    balance = _balance(scenario.input_speed_rad_s, loads, scenario.transmission)
    track_speeds = tuple(w * robot.sprocket_radius_mm for w in balance.output_speeds)

    record = SimRecord(
        t=state.t,
        s=state.s,
        segment_index=pose.segment_index,
        track_speeds=track_speeds,
        required_speeds=required,
        slip=tuple(v - r for v, r in zip(track_speeds, required)),
        compressions=tuple(float(x) for x in compressions),
        common_torque=balance.common_torque,
    )
    advance = scenario.dt_s * sum(track_speeds) / 3.0
    return record, SimState(t=state.t + scenario.dt_s, s=state.s + advance)


def _check_body_tilt(scenario: Scenario, s: float) -> None:
    # Compression difference between the body ends drives the tilt check.
    half = scenario.robot.length_mm / 2.0
    total = scenario.network.total_length
    front = spring_compression(
        pose_at(scenario.network, min(s + half, total)),
        scenario.robot,
        scenario.bend_extra_compression_mm,
    )
    rear = spring_compression(
        pose_at(scenario.network, max(s - half, 0.0)),
        scenario.robot,
        scenario.bend_extra_compression_mm,
    )
    asymmetry_deg(front, rear, scenario.robot)


def run(scenario: Scenario) -> tuple[list[SimRecord], SimSummary]:
    """Step until the network ends; MaxTimeExceeded carries partial results."""
    records: list[SimRecord] = []
    state = SimState(t=0.0, s=0.0)
    while True:
        if state.t >= scenario.max_time_s:
            raise MaxTimeExceeded(
                f"robot did not finish within {scenario.max_time_s} s "
                f"(reached {state.s:.1f} of {scenario.network.total_length:.1f} mm)",
                records=records,
                summary=summarize(records, scenario, state) if records else None,
            )
        try:
            record, state = step(scenario, state)
        except EndOfNetwork:
            break
        records.append(record)
    return records, summarize(records, scenario, state)


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


def summarize(records, scenario: Scenario, end_state: SimState) -> SimSummary:
    """Aggregate records into per-segment and run-level statistics."""
    segment_stats = []
    per_track_ape = np.zeros(3)
    groups: dict[int, list[SimRecord]] = {}
    order: list[int] = []
    for rec in records:
        if rec.segment_index not in groups:
            groups[rec.segment_index] = []
            order.append(rec.segment_index)
        groups[rec.segment_index].append(rec)

    for pos, index in enumerate(order):
        recs = groups[index]
        exit_time = (
            groups[order[pos + 1]][0].t if pos + 1 < len(order) else end_state.t
        )
        mean_speeds = tuple(
            float(np.mean([r.track_speeds[j] for r in recs])) for j in range(3)
        )
        analytic = analytic_track_speeds(scenario, index)
        errors = tuple(ape(m, a) for m, a in zip(mean_speeds, analytic))
        per_track_ape = np.maximum(per_track_ape, errors)
        segment_stats.append(
            SegmentStats(
                index=index,
                kind="bend" if isinstance(scenario.network.segments[index], Bend) else "straight",
                entry_time=recs[0].t,
                exit_time=exit_time,
                mean_track_speeds=mean_speeds,
                analytic_speeds=analytic,
                ape_percent=errors,
            )
        )

    max_slip = max(max(abs(v) for v in r.slip) for r in records)
    max_comp = max(max(r.compressions) for r in records)
    return SimSummary(
        segments=tuple(segment_stats),
        per_track_ape_percent=tuple(float(e) for e in per_track_ape),
        max_abs_slip=max_slip,
        max_compression=max_comp,
        finish_time=end_state.t,
        final_s=end_state.s,
        total_distance_mm=max(0.0, end_state.s - scenario.robot.length_mm),
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
            _, summary = run(oriented)
            entries.append(SweepEntry(orientation_deg=theta, summary=summary))
        except SimulationError as exc:
            entries.append(SweepEntry(orientation_deg=theta, summary=None, error=exc))
    return entries
