"""Independent reference solutions used to check the library's solvers.

These deliberately avoid the code paths under test: the side-gear solve
uses chain substitution plus a projection off the circulation mode instead
of the closed form, the load-balance references are plain bisection from
the full bracket (no secant narrowing) and the closed forms for linear
slip loads, the reference run solves every row instead of once per
centre segment and aggregates and writes its rows one at a time instead of
from columns, and bend track speeds come from contact paths traced
through sampled centerline frames instead of the path-radius formula.
"""

from __future__ import annotations

import json
import math
from itertools import groupby
from operator import attrgetter

import numpy as np

from pipeclimber import Bend, MaxTimeExceeded, pose_at, step
from pipeclimber.differential import MAX_BISECTIONS, SPAN_FACTOR, TorqueBalance
from pipeclimber.scenario_io import CSV_COLUMNS
from pipeclimber.simulator import SegmentStats, SimSummary, analytic_track_speeds, ape

CIRCULATION = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])  # +t on every L, -t on every R


def side_speeds_chain(outputs, input_speed, ring_ratio=1.0, output_ratio=1.0, free=0.0):
    """Side speeds (L1, R1, L2, R2, L3, R3) with L1 pinned to ``free``.

    Walks the averaging constraints around the gear loop:
    R_i = 2*ring_ratio*wu - L_i and L_{i+1} = 2*w_i/output_ratio - R_i.
    Returns (vector, closure) where closure is the loop mismatch back at L1
    (zero exactly when the outputs satisfy the averaging law).
    """
    left = [0.0, 0.0, 0.0]
    right = [0.0, 0.0, 0.0]
    left[0] = free
    for i in range(3):
        right[i] = 2.0 * ring_ratio * input_speed - left[i]
        left[(i + 1) % 3] = 2.0 * outputs[i] / output_ratio - right[i]
    closure = left[0] - free
    vec = np.array([left[0], right[0], left[1], right[1], left[2], right[2]])
    return vec, closure


def side_speeds_min_norm(outputs, input_speed, ring_ratio=1.0, output_ratio=1.0):
    """Minimum-norm side speeds: the chain solution with L1 pinned to 0, less
    its projection on the free internal circulation mode ``CIRCULATION``."""
    vec, closure = side_speeds_chain(outputs, input_speed, ring_ratio, output_ratio)
    assert abs(closure) < 1e-6, "outputs inconsistent with the averaging law"
    return vec - (vec @ CIRCULATION) / (CIRCULATION @ CIRCULATION) * CIRCULATION


def bisect_torque_balance(input_speed, loads, config):
    """``solve_torque_balance`` without the secant narrowing: bracket, widen,
    then halve the full bracket down to adjacent floats.  Returns a
    ``TorqueBalance``; the library solve must match its torque and speeds
    bit for bit."""
    target = config.overall_ratio * input_speed

    def residual(tau):
        return sum(load.inverse(tau) for load in loads) / 3.0 - target

    lo = min(load.torque(target) for load in loads)
    hi = max(load.torque(target) for load in loads)
    f_lo = residual(lo)
    f_hi = residual(hi)
    span = max(1.0, hi - lo, abs(lo), abs(hi))
    while f_lo > 0.0:
        lo -= span
        span *= SPAN_FACTOR
        f_lo = residual(lo)
    while f_hi < 0.0:
        hi += span
        span *= SPAN_FACTOR
        f_hi = residual(hi)

    iterations = 0
    if lo == hi or f_lo == 0.0:
        tau = lo
    elif f_hi == 0.0:
        tau = hi
    else:
        for iterations in range(1, MAX_BISECTIONS + 1):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if residual(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        tau = lo if abs(residual(lo)) < abs(residual(hi)) else hi
    speeds = tuple(load.inverse(tau) for load in loads)
    return TorqueBalance(output_speeds=speeds, common_torque=tau, iterations=iterations)


def linear_root_torque(loads, input_speed, overall_ratio):
    """Common torque of three ``LinearLoad``s in closed form.

    Each inverse is tau / (k r) - offset / (k r) + target_speed / r, so the
    averaging law sum_j w_j = 3 * overall_ratio * input_speed gives

        tau = (3 * target + sum offset/(k r) - sum target_speed/r) / sum 1/(k r)
    """
    target = overall_ratio * input_speed
    weights = [1.0 / (load.stiffness * load.wheel_radius) for load in loads]
    shift = sum(w * load.offset for w, load in zip(weights, loads))
    speeds = sum(load.target_speed / load.wheel_radius for load in loads)
    return (3.0 * target + shift - speeds) / sum(weights)


def equal_slip_solution(required_speeds, stiffness, wheel_radius, input_speed, overall_ratio):
    """Closed form for equal-stiffness linear slip loads.

    Equal torque forces the same surface-speed mismatch d on every track;
    the averaging law then pins d to the mean mismatch:

        d    = overall_ratio * input_speed * wheel_radius - mean(required)
        w_j  = (required_j + d) / wheel_radius
        tau  = stiffness * d
    """
    required = np.asarray(required_speeds, dtype=float)
    slip = overall_ratio * input_speed * wheel_radius - required.mean()
    speeds = (required + slip) / wheel_radius
    return speeds, stiffness * slip


def stepwise_summary(records, scenario, finish_time, final_s):
    """``summarize`` over a list of rows: group them by segment and average
    each track's speeds over the group."""
    segment_stats = []
    per_track_ape = np.zeros(3)
    groups = [(i, list(recs)) for i, recs in groupby(records, attrgetter("segment_index"))]
    for pos, (index, recs) in enumerate(groups):
        exit_time = groups[pos + 1][1][0].t if pos + 1 < len(groups) else finish_time
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
    return SimSummary(
        segments=tuple(segment_stats),
        per_track_ape_percent=tuple(float(e) for e in per_track_ape),
        max_abs_slip=max(max(abs(v) for v in r.slip) for r in records),
        max_compression=max(max(r.compressions) for r in records),
        finish_time=finish_time,
        final_s=final_s,
        total_distance_mm=max(0.0, final_s - scenario.robot.length_mm),
    )


def stepwise_run(scenario):
    """``run`` as a loop that calls ``step`` on every row: returns (records,
    summary) with the records in a list, or raises what ``run`` raises,
    MaxTimeExceeded with the partial records and their summary."""
    records = []
    total = scenario.network.total_length
    t = s = 0.0
    while True:
        if t >= scenario.max_time_s:
            raise MaxTimeExceeded(
                f"robot did not finish within {scenario.max_time_s} s "
                f"(reached {s:.1f} of {total:.1f} mm)",
                records=records,
                summary=stepwise_summary(records, scenario, t, s) if records else None,
            )
        if s >= total:
            return records, stepwise_summary(records, scenario, t, s)
        record = step(scenario, t, s)
        records.append(record)
        t, s = t + scenario.dt_s, s + scenario.dt_s * sum(record.track_speeds) / 3.0


def _row(record) -> list:
    return [
        record.t,
        record.s,
        record.segment_index,
        *record.track_speeds,
        *record.required_speeds,
        *record.slip,
        *record.compressions,
        record.common_torque,
    ]


def write_rows(records, fmt, path):
    """``emit_records`` one row at a time: CSV with 9 significant digits, or
    ``json.dump`` of one dict per row."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if fmt == "csv":
            handle.write(",".join(CSV_COLUMNS) + "\n")
            for record in records:
                handle.write(",".join(
                    str(v) if isinstance(v, int) else format(v, ".9g") for v in _row(record)
                ) + "\n")
        else:
            json.dump([dict(zip(CSV_COLUMNS, _row(record))) for record in records], handle,
                      indent=1)
            handle.write("\n")


def contact_path_speeds(scenario, segment_index, samples=200):
    """Track speeds in one bend from the lengths of the three contact paths.

    Each path is traced through ``samples + 1`` centerline frames from
    ``pose_at``: the contact point of the module at angle q sits at
    ``position + h * (cos q * outward + sin q * (tangent x outward))``.  A
    track that rolls along its path without slip moves at the centerline
    speed times its path length over the centerline's, both measured as
    polylines through the same frames.
    """
    boundaries = (0.0, *scenario.network.cumulative_lengths)
    s_start, s_end = boundaries[segment_index], boundaries[segment_index + 1]
    h = scenario.robot.contact_radius_mm
    angles = np.radians(scenario.robot.module_angles_deg)
    points = []
    # Stay inside the bend: its end arc length opens the next segment.
    ends = (s_start, np.nextafter(s_end, s_start))
    for s in np.linspace(*ends, samples + 1):
        pose = pose_at(scenario.network, float(s))
        side = np.cross(pose.tangent, pose.bend_outward)
        radials = [math.cos(q) * pose.bend_outward + math.sin(q) * side for q in angles]
        points.append([pose.position, *(pose.position + h * r for r in radials)])
    paths = np.array(points)  # sample, centerline then tracks A-C, xyz
    lengths = np.linalg.norm(np.diff(paths, axis=0), axis=2).sum(axis=0)
    return scenario.center_speed_mm_s * lengths[1:] / lengths[0]
