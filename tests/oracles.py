"""Independent reference solutions used to check the library's solvers.

These deliberately avoid the code paths under test: the side-gear solve
uses chain substitution plus a projection off the circulation mode in
``Fraction``s instead of the float closed form, the load-balance
references are plain bisection from the full bracket at float midpoints
only (no walk, no halving of ordered keys), the closed form for equal slip
loads and the exact root of linear ones in ``Fraction``s, the reference run
solves every row instead of once per centre segment, checks every row's
front and rear itself instead of once per pair of segment kinds, and
aggregates and writes its rows one at a time instead of from columns, its
means in ``Fraction``s; the writers' rows come from numpy's columns; bend
track speeds come from contact paths traced through sampled centerline
frames instead of the path-radius formula.  The canonical scenario
document and its writer live here too: no command writes a scenario, and
parsing the document back checks the parser.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from fractions import Fraction
from itertools import groupby
from operator import attrgetter

import numpy as np

from pipeclimber import AsymmetryLimit, Bend, CompressionLimit, MaxTimeExceeded, pose_at, step
from pipeclimber.differential import SPAN_FACTOR, TorqueBalance
from pipeclimber.geometry import segment_at
from pipeclimber.robot import asymmetry_deg, spring_compression
from pipeclimber.scenario_io import CSV_COLUMNS, SCHEMA, _write_text
from pipeclimber.simulator import SegmentStats, SimSummary, analytic_track_speeds, ape

EPS = Fraction(sys.float_info.epsilon)
TINY = Fraction(2) ** -1074  # the spacing of subnormal floats
SLACK = 1 + Fraction(1, 2**40)  # room for the O(EPS**2) terms of a rounding-error bound
# A bracket that spans the double range needs up to 1025 + 1074 + 1 float halvings
# to reach adjacent floats: from 2**1024 down to the subnormal spacing.
MAX_BISECTIONS = 2200


def bisect_torque_balance(input_speed, loads, config):
    """``solve_torque_balance`` without the walk or the halving of ordered keys:
    bracket, widen, then halve the full bracket at float midpoints down to
    adjacent floats.  Returns a ``TorqueBalance``; the library solve must
    match its torque and speeds bit for bit."""
    target = config.overall_ratio * input_speed

    def residual(tau):
        w0, w1, w2 = (load.inverse(tau) for load in loads)
        return (0.0 + w0 + w1 + w2) / 3.0 - target

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
        while iterations < MAX_BISECTIONS:  # iterations: midpoints evaluated
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            iterations += 1
            if residual(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        tau = lo if abs(residual(lo)) < abs(residual(hi)) else hi
    speeds = tuple(load.inverse(tau) for load in loads)
    return TorqueBalance(output_speeds=speeds, common_torque=tau, iterations=iterations)


def exact_balance(input_speed, loads, config):
    """Exact equilibrium of three ``LinearLoad``s at the solve's float target.

    Each inverse is affine in the torque, w_j(tau) = tau / (k_j r_j) +
    (v_j - offset_j / k_j) / r_j, so the mean inverse is a * tau + b with
    a = mean_j 1/(k_j r_j) and b = mean_j (v_j - offset_j / k_j) / r_j, and
    its root at the target is (target - b) / a.  Everything after the float
    target ``overall_ratio * input_speed`` is computed in ``Fraction``s from
    the loads' fields, so nothing is rounded.  Returns (torque, speeds, a).
    """
    target = Fraction(config.overall_ratio * input_speed)
    weights, shifts = [], []
    for load in loads:
        k, r = Fraction(load.stiffness), Fraction(load.wheel_radius)
        weights.append(1 / (k * r))
        shifts.append((Fraction(load.target_speed) - Fraction(load.offset) / k) / r)
    slope = sum(weights) / 3
    tau = (target - sum(shifts) / 3) / slope
    return tau, tuple(w * tau + b for w, b in zip(weights, shifts)), slope


def exact_side_speeds(outputs, input_speed, config):
    """Exact minimum-norm side speeds (L1, R1, L2, R2, L3, R3) for the outputs.

    Pins L1 to 0 and walks the averaging constraints around the gear loop,
    R_i = 2 * ring_ratio * input_speed - L_i and L_{i+1} = 2 * w_i /
    output_ratio - R_i, for i = 1, 2, 3 and outputs w_1, w_2; then removes
    the projection on the free circulation mode (+1 on every L, -1 on every
    R), which leaves the minimum-norm solution.  Everything is computed in
    ``Fraction``s from the float arguments, so nothing is rounded.  The
    constraint of the third output, R_3 + L_1 = 2 * w_3 / output_ratio,
    holds only as far as the float outputs obey the averaging law;
    ``internal_state`` leaves it out too.
    """
    ring_sum = 2 * Fraction(config.ring_ratio) * Fraction(input_speed)
    left, right = [Fraction(0)], []
    for w in outputs[:2]:
        right.append(ring_sum - left[-1])
        left.append(2 * Fraction(w) / Fraction(config.output_ratio) - right[-1])
    right.append(ring_sum - left[-1])
    circulation = (sum(left) - sum(right)) / 6
    return tuple(v for left_i, right_i in zip(left, right)
                 for v in (left_i - circulation, right_i + circulation))


def assert_near_exact_sides(sides, outputs, input_speed, config):
    """``internal_state``'s ``sides`` lie within a rounding-error bound of
    ``exact_side_speeds``.

    With u = eps/2 and S the largest magnitude among the exact ring speed
    rho, the 2 w_j / output_ratio, c_j, x_i and sides, each rounding errs
    by at most u S: rho and 2 w_j / output_ratio by u S (the doubling is
    exact), c_j = 2 w_j / output_ratio - 2 rho by u S + 2 u S + u S = 4 u S,
    2 c_0 + c_1 by 8 + 4 + 3 = 15 u S (it is 3 x_0), x_0 by 15/3 + 1 = 6 u S,
    x_1 = x_0 - c_0 by 6 + 4 + 1 = 11 u S, x_2 = x_1 - c_1 by 16 u S, and a
    side rho +/- x_i by 1 + 16 + 1 = 18 u S = 9 eps S at most.  A rounding
    in the subnormal range may err by TINY/2 absolute instead, so the same
    count gives 9 TINY.  SLACK covers the O(eps**2) terms.
    """
    exact = exact_side_speeds(outputs, input_speed, config)
    ring = Fraction(config.ring_ratio) * Fraction(input_speed)
    doubled = [2 * Fraction(w) / Fraction(config.output_ratio) for w in outputs[:2]]
    shifts = [(right - left) / 2 for left, right in zip(exact[0::2], exact[1::2])]
    scale = max(abs(v) for v in (ring, *doubled, *(d - 2 * ring for d in doubled),
                                 *shifts, *exact))
    bound = SLACK * (9 * EPS * scale + 9 * TINY)
    for got, want in zip(sides, exact):
        assert abs(Fraction(got) - want) <= bound, (got, float(want), float(bound))


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


def exact_mean(values) -> float:
    """The mean of ``values``, summed in ``Fraction``s and rounded once."""
    return float(sum(map(Fraction, values), Fraction(0)) / len(values))


def stepwise_summary(records, scenario, finish_time, final_s):
    """``summarize`` over a list of rows: group them by segment and average
    each track's speeds over the group, exactly."""
    segment_stats = []
    per_track_ape = np.zeros(3)
    groups = [(i, list(recs)) for i, recs in groupby(records, attrgetter("segment_index"))]
    for pos, (index, recs) in enumerate(groups):
        exit_time = groups[pos + 1][1][0].t if pos + 1 < len(groups) else finish_time
        mean_speeds = tuple(exact_mean([r.track_speeds[j] for r in recs]) for j in range(3))
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
    """``run`` as a loop that calls ``step`` on every row and then compares
    the springs under the body's front and rear, and the tilt between them,
    with the robot's limits in its own lines: returns (records, summary)
    with the records in a list, or raises what ``run`` raises,
    MaxTimeExceeded with the partial records and their summary.  Row ``n``
    is at ``n * dt_s``; the centre moves ``k`` steps of the row's advance
    from where it entered its segment."""
    records = []
    network, robot = scenario.network, scenario.robot
    half, extra = robot.length_mm / 2.0, scenario.bend_extra_compression_mm
    total, dt = network.total_length, scenario.dt_s
    n, s = 0, 0.0
    entered, k = None, 0  # the segment the centre is in, and its row count there
    while True:
        t = n * dt
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
        if record.segment_index != entered:
            entered, s0, k = record.segment_index, s, 0
        front = spring_compression(network.curvatures[segment_at(network, s + half)], robot, extra)
        rear = spring_compression(network.curvatures[segment_at(network, s - half)], robot, extra)
        for end in front, rear:
            worst = end.index(max(end))  # the first of the largest
            if end[worst] > robot.max_compression_mm:
                raise CompressionLimit(f"module {'ABC'[worst]} needs {end[worst]:.3f} mm, over "
                                       f"the {robot.max_compression_mm} mm limit")
        tilt = asymmetry_deg(front, rear, robot)
        worst = tilt.index(max(tilt))
        if tilt[worst] > robot.max_asym_deg:
            raise AsymmetryLimit(f"module {'ABC'[worst]} tilts {tilt[worst]:.3f} deg, over the "
                                 f"{robot.max_asym_deg} deg limit")
        records.append(record)
        w0, w1, w2 = record.track_speeds
        n, k = n + 1, k + 1
        s = s0 + k * (dt * (0.0 + w0 + w1 + w2) / 3.0)


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


def grid_rows(piece):
    """``piece``'s (t, s) rows as numpy columns, overflow allowed, with no
    code of the package's rows: ``t = (n + k) * dt`` and ``s + k * ds``."""
    k = np.arange(piece.rows)
    with np.errstate(over="ignore", invalid="ignore"):
        return (piece.n + k) * piece.dt, piece.s + k * piece.ds


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


def _section_doc(obj, section: str) -> dict:
    return {key: getattr(obj, field) for key, field, _ in SCHEMA[section]}


def scenario_to_dict(scenario) -> dict:
    """Canonical document for a Scenario; parsing it back is an identity."""
    segments = []
    for seg in scenario.network.segments:
        kind = "bend" if isinstance(seg, Bend) else "straight"
        segments.append({"kind": kind, **_section_doc(seg, kind)})
    return {
        "pipe": {"inner_radius_mm": scenario.network.inner_radius, "segments": segments},
        "robot": _section_doc(scenario.robot, "robot"),
        "transmission": _section_doc(scenario.transmission, "transmission"),
        "sim": _section_doc(scenario, "sim"),
    }


def save_scenario(scenario, path) -> None:
    """Write ``json.dumps(scenario_to_dict(scenario), indent=2)`` plus a
    newline through the package's file writer, with its errors."""
    _write_text(functools.partial(json.dumps, indent=2, allow_nan=False),
                scenario_to_dict(scenario), path)


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
        position, outward = np.asarray(pose.position), np.asarray(pose.bend_outward)
        side = np.cross(pose.tangent, outward)
        radials = [math.cos(q) * outward + math.sin(q) * side for q in angles]
        points.append([position, *(position + h * r for r in radials)])
    paths = np.array(points)  # sample, centerline then tracks A-C, xyz
    lengths = np.linalg.norm(np.diff(paths, axis=0), axis=2).sum(axis=0)
    return scenario.center_speed_mm_s * lengths[1:] / lengths[0]
