"""Independent reference solutions used to check the library's solvers.

These deliberately avoid the code paths under test: the side-gear solve
uses chain substitution plus a scalar parabola minimization instead of a
matrix least-squares call, the load-balance reference is the closed
form for equal-stiffness linear slip loads, and the reference run solves
every row instead of once per body placement.
"""

from __future__ import annotations

import numpy as np

from pipeclimber import MaxTimeExceeded, step
from pipeclimber.simulator import summarize


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
    """Minimum-norm side speeds by minimizing the quadratic |v(s)|^2 in the
    free parameter s (exact parabola fit through three samples)."""
    samples = np.array([0.0, 1.0, 2.0])
    norms = []
    for s in samples:
        vec, closure = side_speeds_chain(outputs, input_speed, ring_ratio, output_ratio, s)
        assert abs(closure) < 1e-6, "outputs inconsistent with the averaging law"
        norms.append(float(vec @ vec))
    coeffs = np.polyfit(samples, norms, 2)
    s_best = -coeffs[1] / (2.0 * coeffs[0])
    vec, _ = side_speeds_chain(outputs, input_speed, ring_ratio, output_ratio, s_best)
    return vec


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


def stepwise_run(scenario):
    """``run`` as a loop that calls ``step`` on every row: returns (records,
    summary), or raises what ``run`` raises, MaxTimeExceeded with the partial
    records and their summary."""
    records = []
    t = s = 0.0
    while True:
        if t >= scenario.max_time_s:
            raise MaxTimeExceeded(
                "time budget spent",
                records=records,
                summary=summarize(records, scenario, t, s) if records else None,
            )
        if s >= scenario.network.total_length:
            return records, summarize(records, scenario, t, s)
        record = step(scenario, t, s)
        records.append(record)
        t, s = t + scenario.dt_s, s + scenario.dt_s * sum(record.track_speeds) / 3.0
