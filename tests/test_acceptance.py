"""Acceptance gate: every externally-agreed behaviour at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion (a failed assert shows up as the usual pytest FAILED line).
"""

import time

import numpy as np
import pytest

from pipeclimber import (
    Bend,
    CompressionLimit,
    LinearLoad,
    TransmissionConfig,
    balance_state,
    build_network,
    internal_state,
    parse_scenario,
    power_balance,
    run,
    solve_torque_balance,
    sweep_orientation,
    traction_force,
    tractive_effort_and_torque,
)
from conftest import make_four_section_scenario, make_robot
from oracles import assert_near_exact_sides, equal_slip_solution


def report(name: str, detail: str = "") -> None:
    print(f"[acceptance] {name}: PASS {detail}".rstrip())


def random_case(rng):
    loads = tuple(
        LinearLoad(
            stiffness=float(rng.uniform(0.1, 10.0)),
            wheel_radius=float(rng.uniform(0.5, 2.0)),
            target_speed=float(rng.uniform(-50.0, 50.0)),
            offset=float(rng.uniform(-5.0, 5.0)),
        )
        for _ in range(3)
    )
    config = TransmissionConfig(
        ring_ratio=float(rng.uniform(0.3, 3.0)),
        output_ratio=float(rng.uniform(0.3, 3.0)),
    )
    input_speed = float(rng.uniform(-20.0, 20.0))
    return loads, config, input_speed


def test_c1_averaging_law_over_randomized_loads():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        loads, config, input_speed = random_case(rng)
        result = solve_torque_balance(input_speed, loads, config)
        target = config.overall_ratio * input_speed
        mean = sum(result.output_speeds) / 3.0
        worst = max(worst, abs(mean - target) / max(1.0, abs(target)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    report("averaging law", f"(worst residual {worst:.2e}, {elapsed:.2f} s)")


def test_c2_equal_torque_and_power_balance():
    rng = np.random.default_rng(42)
    worst_torque = 0.0
    worst_power = 0.0
    for _ in range(1000):
        loads, config, input_speed = random_case(rng)
        state = balance_state(input_speed, loads, config)
        torques = [load.torque(w) for load, w in zip(loads, state.output_speeds)]
        spread = max(torques) - min(torques)
        worst_torque = max(
            worst_torque, spread / max(1.0, abs(state.output_torques[0]))
        )
        p_in = state.input_speed * state.input_torque
        worst_power = max(
            worst_power, abs(power_balance(state, config)) / max(1.0, abs(p_in))
        )
    assert worst_torque <= 1e-9
    assert worst_power <= 1e-9
    report(
        "equal torque + power balance",
        f"(torque spread {worst_torque:.2e}, power residual {worst_power:.2e})",
    )


def test_c3_solver_matches_equal_slip_closed_form():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(300):
        stiffness = float(rng.uniform(0.1, 10.0))
        radius = float(rng.uniform(5.0, 40.0))
        required = rng.uniform(10.0, 90.0, size=3)
        input_speed = float(rng.uniform(0.5, 10.0))
        config = TransmissionConfig()
        loads = [LinearLoad(stiffness, radius, float(v)) for v in required]
        result = solve_torque_balance(input_speed, loads, config)
        speeds, torque = equal_slip_solution(
            required, stiffness, radius, input_speed, config.overall_ratio
        )
        scale = max(1.0, float(np.max(np.abs(speeds))))
        worst = max(
            worst,
            float(np.max(np.abs(np.array(result.output_speeds) - speeds))) / scale,
            abs(result.common_torque - torque) / max(1.0, abs(torque)),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    report("equal-slip closed form", f"(worst error {worst:.2e}, {elapsed:.2f} s)")


def test_c4_internal_state_oracle():
    sides = internal_state((12.0, 10.0, 8.0), 10.0, TransmissionConfig())
    expected = (22 / 3, 38 / 3, 34 / 3, 26 / 3, 34 / 3, 26 / 3)
    for got, want in zip(sides, expected):
        assert abs(got - want) <= 1e-9
    assert_near_exact_sides(sides, (12.0, 10.0, 8.0), 10.0, TransmissionConfig())
    report("internal side-gear state", f"(max dev {max(abs(g - w) for g, w in zip(sides, expected)):.2e})")


def test_c5_bend_kinematics():
    scenario = make_four_section_scenario(
        network=build_network([Bend(300.0, 90.0)], 77.0)
    )
    records, summary = run(scenario)
    center = scenario.center_speed_mm_s
    ratios = [v / center for v in summary.segments[0].mean_track_speeds]
    expected = [350.0 / 300.0, 275.0 / 300.0, 275.0 / 300.0]
    for got, want in zip(ratios, expected):
        assert abs(got - want) / want <= 1e-3
    worst_mean = max(
        abs(sum(r.track_speeds) / 3.0 - center) / center for r in records
    )
    assert worst_mean <= 1e-6
    report(
        "bend speed ratios 350:275:275",
        f"(ratio error {max(abs(g - w) / w for g, w in zip(ratios, expected)):.2e}, "
        f"mean-speed error {worst_mean:.2e})",
    )


def test_c6_slip_elimination_and_stiffness_limit():
    start = time.perf_counter()
    slips = []
    for factor in (1.0, 10.0, 100.0):
        scenario = make_four_section_scenario(slip_stiffness=factor)
        _, summary = run(scenario)
        slips.append(summary.max_abs_slip)
    elapsed = time.perf_counter() - start
    assert slips[0] < 1e-6
    assert slips[0] >= slips[1] >= slips[2]
    assert elapsed < 10.0
    report(
        "slip elimination",
        f"(max |slip| {slips[0]:.2e} -> {slips[1]:.2e} -> {slips[2]:.2e} mm/s, {elapsed:.2f} s)",
    )


def test_c7_ape_parity_with_reported_error_scale():
    _, summary = run(make_four_section_scenario())
    bend_apes = [
        e
        for seg in summary.segments
        if seg.kind == "bend"
        for e in seg.ape_percent
    ]
    assert max(bend_apes) <= 2.5  # parity threshold
    assert max(bend_apes) <= 0.1  # what the deterministic model must achieve
    report("bend-speed APE", f"(worst {max(bend_apes):.2e} %, thresholds 0.1 / 2.5)")


def test_c8_orientation_independence():
    scenario = make_four_section_scenario()
    entries = sweep_orientation(scenario, [0.0, 30.0, 60.0, 90.0, 120.0])
    assert all(entry.ok for entry in entries)
    times = [entry.summary.finish_time for entry in entries]
    spread = (max(times) - min(times)) / min(times)
    assert spread < 0.005
    base = entries[0].summary  # theta = 0
    rolled = entries[-1].summary  # theta = 120
    worst = 0.0
    for seg_base, seg_rolled in zip(base.segments, rolled.segments):
        for j in range(3):
            expected = seg_base.mean_track_speeds[(j + 1) % 3]
            got = seg_rolled.mean_track_speeds[j]
            worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    assert worst <= 1e-9
    report(
        "orientation independence",
        f"(time spread {spread:.2e}, relabel error {worst:.2e})",
    )


def test_c9_compression_limits(tmp_path):
    import json

    # over-preloaded robot fails at parse time
    doc = {
        "pipe": {
            "inner_radius_mm": 77.0,
            "segments": [{"kind": "straight", "length_mm": 200}],
        },
        "robot": {
            "h_mm": 50,
            "sprocket_radius_mm": 20,
            "orientation_deg": 0,
            "spring_k_n_per_m": 1000,
            "preload_mm": 17,
            "mass_kg": 3,
            "mu": 0.4,
            "robot_length_mm": 200,
        },
        "transmission": {"g1": 1.0, "g2": 1.0},
        "sim": {
            "input_speed_rad_s": 2.5,
            "slip_stiffness": 1.0,
            "dt_s": 0.01,
            "max_time_s": 30,
        },
    }
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CompressionLimit):
        parse_scenario(path)

    # a bend that would push past the budget fails mid-run
    with pytest.raises(CompressionLimit):
        run(make_four_section_scenario(robot=make_robot(preload_mm=15.0)))

    # the elbow adds exactly the configured 1.5 mm on the bend-plane module
    records, _ = run(make_four_section_scenario())
    straight = next(r for r in records if r.segment_index == 0)
    bend = next(r for r in records if r.segment_index == 1)
    delta = bend.compressions[0] - straight.compressions[0]
    assert abs(delta - 1.5) <= 1e-12
    report("compression limits", f"(elbow adds {delta:.3f} mm on the bend-plane module)")


def test_c10_traction_formula_fidelity():
    cases = [
        # (mass, friction, spring, compression mm, sprocket mm,
        #  traction N, effort N, torque N*m)
        (15.0, 0.4, 2000.0, 10.0, 20.0, 96.0, 51.15, 1.023),
        (15.0, 0.3, 1000.0, 16.0, 20.0, 57.6, 89.55, 1.791),
        (15.0, 0.3, 1000.0, 10.0, 20.0, 36.0, 111.15, 2.223),
        (3.0, 0.4, 1000.0, 8.0, 20.0, 38.4, -8.97, -0.1794),
        (20.0, 0.5, 1500.0, 5.0, 25.0, 45.0, 151.2, 3.78),
    ]
    for mass, friction, spring, x_mm, sprocket, f_want, te_want, tau_want in cases:
        robot = make_robot(
            mass_kg=mass,
            friction=friction,
            spring_n_per_m=spring,
            sprocket_radius_mm=sprocket,
        )
        force = traction_force(robot, x_mm)
        effort, torque = tractive_effort_and_torque(robot, x_mm)
        assert force == pytest.approx(f_want, rel=1e-12, abs=1e-12)
        assert effort == pytest.approx(te_want, rel=1e-12, abs=1e-12)
        assert torque == pytest.approx(tau_want, rel=1e-12, abs=1e-12)
    # linearity in each factor
    base = traction_force(make_robot(friction=0.2, spring_n_per_m=800.0), 4.0)
    assert traction_force(
        make_robot(friction=0.6, spring_n_per_m=800.0), 4.0
    ) == pytest.approx(3.0 * base, rel=1e-12)
    assert traction_force(
        make_robot(friction=0.2, spring_n_per_m=2400.0), 4.0
    ) == pytest.approx(3.0 * base, rel=1e-12)
    assert traction_force(
        make_robot(friction=0.2, spring_n_per_m=800.0), 12.0
    ) == pytest.approx(3.0 * base, rel=1e-12)
    report("traction formula fidelity", "(5 parameter sets to machine precision)")
