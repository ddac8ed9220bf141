import numpy as np
import pytest

from pipeclimber import (
    AsymmetryLimit,
    CompressionLimit,
    EmptySweep,
    EndOfNetwork,
    MaxTimeExceeded,
    SimState,
    Straight,
    ZeroReference,
    ape,
    build_network,
    run,
    step,
    sweep_orientation,
)
from conftest import make_four_section_scenario, make_robot


def straight_only_scenario(length=500.0, **overrides):
    return make_four_section_scenario(
        network=build_network([Straight(length)], 77.0), **overrides
    )


# --- stepping ------------------------------------------------------------------

def test_straight_step_has_no_slip(four_section_scenario):
    record, state = step(four_section_scenario, SimState(0.0, 0.0))
    assert record.segment_index == 0
    assert np.allclose(record.track_speeds, 50.0, atol=1e-9)
    assert max(abs(s) for s in record.slip) < 1e-9
    assert state.s == pytest.approx(0.5)  # 50 mm/s * 0.01 s
    assert state.t == pytest.approx(0.01)


def test_bend_step_scales_speeds_by_path_radius(four_section_scenario):
    record, _ = step(four_section_scenario, SimState(0.0, 700.0))  # inside the elbow
    assert record.segment_index == 1
    expected = [50.0 * r / 300.0 for r in (350.0, 275.0, 275.0)]
    assert record.track_speeds == pytest.approx(expected, rel=1e-9)
    assert sum(record.track_speeds) / 3.0 == pytest.approx(50.0, rel=1e-9)
    assert max(abs(s) for s in record.slip) < 1e-9


def test_step_past_the_end_signals_completion(four_section_scenario):
    with pytest.raises(EndOfNetwork):
        step(four_section_scenario, SimState(0.0, four_section_scenario.network.total_length))


# --- full runs --------------------------------------------------------------------

def test_straight_run_finishes_in_length_over_speed():
    scenario = straight_only_scenario(length=500.0)
    records, summary = run(scenario)
    assert summary.finish_time == pytest.approx(10.0, abs=scenario.dt_s + 1e-9)
    assert summary.max_abs_slip < 1e-9
    assert summary.final_s == pytest.approx(500.0, abs=50.0 * scenario.dt_s + 1e-9)


def test_zero_time_budget_fails_before_stepping(four_section_scenario):
    scenario = make_four_section_scenario(max_time_s=0.0)
    with pytest.raises(MaxTimeExceeded) as err:
        run(scenario)
    assert err.value.records == []
    assert err.value.summary is None


def test_partial_results_on_timeout():
    scenario = make_four_section_scenario(max_time_s=1.0)
    with pytest.raises(MaxTimeExceeded) as err:
        run(scenario)
    assert len(err.value.records) == 100
    assert err.value.summary is not None
    assert err.value.summary.final_s < scenario.network.total_length


def test_runs_are_deterministic(four_section_scenario):
    first, _ = run(four_section_scenario)
    second, _ = run(four_section_scenario)
    assert first == second


def test_averaging_holds_at_every_record(four_section_scenario):
    records, _ = run(four_section_scenario)
    center = four_section_scenario.center_speed_mm_s
    for record in records:
        mean = sum(record.track_speeds) / 3.0
        assert abs(mean - center) <= 1e-9 * center


def test_outer_track_fastest_inside_bends():
    for theta in (0.0, 25.0, 90.0, 140.0):
        scenario = make_four_section_scenario(robot=make_robot(orientation_deg=theta))
        records, _ = run(scenario)
        cosines = np.cos(np.radians(scenario.robot.module_angles_deg))
        outer = int(np.argmax(cosines))
        for record in records:
            if record.segment_index in (1, 3):
                assert int(np.argmax(record.track_speeds)) == outer


def test_distance_bookkeeping(four_section_scenario):
    _, summary = run(four_section_scenario)
    total = four_section_scenario.network.total_length
    step_distance = four_section_scenario.center_speed_mm_s * four_section_scenario.dt_s
    assert total <= summary.final_s <= total + step_distance
    assert summary.total_distance_mm == pytest.approx(
        summary.final_s - four_section_scenario.robot.length_mm
    )


def test_segment_times_partition_the_run(four_section_scenario):
    _, summary = run(four_section_scenario)
    assert [seg.index for seg in summary.segments] == [0, 1, 2, 3]
    assert summary.segments[0].entry_time == 0.0
    for first, second in zip(summary.segments, summary.segments[1:]):
        assert first.exit_time == second.entry_time
    assert summary.segments[-1].exit_time == summary.finish_time
    # elbow crossing takes about a quarter-arc of time, U-bend about twice that
    elbow = summary.segments[1]
    u_bend = summary.segments[3]
    assert (elbow.exit_time - elbow.entry_time) == pytest.approx(
        300.0 * np.pi / 2.0 / 50.0, rel=0.02
    )
    assert (u_bend.exit_time - u_bend.entry_time) == pytest.approx(
        2.0 * (elbow.exit_time - elbow.entry_time), rel=0.02
    )
    durations = [seg.exit_time - seg.entry_time for seg in summary.segments]
    assert max(durations) == durations[-1]  # the U-section dominates


def test_slip_vanishes_and_stays_small_as_stiffness_grows():
    slips = []
    for factor in (1.0, 10.0, 100.0):
        scenario = make_four_section_scenario(slip_stiffness=factor)
        _, summary = run(scenario)
        slips.append(summary.max_abs_slip)
    assert slips[0] < 1e-6
    assert slips[0] >= slips[1] >= slips[2]


def test_compression_recorded_along_the_run(four_section_scenario):
    records, summary = run(four_section_scenario)
    straights = [r for r in records if r.segment_index in (0, 2)]
    bends = [r for r in records if r.segment_index in (1, 3)]
    assert all(r.compressions == (8.0, 8.0, 8.0) for r in straights)
    assert all(r.compressions == pytest.approx((9.5, 8.75, 8.75)) for r in bends)
    assert summary.max_compression == pytest.approx(9.5)


def test_run_propagates_compression_limit():
    scenario = make_four_section_scenario(robot=make_robot(preload_mm=15.0))
    with pytest.raises(CompressionLimit):
        run(scenario)


def test_run_propagates_asymmetry_limit():
    robot = make_robot(preload_mm=2.0, length_mm=20.0, max_asym_deg=10.0)
    scenario = make_four_section_scenario(robot=robot, bend_extra_compression_mm=10.0)
    with pytest.raises(AsymmetryLimit):
        run(scenario)


# --- APE ---------------------------------------------------------------------------

def test_ape_examples():
    assert ape(39.0, 40.0) == pytest.approx(2.5)
    assert ape(33.62, 33.62) == 0.0
    assert ape(123.4, 123.4) == 0.0


def test_ape_zero_reference():
    with pytest.raises(ZeroReference):
        ape(1.0, 0.0)


def test_bend_ape_is_tiny(four_section_scenario):
    _, summary = run(four_section_scenario)
    assert max(summary.per_track_ape_percent) < 1e-6


# --- orientation sweep ----------------------------------------------------------------

def test_empty_sweep_rejected(four_section_scenario):
    with pytest.raises(EmptySweep):
        sweep_orientation(four_section_scenario, [])


def test_sweep_at_120_degree_steps_relabels_tracks(four_section_scenario):
    entries = sweep_orientation(four_section_scenario, [0.0, 120.0, 240.0])
    assert all(entry.ok for entry in entries)
    base = entries[0].summary
    for shift, entry in enumerate(entries):
        summary = entry.summary
        assert summary.finish_time == pytest.approx(base.finish_time, rel=1e-9)
        for seg_base, seg in zip(base.segments, summary.segments):
            for j in range(3):
                assert seg.mean_track_speeds[j] == pytest.approx(
                    seg_base.mean_track_speeds[(j + shift) % 3], rel=1e-9
                )


def test_sweep_times_are_orientation_independent(four_section_scenario):
    entries = sweep_orientation(four_section_scenario, [0.0, 30.0, 60.0])
    times = [entry.summary.finish_time for entry in entries]
    assert (max(times) - min(times)) / min(times) < 0.005


def test_sweep_continues_past_failed_orientations():
    # bend-plane module exceeds the budget at 0 deg but clears it at 90 deg
    robot = make_robot(preload_mm=8.0)
    scenario = make_four_section_scenario(robot=robot, bend_extra_compression_mm=8.1)
    entries = sweep_orientation(scenario, [0.0, 90.0])
    assert not entries[0].ok
    assert isinstance(entries[0].error, CompressionLimit)
    assert entries[1].ok


# --- scenario validation -----------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [
        {"dt_s": 0.0},
        {"max_time_s": 0.005},  # below dt
        {"slip_stiffness": 0.0},
        {"input_speed_rad_s": -1.0},
        {"bend_extra_compression_mm": -0.1},
        {"input_speed_rad_s": 0.0},  # the robot would never move
    ],
)
def test_scenario_invariants(overrides):
    with pytest.raises(ValueError):
        make_four_section_scenario(**overrides).validate()
