import itertools
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeclimber.geometry as geometry
import pipeclimber.simulator as simulator
from pipeclimber import (
    AsymmetryLimit,
    Bend,
    CompressionLimit,
    EmptySweep,
    MaxTimeExceeded,
    OutOfRange,
    SimRecord,
    SimulationError,
    Straight,
    ValidationError,
    ape,
    asymmetry_deg,
    build_network,
    emit_records,
    required_track_speeds,
    run,
    spring_compression,
    step,
    sweep_orientation,
)
from conftest import make_four_section_scenario, make_robot
import oracles
from oracles import contact_path_speeds, stepwise_run, write_rows


def straight_only_scenario(length=500.0, **overrides):
    return make_four_section_scenario(
        network=build_network([Straight(length)], 77.0), **overrides
    )


# --- stepping ------------------------------------------------------------------

def test_straight_step_has_no_slip(four_section_scenario):
    record = step(four_section_scenario, 0.0, 0.0)
    assert record.segment_index == 0
    assert np.allclose(record.track_speeds, 50.0, atol=1e-9)
    assert max(abs(s) for s in record.slip) < 1e-9


def test_bend_step_scales_speeds_by_path_radius(four_section_scenario):
    record = step(four_section_scenario, 0.0, 700.0)  # inside the elbow
    assert record.segment_index == 1
    expected = [50.0 * r / 300.0 for r in (350.0, 275.0, 275.0)]
    assert record.track_speeds == pytest.approx(expected, rel=1e-9)
    assert sum(record.track_speeds) / 3.0 == pytest.approx(50.0, rel=1e-9)
    assert max(abs(s) for s in record.slip) < 1e-9


def test_step_past_the_end_is_out_of_range(four_section_scenario):
    with pytest.raises(OutOfRange):
        step(four_section_scenario, 0.0, four_section_scenario.network.total_length + 1.0)


# --- full runs --------------------------------------------------------------------

def test_straight_run_finishes_in_length_over_speed():
    scenario = straight_only_scenario(length=500.0)
    records, summary = run(scenario)
    assert records[1].s == pytest.approx(0.5)  # 50 mm/s * 0.01 s
    assert records[1].t == pytest.approx(0.01)
    assert summary.finish_time == pytest.approx(10.0, abs=scenario.dt_s + 1e-9)
    assert summary.max_abs_slip < 1e-9
    assert summary.final_s == pytest.approx(500.0, abs=50.0 * scenario.dt_s + 1e-9)


def test_straight_run_never_meets_the_bend_compression_limit():
    # In a bend the in-plane module would need 8 + 1.5 mm, over the limit, but
    # no bend is ever under the body.
    scenario = straight_only_scenario(robot=make_robot(max_compression_mm=9.0))
    with pytest.raises(CompressionLimit):
        step(make_four_section_scenario(robot=scenario.robot), 0.0, 600.0)
    records, summary = run(scenario)
    assert summary.max_compression == 8.0
    assert list(records) == stepwise_run(scenario)[0]


def test_zero_time_budget_fails_before_stepping(four_section_scenario):
    scenario = make_four_section_scenario(max_time_s=0.0)
    with pytest.raises(MaxTimeExceeded) as err:
        run(scenario)
    assert list(err.value.records) == []
    assert err.value.summary is None


def test_partial_results_on_timeout():
    scenario = make_four_section_scenario(max_time_s=1.0)
    with pytest.raises(MaxTimeExceeded) as err:
        run(scenario)
    assert len(err.value.records) == 100
    assert err.value.summary is not None
    assert err.value.summary.final_s < scenario.network.total_length


def test_time_budget_is_checked_before_the_network_end(four_section_scenario):
    records, summary = run(four_section_scenario)
    spent = replace(four_section_scenario, max_time_s=summary.finish_time)
    with pytest.raises(MaxTimeExceeded) as err:
        run(spent)
    assert err.value.records == records


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


@pytest.mark.parametrize("limit, error, message", [
    ({"max_compression_mm": 9.0}, CompressionLimit, "9.500 mm"),
    ({"max_asym_deg": 0.1}, AsymmetryLimit, "0.430 deg"),
], ids=["compression", "tilt"])
def test_step_leaves_the_body_ends_to_run(limit, error, message):
    # The centre on the first straight, the front 50 mm into the elbow: the
    # front's springs and the body's tilt are over their limits, the
    # centre's springs are not.  ``step`` solves the centre's row; ``run``
    # and the row-by-row reference raise for the front.
    scenario = make_four_section_scenario(robot=make_robot(**limit))
    scenario.validate()
    assert step(scenario, 0.0, 450.0).compressions == (8.0, 8.0, 8.0)
    for simulate in (run, stepwise_run):
        with pytest.raises(error, match=message):
            simulate(scenario)


# --- one solve per centre curvature -------------------------------------------------

@pytest.mark.parametrize("dt_s", [0.1, 0.01, 0.001])
def test_run_solves_once_per_centre_curvature(monkeypatch, dt_s):
    # The centre crosses four segments of two curvatures (both bends have
    # R = 300), so two solves and four records, whatever the time grid.
    solve = simulator.solve_torque_balance
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(simulator, "solve_torque_balance", counted)
    records, _ = run(make_four_section_scenario(dt_s=dt_s))
    assert len(calls) == 2
    assert len(records.values) == 4
    assert len(records) > 4000 * 0.01 / dt_s


def test_four_section_solves_take_few_halvings(monkeypatch):
    # The straight's bracket is one point.  The bends (both R = 300) share a
    # root in a flat run of the float residual, where plain halving takes 53
    # steps and the walk from the closed-form root takes none.  0 measured.
    solve = simulator.solve_torque_balance
    halvings = []

    def counted(*args):
        result = solve(*args)
        halvings.append(result.iterations)
        return result

    monkeypatch.setattr(simulator, "solve_torque_balance", counted)
    run(make_four_section_scenario())
    assert len(halvings) == 2
    assert sum(halvings) <= 2


def test_run_cost_does_not_grow_with_rows(monkeypatch, tmp_path):
    # Counts, not timings: a run and its CSV records cost the same number of
    # solves, segment lookups, limit checks, record objects and segment
    # statistics at any dt_s, each per-segment value computed once,
    # and build no centerline frames.  No limit can fire, so no row's front
    # or rear is looked up, and the run itself touches no numpy.
    calls = Counter()

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"run used numpy.{name} with no pair of kinds failing")

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "segment_at" and isinstance(args[1], np.ndarray):
                calls["segment_at of an array"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(simulator, "step", counted("step", simulator.step))
    segment_at = counted("segment_at", geometry.segment_at)
    monkeypatch.setattr(geometry, "segment_at", segment_at)  # pose_at's lookups
    monkeypatch.setattr(simulator, "segment_at", segment_at)  # run's segment search
    for name in ("pose_at", "spring_compression", "asymmetry_deg", "required_track_speeds",
                 "solve_torque_balance", "summarize"):
        monkeypatch.setattr(simulator, name, counted(name, getattr(simulator, name)))
    monkeypatch.setattr(SimRecord, "__init__", counted("SimRecord", SimRecord.__init__))
    monkeypatch.setattr(simulator.SegmentStats, "__init__",
                        counted("SegmentStats", simulator.SegmentStats.__init__))
    seen = []
    for dt_s in (0.01, 0.001):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "np", NoNumpy())
            records, _ = run(make_four_section_scenario(dt_s=dt_s))
        emit_records(records, "csv", tmp_path / "records.csv")
        seen.append((dict(calls), len(records)))
    (coarse, coarse_rows), (fine, fine_rows) = seen
    assert coarse == fine
    assert coarse["step"] == 2
    assert coarse["SimRecord"] == 4
    assert "pose_at" not in coarse
    assert coarse["spring_compression"] == 4  # 1 per kind of segment, 1 per step
    assert "segment_at of an array" not in coarse
    assert coarse["asymmetry_deg"] == 4  # the four probes
    assert coarse["required_track_speeds"] == coarse["solve_torque_balance"] == 2  # 1 per step
    assert coarse["summarize"] == 1
    assert coarse["SegmentStats"] == 4  # 1 per centre segment visited
    assert fine_rows > 9 * coarse_rows


@pytest.mark.parametrize("max_steps", [1, 2, 5])
def test_fills_cut_short_give_the_same_table(monkeypatch, max_steps):
    # A fill sized by MAX_STEPS stops short and extends, so rows where the
    # body's front or rear crosses a boundary also fall where a fill extends.
    scenario = make_four_section_scenario(dt_s=0.1)
    records, summary = run(scenario)
    monkeypatch.setattr(simulator, "MAX_STEPS", max_steps)
    short, short_summary = run(scenario)
    assert short == records and short_summary == summary
    assert short.values == records.values  # each segment's run starts on the same row
    assert short.run_ends == records.run_ends


def test_records_table_reads_like_a_list_of_rows(four_section_scenario):
    records, _ = run(four_section_scenario)
    rows = list(records)
    assert len(records) == len(rows) == 4528
    assert len(records.values) == 4
    assert all(type(row.t) is float and type(row.s) is float for row in rows[:3])
    for index in (0, 1, 1234, -1, -len(rows)):
        assert records[index] == rows[index]
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            records[index]
    with pytest.raises(TypeError):
        records[10:20]  # a table is not sliced


def test_table_rows_are_built_from_their_fields(monkeypatch, four_section_scenario):
    # Each row is a ``SimRecord`` built positionally from its run's value;
    # ``dataclasses.replace`` gives the same rows at about twice the cost.
    records, _ = run(four_section_scenario)
    expected = [replace(value, t=t, s=s) for value, t, s in zip(
        (records.values[bisect_right(records.run_ends, row)] for row in range(len(records))),
        records.t.tolist(), records.s.tolist())]

    def refuse(*args, **kwargs):
        raise AssertionError("a table row went through dataclasses.replace")

    monkeypatch.setattr(simulator, "replace", refuse)
    assert list(records) == expected
    assert [records[row] for row in range(len(records))] == expected
    assert records[-1] == expected[-1]


def test_per_segment_values_are_plain_floats(four_section_scenario):
    # numpy holds per-row columns only: the robot's formulas give tuples of
    # floats on straights and in bends, from int arguments too, and the run
    # ends are ints.
    extra = four_section_scenario.bend_extra_compression_mm
    robots = (four_section_scenario.robot, make_robot(preload_mm=8, length_mm=200))
    for curvature, robot in itertools.product((0.0, 1.0 / 300.0), robots):
        compressions = spring_compression(curvature, robot, extra)
        tilt = asymmetry_deg(compressions, spring_compression(0.0, robot, extra), robot)
        for values in (required_track_speeds(curvature, 60, robot), compressions, tilt):
            assert type(values) is tuple and len(values) == 3, values
            assert all(type(v) is float for v in values), values
    records, _ = run(four_section_scenario)
    assert type(records.run_ends) is tuple and len(records.run_ends) == 4
    assert all(type(end) is int for end in records.run_ends), records.run_ends


def _outcome(run_fn, scenario):
    """(records, summary, error type and message) of one run."""
    try:
        return (*run_fn(scenario), None)
    except SimulationError as exc:
        return getattr(exc, "records", None), getattr(exc, "summary", None), (type(exc), str(exc))


segments = st.one_of(
    st.builds(Straight, st.floats(20.0, 400.0)),
    st.builds(Bend, st.floats(80.0, 400.0), st.floats(5.0, 180.0), st.floats(-180.0, 180.0)),
)


@st.composite
def networks_with_repeated_radii(draw):
    """Segments whose bends share two or three radii, so centre curvatures repeat."""
    radii = draw(st.lists(st.floats(80.0, 400.0), min_size=2, max_size=3))
    bends = st.builds(Bend, st.sampled_from(radii), st.floats(5.0, 180.0),
                      st.floats(-180.0, 180.0))
    return draw(st.lists(st.one_of(st.builds(Straight, st.floats(20.0, 400.0)), bends),
                         min_size=2, max_size=5))


# Short bodies and large bend compressions reach the tilt and compression
# limits; a budget below 1 of the nominal traversal time ends the run early.
scenario_draws = dict(
    dt_s=st.floats(0.01, 0.5),
    orientation=st.floats(0.0, 360.0),
    length_mm=st.one_of(st.floats(10.0, 60.0), st.floats(60.0, 800.0)),
    preload_mm=st.floats(2.0, 8.0),
    extra_mm=st.floats(0.0, 12.0),
    budget=st.floats(0.05, 2.5),
)


@given(network=st.lists(segments, min_size=1, max_size=4), **scenario_draws)
@settings(max_examples=60, deadline=None)
def test_run_matches_stepping_every_row(tmp_path_factory, network, **draws):
    _check_drawn_scenario(tmp_path_factory.getbasetemp(), network, **draws)


@given(network=networks_with_repeated_radii(), **scenario_draws)
@settings(max_examples=60, deadline=None)
def test_run_reusing_solves_matches_stepping_every_row(tmp_path_factory, network, **draws):
    _check_drawn_scenario(tmp_path_factory.getbasetemp(), network, **draws)


def _check_drawn_scenario(folder, network, dt_s, orientation, length_mm, preload_mm, extra_mm,
                          budget):
    robot = make_robot(orientation_deg=orientation, length_mm=length_mm, preload_mm=preload_mm)
    scenario = make_four_section_scenario(
        network=build_network(network, 77.0),
        robot=robot,
        dt_s=dt_s,
        bend_extra_compression_mm=extra_mm,
    )
    finish = scenario.network.total_length / scenario.center_speed_mm_s
    scenario = replace(scenario, max_time_s=max(1.5 * dt_s, budget * finish))
    scenario.validate()
    _check_against_stepping(scenario, folder)


def _check_against_stepping(scenario, folder):
    """``run`` and ``stepwise_run`` give equal outcomes, down to the first
    limit hit and its message; returns the error type."""
    records, summary, error = _outcome(run, scenario)
    rows, expected_summary, expected_error = _outcome(stepwise_run, scenario)
    assert error == expected_error
    assert summary == expected_summary
    assert (records is None) == (rows is None)
    # The table writes the bytes a row-by-row writer gives for the same rows,
    # complete or cut short by the time budget.
    if records is not None:
        assert list(records) == rows
        # One record per centre segment visited, whose run ends where the
        # centre's segment changes.
        assert all(a.segment_index != b.segment_index
                   for a, b in zip(records.values, records.values[1:]))
        centre = geometry.segment_at(scenario.network, records.s)
        changes = np.flatnonzero(centre[1:] != centre[:-1]) + 1
        assert records.run_ends == (*changes.tolist(), len(records))
        for fmt in ("csv", "json"):
            emit_records(records, fmt, folder / f"table.{fmt}")
            write_rows(rows, fmt, folder / f"rows.{fmt}")
            assert (folder / f"table.{fmt}").read_bytes() == (folder / f"rows.{fmt}").read_bytes()
    return error and error[0]


@pytest.mark.parametrize("input_speed", [5e-324, 1e-322])
def test_run_matches_stepping_when_the_robot_barely_moves(tmp_path, input_speed):
    # A valid subnormal input speed: at 5e-324 rad/s a row's advance,
    # dt_s times the mean track speed, underflows to 0.  The run spends its
    # time budget where it stands, as stepping every row does.
    scenario = make_four_section_scenario(input_speed_rad_s=input_speed, max_time_s=0.5)
    scenario.validate()
    assert _check_against_stepping(scenario, tmp_path) is MaxTimeExceeded


@pytest.mark.parametrize("segments, tilt_at_mm", [
    # The centre enters the second straight, reusing the first one's solve, on
    # the row where the front enters the bend.
    ([Straight(100.0), Straight(10.0), Bend(300.0, 90.0)], 100.0),
    # The front leaves the bend 10 mm before the centre does.
    ([Bend(300.0, 30.0), Straight(400.0)], 300.0 * math.radians(30.0) - 10.0),
])
# Fills cut short by MAX_STEPS put the tilting row first in a fill at some size.
@pytest.mark.parametrize("max_steps", [simulator.MAX_STEPS, *range(1, 9)])
def test_a_tilt_met_between_solves_raises_within_the_time_budget(monkeypatch, tmp_path,
                                                                 segments, tilt_at_mm,
                                                                 max_steps):
    # A 20 mm body with one end 10 mm deeper into a bend tilts past its
    # limit; the time budget runs out before the centre's next segment.
    scenario = make_four_section_scenario(
        network=build_network(segments, 77.0),
        robot=make_robot(length_mm=20.0, preload_mm=2.0),
        bend_extra_compression_mm=10.0,
        max_time_s=tilt_at_mm / 50.0 + 0.1,
    )
    scenario.validate()
    monkeypatch.setattr(simulator, "MAX_STEPS", max_steps)
    assert _check_against_stepping(scenario, tmp_path) is AsymmetryLimit


def test_a_robot_that_slides_back_past_the_start_is_out_of_range(monkeypatch, tmp_path):
    # The solver's absolute residual admits a tiny negative mean speed at
    # tiny input speeds.  The centre then leaves the network behind its start
    # on the second row, where stepping every row raises, and so does the run.
    real_step = simulator.step

    def sliding_step(scenario, t, s):
        return replace(real_step(scenario, t, s), track_speeds=(-1e-9,) * 3)

    monkeypatch.setattr(simulator, "step", sliding_step)
    monkeypatch.setattr(oracles, "step", sliding_step)
    scenario = make_four_section_scenario(max_time_s=0.5)
    assert _check_against_stepping(scenario, tmp_path) is OutOfRange


def test_a_robot_that_slides_back_across_a_boundary_is_out_of_range(monkeypatch):
    # The front of a 1000.02 mm body starts just past the first boundary
    # (500 mm) and slides back over it two rows later, with the centre
    # behind the start.  ``step`` rejects that centre, and so does the run.
    real_step = simulator.step
    monkeypatch.setattr(simulator, "step", lambda scenario, t, s: replace(
        real_step(scenario, t, s), track_speeds=(-1.0,) * 3))
    with pytest.raises(OutOfRange):
        run(make_four_section_scenario(max_time_s=0.5, robot=make_robot(length_mm=1000.02)))


# --- APE ---------------------------------------------------------------------------

def test_ape_examples():
    assert ape(39.0, 40.0) == pytest.approx(2.5)
    assert ape(33.62, 33.62) == 0.0
    assert ape(123.4, 123.4) == 0.0


def test_bend_track_speeds_that_underflow_are_rejected():
    # At 5e-324 mm/s the track riding the inside of a 100 mm bend, h = 50 mm
    # from the axis, would run at half an ulp: 0, a zero reference for its APE.
    scenario = make_four_section_scenario(
        network=build_network([Bend(100.0, 90.0)], 77.0),
        robot=make_robot(sprocket_radius_mm=1.0),
        input_speed_rad_s=5e-324,
    )
    assert scenario.center_speed_mm_s == 5e-324
    with pytest.raises(ValidationError) as err:
        scenario.validate()
    assert err.value.path == "input_speed_rad_s"
    assert "every bend track speed (down to 0.0 mm/s) is > 0" in str(err.value)
    # In a 101 mm bend that track runs at 51/101 of an ulp, which rounds up to one.
    replace(scenario, network=build_network([Bend(101.0, 90.0)], 77.0)).validate()


def test_bend_ape_is_tiny(four_section_scenario):
    _, summary = run(four_section_scenario)
    assert max(summary.per_track_ape_percent) < 1e-6


@pytest.mark.parametrize("orientation", [0.0, 37.0, 90.0, 200.0])
@pytest.mark.parametrize("roll", [0.0, 73.0])
def test_bend_track_speeds_follow_the_contact_paths(orientation, roll):
    # The oracle measures the three contact paths through sampled frames; it
    # never uses the path-radius formula the run's required speeds come from.
    network = build_network(
        [Straight(500.0), Bend(300.0, 90.0, roll), Straight(350.0), Bend(300.0, 180.0, roll)],
        77.0,
    )
    scenario = make_four_section_scenario(
        network=network, robot=make_robot(orientation_deg=orientation)
    )
    records, _ = run(scenario)
    for index in (1, 3):
        expected = contact_path_speeds(scenario, index)
        speeds = {r.track_speeds for r in records.values if r.segment_index == index}
        assert speeds
        for track_speeds in speeds:
            assert track_speeds == pytest.approx(expected, rel=1e-9)


# --- means -------------------------------------------------------------------------

# Where numpy's pairwise sum changes shape: 8 copies start the eight
# accumulators, past 128 the sum splits, at a multiple of 8.
BLOCK_EDGES = [1, 7, 8, 9, 127, 128, 129, 135, 136, 255, 256, 257]
MEAN_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -4e-310, 1e308, -1e308,
               0.1, 1 / 3, 50.0, -7.25, 61.803398874989484]


def numpy_mean(v, n):
    with np.errstate(over="ignore"):  # n copies of 1e308 add up to inf
        return float(np.mean(np.full(n, v)))


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_mean_of_copies_has_the_bits_of_numpys_mean_at_the_block_edges(n):
    for v in MEAN_VALUES:
        assert simulator.mean_of_copies(v, n).hex() == numpy_mean(v, n).hex(), v


@given(v=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(MEAN_VALUES),
       n=st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_mean_of_copies_has_the_bits_of_numpys_mean(v, n):
    # .hex() tells -0.0 from 0.0.
    assert simulator.mean_of_copies(v, n).hex() == numpy_mean(v, n).hex()


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 1000])
def test_the_three_track_sum_keeps_each_tracks_bits(n):
    # One pairwise sum carries the three tracks; each must come out as its
    # own mean, here with every value of MEAN_VALUES on every track.
    for i in range(len(MEAN_VALUES)):
        speeds = tuple(MEAN_VALUES[(i + j) % len(MEAN_VALUES)] for j in range(3))
        means = simulator.means_of_copies(speeds, n)
        assert [m.hex() for m in means] == [simulator.mean_of_copies(v, n).hex()
                                            for v in speeds] == [numpy_mean(v, n).hex()
                                                                 for v in speeds], speeds


@pytest.mark.parametrize("speeds", [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0,) * 3,
                                    (5e-324, 5e-324, -5e-324), (0.1, 0.1, 0.1 + 2**-56)])
def test_equal_comparing_speeds_keep_each_tracks_bits(speeds):
    # The speeds compare equal, or nearly, but their bits differ: each
    # track's mean is numpy's mean of its own rows.
    scenario = straight_only_scenario()
    records, summary = run(scenario)
    value = replace(records.values[0], track_speeds=speeds)
    table = simulator.Records([value], records.pieces)
    means = simulator.summarize(table, scenario, summary.finish_time,
                                summary.final_s).segments[0].mean_track_speeds
    assert [m.hex() for m in means] == [numpy_mean(v, len(records)).hex() for v in speeds]


def test_summarize_allocates_no_array_of_rows():
    # Memory, not time: at 100 times the rows per segment the peak grows
    # only by the O(log n) partial sums a mean keeps, about 1.5 kB here.  A
    # float64 array of the shortest run's rows at the fine step is 112 kB.
    def peak(dt_s):
        scenario = make_four_section_scenario(dt_s=dt_s)
        records, summary = run(scenario)
        tracemalloc.start()
        try:
            again = simulator.summarize(records, scenario, summary.finish_time, summary.final_s)
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == summary
        return used, min(np.diff((0, *records.run_ends)))

    (coarse, coarse_rows), (fine, fine_rows) = peak(0.05), peak(0.0005)
    assert fine_rows >= 100 * coarse_rows
    assert fine <= coarse + 4096


def test_run_allocates_no_array_of_rows(tmp_path):
    # Memory, not time: from dt_s 0.05 to 0.0005 the rows grow 100-fold.
    # ``run`` keeps a few pieces per segment and no column, so its peak
    # stays put; the writers build one chunk of rows at a time, so theirs
    # stay put too.  The t and s of the shortest run at the fine step, as
    # float64, would take 224 kB.
    def peaks(dt_s):
        tracemalloc.start()
        try:
            records, _ = run(make_four_section_scenario(dt_s=dt_s))
            ran = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        emitted = []
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                emit_records(records, fmt, tmp_path / f"records.{fmt}")
                emitted.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        def arrays():
            return sum(isinstance(value, np.ndarray) for value in vars(records).values())

        assert arrays() == 0  # emitting built no column either
        assert all(type(value) is float for run_pieces in records.pieces for piece in run_pieces
                   for value in piece[:4])
        assert records.t.shape == (len(records),)
        assert arrays() == 1  # t and s, built on access and kept
        return ran, emitted, min(np.diff((0, *records.run_ends)))

    (coarse, coarse_emitted, coarse_rows), (fine, fine_emitted, fine_rows) = peaks(0.05), peaks(0.0005)
    assert fine_rows >= 100 * coarse_rows
    assert fine <= coarse + 4096
    # The file's 8 kB text buffer moves in and out of a writer's peak.
    for coarse_peak, fine_peak in zip(coarse_emitted, fine_emitted):
        assert fine_peak <= coarse_peak + 8192


def test_a_limit_only_an_absent_kind_meets_costs_no_row_lookup():
    # The bend compression of 9.5 mm fails every (front, rear) pair with a
    # bend end, but a straight-only network has no bend to put under the
    # body.  ``run`` probes only the pairs of kinds the network has, so it
    # looks up no row's ends: its records and peak are those of a limit that
    # nothing meets.  The s column and lookups of the 20,000 rows would take
    # about 960 kB.
    def traced(max_compression_mm):
        scenario = straight_only_scenario(robot=make_robot(max_compression_mm=max_compression_mm),
                                          dt_s=0.0005)
        tracemalloc.start()
        try:
            result = run(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    (records, summary), tight = traced(9.0)
    (loose_records, loose_summary), loose = traced(16.0)
    assert len(records) > 20_000
    assert records.pieces == loose_records.pieces
    assert list(records) == list(loose_records)
    assert summary == loose_summary
    assert tight <= loose + 4096


# --- progressions ------------------------------------------------------------------

def cumsum_exit(x, d, low, high, count):
    """``first_exit`` from ``np.cumsum``'s column of ``x`` and ``count`` adds of ``d``."""
    column = np.full(count + 1, d)
    column[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        column = np.cumsum(column)
        outside = ~((low <= column) & (column < high))
    outside[0] = False
    k = int(np.argmax(outside)) if outside.any() else count
    return k, float(column[k])


TINY = 5e-324
ULP1 = 2.0 ** -52  # the spacing of the floats in [1, 2)
PROGRESSION_EDGES = {
    "+0.0 start": (0.0, 0.01, -math.inf, 30.0, 4000),
    "-0.0 start": (-0.0, 0.5, 0.0, 500.0, 2000),
    "-0.0 start, -0.0 step": (-0.0, -0.0, -1.0, 1.0, 10),
    "-0.0 start, +0.0 step": (-0.0, 0.0, -1.0, 1.0, 10),
    "subnormal step": (3e-310, TINY, 0.0, 3e-310 + 2000 * TINY, 3000),
    "subnormal step into the normals": (2.2250738585072e-308, 7 * TINY, 0.0, 1.0, 3000),
    "subnormal start and step": (TINY, TINY, 0.0, 1e-320, 3000),
    "step under half a spacing": (1.0, 0.4 * ULP1, 0.0, 2.0, 100),
    "tie from an even start": (1.0, 1.5 * ULP1, 0.0, 2.0, 3000),
    "tie from an odd start": (1.0 + ULP1, 1.5 * ULP1, 0.0, 2.0, 3000),
    "tie that rounds down": (1.0 + ULP1, 2.5 * ULP1, 0.0, 2.0, 3000),
    "start below the step": (0.3, 1.7, 0.0, 1000.0, 3000),
    "several binades": (1.0, 0.1, 0.0, 300.0, 5000),
    "row on the bound": (0.0, 0.25, -math.inf, 100.0, 1000),
    "budget before the bound": (7.0, 0.01, 0.0, 100.0, 500),
    "negative step": (10.0, -0.3, 0.0, 20.0, 100),
    "negative step through zero": (1.0, -0.1, -math.inf, 2.0, 30),
    "zero step": (5.0, 0.0, 0.0, 6.0, 50),
    "overflow to inf": (1e308, 1e307, -math.inf, math.inf, 30),
    "top binade": (2.0 ** 1022, 0.7 * 2.0 ** 1021, 0.0, math.inf, 30),
    "negative start": (-3.0, 0.7, -math.inf, 10.0, 50),
    "start outside": (5.0, 0.1, 0.0, 5.0, 10),
    "no rows": (5.0, 0.1, 0.0, 6.0, 0),
}


@pytest.mark.parametrize("case", PROGRESSION_EDGES)
def test_first_exit_matches_cumsum_progression_edges(case):
    x, d, low, high, count = PROGRESSION_EDGES[case]
    k, value = simulator.first_exit(x, d, low, high, count)
    expected_k, expected = cumsum_exit(x, d, low, high, count)
    assert (k, value.hex()) == (expected_k, expected.hex())


@st.composite
def progressions(draw):
    """(x, d, low, high, count): often a step under the start, so that the
    rule applies, and a bound the sum reaches within the count."""
    x = draw(st.floats(allow_nan=False) | st.floats(0.0, 1e4)
             | st.sampled_from([0.0, -0.0, TINY, 1.0, 1.0 + ULP1, 1e308]))
    d = draw(st.floats(allow_nan=False) | st.floats(-1.0, 10.0)
             | st.floats(1e-17, 1.0).map(lambda ratio: abs(x) * ratio)
             | st.sampled_from([0.0, -0.0, TINY, 1.5 * ULP1]))
    count = draw(st.integers(0, 2000))
    reach = x + d * draw(st.floats(0.5, 1.5 * count + 1.0))  # where the sum is some rows on
    high = draw(st.sampled_from([reach, reach, reach, math.inf, x, None]))
    low = draw(st.sampled_from([-math.inf, 0.0, x, x, None]))
    anywhere = st.floats(allow_nan=False)
    return (x, d, draw(anywhere) if low is None else low, draw(anywhere) if high is None else high,
            count)


@given(case=progressions())
@settings(max_examples=500, deadline=None)
def test_first_exit_matches_cumsum_progression(case):
    # .hex() tells -0.0 from 0.0.
    x, d, low, high, count = case
    expected_k, expected = cumsum_exit(x, d, low, high, count)
    k, value = simulator.first_exit(x, d, low, high, count)
    assert (k, value.hex()) == (expected_k, expected.hex())


def built_rows(piece):
    """``piece``'s (t, s) rows from ``np.cumsum``, overflow allowed."""
    t, s = ([x, *[d] * (piece.rows - 1)] for x, d in ((piece.t, piece.dt), (piece.s, piece.ds)))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(t), np.cumsum(s)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
MAX = 1.7976931348623157e308  # the largest float


@st.composite
def pieces(draw):
    """A ``Piece`` whose columns end near the top of the float range as often as not."""
    rows = draw(st.integers(1, 2000))
    starts = finite_floats | st.sampled_from([1e308, -1e308, 1.7e308, 0.0])
    t, s = draw(starts), draw(starts)

    def near(start):  # a step that takes the column some way past the largest float, or short of it
        return st.floats(-3.0, 3.0).map(lambda f: f * (MAX - abs(start)) / rows)

    return simulator.Piece(t, draw(finite_floats | near(t)), s, draw(finite_floats | near(s)), rows)


@given(piece=pieces())
@settings(max_examples=300, deadline=None)
def test_piece_finite_tells_whether_its_progression_rows_are(piece):
    # The writers check this before they open a file; the rows are never built there.
    t, s = built_rows(piece)
    assert piece.finite() == (bool(np.isfinite(t).all()), bool(np.isfinite(s).all()))


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
        {"dt_s": 1e-7},  # over a million steps of dt_s before max_time_s
    ],
)
def test_scenario_invariants(overrides):
    with pytest.raises(ValueError):
        make_four_section_scenario(**overrides).validate()
