import itertools
import math
import tracemalloc
from array import array
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pipeclimber.geometry as geometry
import pipeclimber.scenario_io as scenario_io
import pipeclimber.simulator as simulator
from pipeclimber import (
    AsymmetryLimit,
    BadSegment,
    Bend,
    CompressionLimit,
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
from pipeclimber.scenario_io import parse_scenario, scenario_from_dict
from conftest import make_four_section_scenario, make_robot
import golden_corpus
import oracles
from oracles import contact_path_speeds, exact_mean, grid_rows, stepwise_run, write_rows


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
    spent = four_section_scenario._replace(max_time_s=summary.finish_time)
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


@pytest.mark.parametrize("field, reached, error", [
    ("max_asym_deg", 0.4297102894010436, AsymmetryLimit),  # a bend and a straight
    ("max_compression_mm", 9.5, CompressionLimit),  # module A in a bend
], ids=["tilt", "compression"])
def test_a_limit_met_exactly_is_not_over(field, reached, error):
    # The limits are strict: on the shipped four-section scenario the body
    # reaches each value above and no more, so at that limit the run
    # finishes, and one float below it the limit is over.
    assert math.degrees(math.atan2(1.5, 200.0)) == 0.4297102894010436
    scenario = parse_scenario(golden_corpus.ROOT / "scenarios" / "four_section.json")
    for limit, over in ((reached, False), (math.nextafter(reached, 0.0), True)):
        limited = scenario._replace(robot=scenario.robot._replace(**{field: limit}))
        limited.validate()
        for simulate in (run, stepwise_run):
            if over:
                with pytest.raises(error, match=f"{reached:.3f}"):
                    simulate(limited)
            else:
                assert simulate(limited)[1].finish_time == run(scenario)[1].finish_time


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
    # or rear is looked up, and neither the run nor the writer builds a column.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(simulator, "step", counted("step", simulator.step))
    segment_at = counted("segment_at", geometry.segment_at)
    monkeypatch.setattr(geometry, "segment_at", segment_at)  # pose_at's lookups
    monkeypatch.setattr(simulator, "segment_at", segment_at)  # run's segment search
    for name in ("pose_at", "spring_compression", "asymmetry_deg", "required_track_speeds",
                 "solve_torque_balance", "summarize", "_check_rows"):
        monkeypatch.setattr(simulator, name, counted(name, getattr(simulator, name)))
    # A named tuple's constructor is its __new__; ``run`` copies a solved
    # record for a later visit with ``tuple.__new__``, which no hook sees.
    monkeypatch.setattr(SimRecord, "__new__", counted("SimRecord", SimRecord.__new__))
    monkeypatch.setattr(simulator.SegmentStats, "__new__",
                        counted("SegmentStats", simulator.SegmentStats.__new__))
    seen = []
    for dt_s in (0.01, 0.001):
        calls.clear()
        records, _ = run(make_four_section_scenario(dt_s=dt_s))
        emit_records(records, "csv", tmp_path / "records.csv")
        assert not any(isinstance(value, array) for value in vars(records).values())
        seen.append((dict(calls), len(records), len(records.values)))
    (coarse, coarse_rows, coarse_values), (fine, fine_rows, fine_values) = seen
    assert coarse == fine
    assert coarse["step"] == 2
    assert coarse["SimRecord"] == 2  # 1 per step
    assert coarse_values == fine_values == 4  # 1 record per centre segment visited
    assert "pose_at" not in coarse
    assert coarse["spring_compression"] == 4  # 1 per kind of segment, 1 per step
    assert "_check_rows" not in coarse
    assert coarse["asymmetry_deg"] == 4  # the four probes
    assert coarse["required_track_speeds"] == coarse["solve_torque_balance"] == 2  # 1 per step
    assert coarse["summarize"] == 1
    assert coarse["SegmentStats"] == 4  # 1 per centre segment visited
    assert fine_rows > 9 * coarse_rows


def test_records_table_reads_like_a_list_of_rows(four_section_scenario):
    records, _ = run(four_section_scenario)
    rows = list(records)
    assert len(records) == len(rows) == 4528
    assert len(records.values) == len(records.pieces) == 4  # one piece per centre segment visited
    assert all(type(piece) is simulator.Piece for piece in records.pieces)
    assert all(type(row.t) is float and type(row.s) is float for row in rows[:3])
    for index in (0, 1, 1234, -1, -len(rows)):
        assert records[index] == rows[index]
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            records[index]
    with pytest.raises(TypeError):
        records[10:20]  # a table is not sliced


def test_table_rows_are_built_from_their_fields(monkeypatch, four_section_scenario):
    # Each row is a ``SimRecord`` built with ``tuple.__new__`` from its ``t``,
    # ``s`` and its visit's value's other fields.  ``_replace`` gives the same
    # rows at about three times the cost, the named tuple's own ``__new__`` at
    # about 1.3 times.
    records, _ = run(four_section_scenario)
    ts, ss = (np.concatenate(columns).tolist()
              for columns in zip(*map(grid_rows, records.pieces)))
    expected = [value._replace(t=t, s=s) for value, t, s in zip(
        (records.values[bisect_right(records.run_ends, row)] for row in range(len(records))),
        ts, ss)]

    def refuse(*args, **kwargs):
        raise AssertionError("a table row went through SimRecord._replace or SimRecord()")

    monkeypatch.setattr(SimRecord, "_replace", refuse)
    monkeypatch.setattr(SimRecord, "__new__", refuse)
    assert list(records) == expected
    assert [records[row] for row in range(len(records))] == expected
    assert records[-1] == expected[-1]


def test_per_segment_values_are_plain_floats(four_section_scenario):
    # Only per-row columns are arrays: the robot's formulas give tuples of
    # floats on straights and in bends, from int arguments too, and over the
    # compression and tilt limits as within them; the run ends are ints.
    extra = four_section_scenario.bend_extra_compression_mm
    robots = (four_section_scenario.robot, make_robot(preload_mm=8, length_mm=200),
              make_robot(preload_mm=15, length_mm=20, max_asym_deg=1))
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
    scenario = scenario._replace(max_time_s=max(1.5 * dt_s, budget * finish))
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
        # One record and one piece per centre segment visited, whose run
        # ends where the centre's segment changes.
        assert len(records.pieces) == len(records.values)
        assert all(a.segment_index != b.segment_index
                   for a, b in zip(records.values, records.values[1:]))
        centre = [geometry.segment_at(scenario.network, row.s) for row in rows]
        changes = [row for row in range(1, len(centre)) if centre[row] != centre[row - 1]]
        assert records.run_ends == (*changes, len(records))
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
# The budget ends on a row a few before or after the failing one, or (None)
# 0.1 s after it: a budget ending on or before that row runs out first.
@pytest.mark.parametrize("budget_row", [None, -3, -2, -1, 0, 1, 2, 3])
def test_a_tilt_met_between_solves_raises_within_the_time_budget(tmp_path, segments,
                                                                 tilt_at_mm, budget_row):
    # A 20 mm body with one end 10 mm deeper into a bend tilts past its
    # limit; the time budget runs out before the centre's next segment.  The
    # failing row is the first of a visit in the first network and inside
    # one in the second.
    scenario = make_four_section_scenario(
        network=build_network(segments, 77.0),
        robot=make_robot(length_mm=20.0, preload_mm=2.0),
        bend_extra_compression_mm=10.0,
        max_time_s=tilt_at_mm / 50.0 + 0.1,
    )
    scenario.validate()
    # The same run with no tilt limit passes the failing row: the first
    # with one end in a bend and the other not.
    untilted = scenario._replace(robot=scenario.robot._replace(max_asym_deg=math.inf))
    records, _, error = _outcome(run, untilted)
    assert error[0] is MaxTimeExceeded
    network, half = scenario.network, scenario.robot.length_mm / 2.0
    failing = next(row for row, record in enumerate(records)
                   if (network.curvatures[geometry.segment_at(network, record.s + half)] != 0.0)
                   != (network.curvatures[geometry.segment_at(network, record.s - half)] != 0.0))
    assert (failing in (0, *records.run_ends)) == (len(segments) == 3)
    expected = AsymmetryLimit
    if budget_row is not None:
        scenario = scenario._replace(max_time_s=records[failing + budget_row].t)
        expected = MaxTimeExceeded if budget_row <= 0 else AsymmetryLimit
    assert _check_against_stepping(scenario, tmp_path) is expected


def test_a_robot_that_slides_back_past_the_start_is_out_of_range(monkeypatch, tmp_path):
    # The solver's absolute residual admits a tiny negative mean speed at
    # tiny input speeds.  The centre then leaves the network behind its start
    # on the second row, where stepping every row raises, and so does the run.
    real_step = simulator.step

    def sliding_step(scenario, t, s):
        return real_step(scenario, t, s)._replace(track_speeds=(-1e-9,) * 3)

    monkeypatch.setattr(simulator, "step", sliding_step)
    monkeypatch.setattr(oracles, "step", sliding_step)
    scenario = make_four_section_scenario(max_time_s=0.5)
    assert _check_against_stepping(scenario, tmp_path) is OutOfRange


def test_a_robot_that_slides_back_across_a_boundary_is_out_of_range(monkeypatch):
    # The front of a 1000.02 mm body starts just past the first boundary
    # (500 mm) and slides back over it two rows later, with the centre
    # behind the start.  ``step`` rejects that centre, and so does the run.
    real_step = simulator.step
    monkeypatch.setattr(simulator, "step", lambda scenario, t, s: real_step(
        scenario, t, s)._replace(track_speeds=(-1.0,) * 3))
    with pytest.raises(OutOfRange):
        run(make_four_section_scenario(max_time_s=0.5, robot=make_robot(length_mm=1000.02)))


@pytest.mark.parametrize("speed, error, message", [
    (0.0, MaxTimeExceeded, "within 120.0 s (reached 0.0 of "),
    (-1.0, OutOfRange, "arc length -10.0 outside [0, "),
    (math.nan, SimulationError, "arc length left the float range (nan mm) at 10.0 s"),
    (1e308, SimulationError, "arc length left the float range (inf mm) at 10.0 s"),
], ids=["zero", "negative", "nan", "inf"])
def test_a_row_advance_of_zero_negative_nan_or_inf_ends_the_run(monkeypatch, speed, error,
                                                                message):
    # A row's advance ds, dt_s times the mean track speed, that is 0 runs on
    # the budget alone, a negative one slides back past the start, and a NaN
    # one, or one that overflows (10 s times 1e308 mm/s), leaves the float
    # range on the next row.
    real_step = simulator.step
    monkeypatch.setattr(simulator, "step", lambda scenario, t, s: real_step(
        scenario, t, s)._replace(track_speeds=(speed,) * 3))
    with pytest.raises(error) as err:
        run(make_four_section_scenario(dt_s=10.0))
    assert type(err.value) is error
    assert message in str(err.value)
    if error is MaxTimeExceeded:
        assert len(err.value.records) == 12


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
    scenario._replace(network=build_network([Bend(101.0, 90.0)], 77.0)).validate()


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
    records, summary = run(scenario)
    for index in (1, 3):
        expected = contact_path_speeds(scenario, index)
        speeds = {r.track_speeds for r in records.values if r.segment_index == index}
        assert speeds
        for track_speeds in speeds:
            assert track_speeds == pytest.approx(expected, rel=1e-9)
        references = [stats.analytic_speeds for stats in summary.segments
                      if stats.index == index]
        assert references
        for analytic in references:
            assert analytic == pytest.approx(expected, rel=1e-9)


def test_ape_reference_is_the_required_speeds():
    # 1/(1/103) is not 103, so a reference recomputed from the bend radius
    # could differ in its last bits from the speeds the loads were built from.
    assert 1.0 / (1.0 / 103.0) != 103.0
    network = build_network([Straight(300.0), Bend(103.0, 90.0), Straight(300.0)], 77.0)
    for orientation in (0.0, 37.0, 200.0):
        scenario = make_four_section_scenario(
            network=network, robot=make_robot(orientation_deg=orientation))
        records, summary = run(scenario)
        assert len(summary.segments) == len(records.values) == 3
        for stats, value in zip(summary.segments, records.values):
            assert list(map(float.hex, stats.analytic_speeds)) == \
                list(map(float.hex, value.required_speeds))


# --- means -------------------------------------------------------------------------

# Run lengths around the shapes of numpy's pairwise sum, which the means
# once copied: 8 copies started its eight accumulators, past 128 it split.
BLOCK_EDGES = [1, 7, 8, 9, 127, 128, 129, 135, 136, 255, 256, 257]
MEAN_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -4e-310, 1e308, -1e308,
               0.1, 1 / 3, 50.0, -7.25, 61.803398874989484]


def visit_means(speeds, rows):
    """``summarize``'s mean track speeds of one visit of ``rows`` rows, all at ``speeds``."""
    scenario = straight_only_scenario()
    value = step(scenario, 0.0, 0.0)._replace(track_speeds=speeds)
    table = simulator.Records([value], [simulator.Piece(0, scenario.dt_s, 0.0, 0.5, rows)])
    return simulator.summarize(table, scenario, rows * scenario.dt_s,
                               0.5 * rows).segments[0].mean_track_speeds


def rows_mean(v, rows):
    """``exact_mean`` of ``rows`` rows at ``v``, summed as one product."""
    return float(Fraction(v) * rows / rows)


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_a_visits_means_are_its_rows_exact_mean_at_the_block_edges(n):
    # .hex() tells -0.0 from 0.0: the mean is the value the rows share.
    for v in MEAN_VALUES:
        means = visit_means((v, v, v), n)
        assert means == (exact_mean([v] * n),) * 3, v
        assert [m.hex() for m in means] == [v.hex()] * 3, v


@given(v=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(MEAN_VALUES),
       n=st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_a_visits_means_are_its_rows_exact_mean(v, n):
    # numpy's mean of 1e308 copies overflowed to inf; the exact one does not.
    means = visit_means((v, v, v), n)
    assert means == (rows_mean(v, n),) * 3
    assert [m.hex() for m in means] == [v.hex()] * 3


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 1000])
def test_each_track_mean_is_its_own_rows_mean(n):
    # Each track comes out as its own mean, here with every value of
    # MEAN_VALUES on every track.
    for i in range(len(MEAN_VALUES)):
        speeds = tuple(MEAN_VALUES[(i + j) % len(MEAN_VALUES)] for j in range(3))
        means = visit_means(speeds, n)
        assert means == tuple(exact_mean([v] * n) for v in speeds), speeds
        assert [m.hex() for m in means] == [v.hex() for v in speeds], speeds


@pytest.mark.parametrize("speeds", [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0,) * 3,
                                    (5e-324, 5e-324, -5e-324), (0.1, 0.1, 0.1 + 2**-56)])
def test_equal_comparing_speeds_keep_each_tracks_bits(speeds):
    # The speeds compare equal, or nearly, but their bits differ: each
    # track's mean is the exact mean of its own rows, with its own bits.
    scenario = straight_only_scenario()
    records, summary = run(scenario)
    value = records.values[0]._replace(track_speeds=speeds)
    table = simulator.Records([value], records.pieces)
    means = simulator.summarize(table, scenario, summary.finish_time,
                                summary.final_s).segments[0].mean_track_speeds
    assert means == tuple(exact_mean([v] * len(records)) for v in speeds)
    assert [m.hex() for m in means] == [v.hex() for v in speeds]


def test_summarize_allocates_no_array_of_rows():
    # Memory, not time: at 100 times the rows per segment the peak stays
    # put, since a visit's means are the speeds its rows share.  A float64
    # array of the shortest run's rows at the fine step is 112 kB.
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


def test_run_allocates_no_array_of_rows(tmp_path, monkeypatch):
    # Memory, not time: from dt_s 0.05 to 0.0005 the rows grow 100-fold.
    # ``run`` keeps one piece per segment visited and no column, so its peak
    # stays put; the writers build one chunk of rows at a time, so theirs
    # stay put too.  The t and s of the shortest run at the fine step, as
    # float64, would take 224 kB; a t column of all 90,549 rows at the fine
    # step, built on a read of the last row, about 1.5 MB.
    # No step below 1/256 s puts a CSV on the writer's decimal grid (its t
    # period is over ``_CHUNK_ROWS`` rows), so both steps write CSV on the
    # float path, and the peaks compare one path with itself; the grid
    # path's is held by test_emitting_holds_one_chunk_of_text_at_a_time.
    monkeypatch.setattr(scenario_io, "_grid_chunks", lambda piece: None)

    def peaks(dt_s):
        tracemalloc.start()
        try:
            records, _ = run(make_four_section_scenario(dt_s=dt_s))
            ran = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        attributes = set(vars(records))
        emitted = []
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                emit_records(records, fmt, tmp_path / f"records.{fmt}")
                emitted.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        assert len(records.pieces) == len(records.values)
        assert all(type(piece.n) is int for piece in records.pieces)
        assert all(type(value) is float for piece in records.pieces for value in piece[1:4])
        # A read costs per row read: the last row is one bisection and two
        # products, and no read, nor emitting, leaves a column behind.
        tracemalloc.start()
        try:
            records[-1]
            assert tracemalloc.get_traced_memory()[1] < 4096
        finally:
            tracemalloc.stop()
        records[len(records) // 2]
        assert sum(1 for _ in records) == len(records)
        assert set(vars(records)) == attributes
        assert not any(isinstance(value, array) for value in vars(records).values())
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


def test_a_failing_pair_costs_per_boundary_and_fails_on_the_stepping_row(monkeypatch):
    # A 0.1 deg tilt limit fails every pair of a bend and a straight.  The
    # run follows the body's ends from boundary to boundary, so at 100 times
    # the rows it bisects as often and its peak stays put (the s of the
    # 80,000 rows before the failing one would take 640 kB); and the first
    # failing row is stepping's: the first where one end is in a bend and
    # the other is not.
    tilt = make_robot(max_asym_deg=0.1)
    calls = Counter()

    def counted(*args, **kwargs):
        calls["bisect_left"] += 1
        return bisect_left(*args, **kwargs)

    bisect_left = simulator.bisect_left
    monkeypatch.setattr(simulator, "bisect_left", counted)
    seen = []
    for dt_s in (0.01, 0.0001):
        calls.clear()
        tracemalloc.start()
        try:
            with pytest.raises(AsymmetryLimit):
                run(make_four_section_scenario(robot=tilt, dt_s=dt_s, max_time_s=60.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen.append((calls["bisect_left"], peak))
    (coarse_calls, coarse_peak), (fine_calls, fine_peak) = seen
    assert coarse_calls == fine_calls
    assert fine_peak <= coarse_peak + 4096

    network = make_four_section_scenario().network
    half = tilt.length_mm / 2.0
    rows, _ = stepwise_run(make_four_section_scenario())
    failing = next(row for row, record in enumerate(rows)
                   if (network.curvatures[geometry.segment_at(network, record.s + half)] != 0.0)
                   != (network.curvatures[geometry.segment_at(network, record.s - half)] != 0.0))
    # A budget that ends on that row stops one row short of it; one a row
    # later meets the limit there.
    before = make_four_section_scenario(robot=tilt, max_time_s=rows[failing].t)
    after = before._replace(max_time_s=rows[failing + 1].t)
    for run_fn in (run, stepwise_run):
        records, _, error = _outcome(run_fn, before)
        assert error[0] is MaxTimeExceeded
        assert list(records) == rows[:failing]
        assert _outcome(run_fn, after)[2] == (AsymmetryLimit, "module A tilts 0.430 deg, over the "
                                                             "0.1 deg limit")


# --- rows on the grid ---------------------------------------------------------------

def grid_exit(x, d, low, high, count):
    """``first_exit`` from numpy's column ``x + k * d``, k = 0..``count``."""
    with np.errstate(over="ignore", invalid="ignore"):
        column = x + np.arange(count + 1) * d
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
    "NaN step": (5.0, math.nan, 0.0, 6.0, 50),
    "overflow to inf": (1e308, 1e307, -math.inf, math.inf, 30),
    "top binade": (2.0 ** 1022, 0.7 * 2.0 ** 1021, 0.0, math.inf, 30),
    "negative start": (-3.0, 0.7, -math.inf, 10.0, 50),
    "start outside": (5.0, 0.1, 0.0, 5.0, 10),
    "no rows": (5.0, 0.1, 0.0, 6.0, 0),
}


@pytest.mark.parametrize("case", PROGRESSION_EDGES)
def test_first_exit_matches_the_grid_column_edges(case):
    x, d, low, high, count = PROGRESSION_EDGES[case]
    k, value = simulator.first_exit(x, d, low, high, count)
    expected_k, expected = grid_exit(x, d, low, high, count)
    assert (k, value.hex()) == (expected_k, expected.hex())


@st.composite
def progressions(draw):
    """(x, d, low, high, count): often a step under the start and a bound
    the column reaches within the count."""
    x = draw(st.floats(allow_nan=False) | st.floats(0.0, 1e4)
             | st.sampled_from([0.0, -0.0, TINY, 1.0, 1.0 + ULP1, 1e308]))
    d = draw(st.floats(allow_nan=False) | st.floats(-1.0, 10.0)
             | st.floats(1e-17, 1.0).map(lambda ratio: abs(x) * ratio)
             | st.sampled_from([0.0, -0.0, TINY, 1.5 * ULP1]))
    count = draw(st.integers(0, 2000))
    reach = x + d * draw(st.floats(0.5, 1.5 * count + 1.0))  # where the column is some rows on
    high = draw(st.sampled_from([reach, reach, reach, math.inf, x, None]))
    low = draw(st.sampled_from([-math.inf, 0.0, x, x, None]))
    anywhere = st.floats(allow_nan=False)
    return (x, d, draw(anywhere) if low is None else low, draw(anywhere) if high is None else high,
            count)


@given(case=progressions())
@settings(max_examples=500, deadline=None)
def test_first_exit_matches_the_grid_column(case):
    # .hex() tells -0.0 from 0.0.  The first exit is defined where the rows
    # outside follow all those inside, as from a start inside [low, high):
    # a column that comes back in has no first exit to bisect for.
    x, d, low, high, count = case
    with np.errstate(over="ignore", invalid="ignore"):
        column = x + np.arange(1, count + 1) * d
        outside = ~((low <= column) & (column < high))
    assume((np.diff(outside.astype(int)) >= 0).all())
    expected_k, expected = grid_exit(x, d, low, high, count)
    k, value = simulator.first_exit(x, d, low, high, count)
    assert (k, value.hex()) == (expected_k, expected.hex())


@st.composite
def time_budgets(draw):
    """(dt, limit) of a validated scenario's time grid: ``limit`` from the
    subnormals at 2**-1070 up to 2**1020, ``dt`` below it with
    ``limit / dt`` up to MAX_STEPS."""
    limit = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(-1070, 1020)))
    most = simulator.MAX_STEPS
    dt = limit / draw(st.floats(1.0, most) | st.sampled_from([most, 1.5, 2.0]))
    assume(0.0 < dt < limit and limit / dt <= most)
    return dt, limit


@given(grid=time_budgets())
@example(grid=(1.25e-06, 1.25))  # a million adds of dt fell short of 1.25
@settings(max_examples=300, deadline=None)
def test_the_budget_row_is_within_the_bisected_range(grid):
    # ``run`` bisects for the first row at or past the budget among rows
    # 0..int(limit / dt), and takes the next row if none is: that one
    # always reaches it.
    dt, limit = grid
    last = int(limit / dt) + 1
    assert last * dt >= limit
    assert Fraction(last) * Fraction(dt) > Fraction(limit)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
MAX = 1.7976931348623157e308  # the largest float


@st.composite
def pieces(draw):
    """A ``Piece`` whose columns end near the top of the float range as often as not."""
    rows = draw(st.integers(1, 2000))
    n = draw(st.integers(0, 10**6))
    s = draw(finite_floats | st.sampled_from([1e308, -1e308, 1.7e308, 0.0]))
    # A step that takes the column some way past the largest float, or short of it.
    dt = draw(finite_floats | st.floats(-3.0, 3.0).map(lambda f: f * MAX / (n + rows)))
    ds = draw(finite_floats | st.floats(-3.0, 3.0).map(lambda f: f * (MAX - abs(s)) / rows))
    return simulator.Piece(n, dt, s, ds, rows)


@given(piece=pieces())
# Only the last row overflows: s at 1.8e308, t at 18 times 1e307.
@example(piece=simulator.Piece(0, 0.01, 0.0, 1e307, 19))
@example(piece=simulator.Piece(9, 1e307, 0.0, 1.0, 10))
@settings(max_examples=300, deadline=None)
def test_piece_finite_tells_whether_its_rows_are(piece):
    # The writers check this before they open a file; the rows are never built there.
    t, s = grid_rows(piece)
    assert piece.finite() == (bool(np.isfinite(t).all()), bool(np.isfinite(s).all()))


@given(b=st.floats(5e-324, MAX), h=st.floats(-MAX / 2, MAX / 2),
       near=st.floats(0.0, 1e-9), sign=st.sampled_from([1.0, -1.0]),
       per=st.integers(1, 1000), back=st.integers(0, 200))
# A subnormal bound where one end meets the boundary a few rows on.
@example(b=2e-323, h=5e-324, near=0.0, sign=1.0, per=1, back=3)
@settings(max_examples=300, deadline=None)
def test_a_body_end_crosses_a_boundary_on_the_stepping_row(b, h, near, sign, per, back):
    # Where the run follows a body end: the first row k with (s + k·ds) ± h
    # at or past a boundary b, h often within a relative 1e-9 of b, where the
    # centre's column is far finer than the spacing at b.  The network has
    # one boundary, at b, with a bend past it whose springs need 9.5 mm, over
    # the 9 mm limit: ``_check_rows`` raises on rows that hold the crossing
    # row and not on rows that stop before it.
    network = SimpleNamespace(cumulative_lengths=(b, math.inf), segments=(None, None),
                              curvatures=(0.0, 1.0))
    for h in (h, sign * b * (1.0 - near)):
        start = b - abs(h)  # the centre where the leading end is at b
        ds = max(abs(start), math.ulp(b)) / per
        s = start - back * ds
        if not math.isfinite(s + 2.0 * h):  # a body or a start past the float range
            continue
        robot = make_robot(max_compression_mm=9.0, length_mm=2.0 * h)
        scenario = SimpleNamespace(network=network, bend_extra_compression_mm=1.5, robot=robot)
        bend = simulator._compression_error(robot, spring_compression(1.0, robot, 1.5))
        failing = {(1, 0): bend, (0, 1): bend, (1, 1): bend}
        rows = back + 2 * per + 10
        with np.errstate(over="ignore", invalid="ignore"):
            reached = (s + np.arange(rows) * ds) + abs(h) >= b  # s - h is s + |h| for h < 0
        crossing = int(np.argmax(reached))
        assert reached[crossing]
        simulator._check_rows(scenario, failing, s, ds, crossing)
        with pytest.raises(CompressionLimit, match="module A needs 9.500 mm"):
            simulator._check_rows(scenario, failing, s, ds, crossing + 1)


def budget_rows(dt_s, max_time_s):
    """The rows a run cut short by its budget holds: rows 0..n - 1 for the
    first n with n·dt_s, rounded once, at or past the budget."""
    dt, limit = Fraction(dt_s), Fraction(max_time_s)
    return next(n for n in itertools.count() if Fraction(float(n * dt)) >= limit)


CUT = {name: doc for name, doc in golden_corpus.documents().items() if name.endswith("+cut")}


@pytest.mark.parametrize("name", CUT)
def test_a_cut_run_stops_on_the_last_row_under_its_budget(name):
    # A budget that is a multiple of dt_s, such as generated_0+cut's 54.0 s
    # at 0.05 s, admits no row at the nominal time of the budget itself.
    scenario = scenario_from_dict(CUT[name])
    with pytest.raises(MaxTimeExceeded) as err:
        run(scenario)
    records = err.value.records
    assert len(records) == budget_rows(scenario.dt_s, scenario.max_time_s)
    assert records[-1].t < scenario.max_time_s <= len(records) * scenario.dt_s
    if name == "generated_0+cut":
        assert len(records) == 1080
        assert "(reached 2700.0 of " in str(err.value)


@given(dt_s=st.floats(0.001, 0.5), share=st.floats(0.0, 1.0), exact=st.booleans())
@settings(max_examples=100, deadline=None)
def test_a_run_stops_on_the_last_row_under_its_budget(dt_s, share, exact):
    # The budget is a number of rows times dt_s, rounded, or a little more;
    # the robot, 16 s from the end of an 800 mm straight, times out first.
    rows = 2 + int(share * (15.9 / dt_s - 2))
    limit = rows * dt_s if exact else rows * dt_s * 1.0000001
    scenario = straight_only_scenario(length=800.0, dt_s=dt_s, max_time_s=limit)
    scenario.validate()
    with pytest.raises(MaxTimeExceeded) as err:
        run(scenario)
    records = err.value.records
    assert len(records) == budget_rows(dt_s, limit)
    assert records[-1].t < limit <= len(records) * dt_s


def test_rows_are_the_exact_grid_within_an_ulp(four_section_scenario):
    # Row n is at n·dt_s rounded once, and row k of a visit entered at s0
    # is within an ulp of s0 + k·ds: no error grows with the row count.
    for dt_s in (0.01, 0.05, 0.003):
        records, summary = run(four_section_scenario._replace(dt_s=dt_s))
        dt = Fraction(dt_s)
        rows = iter(records)
        for piece in records.pieces:
            assert piece.dt == dt_s
            for k in range(piece.rows):
                row = next(rows)
                assert row.t == float((piece.n + k) * dt)
                assert abs(Fraction(row.s) - (Fraction(piece.s) + k * Fraction(piece.ds))) \
                    <= Fraction(math.ulp(row.s))
        assert summary.finish_time == float(len(records) * dt)
        assert [seg.entry_time for seg in summary.segments] == [
            float(piece.n * dt) for piece in records.pieces]


# --- orientation sweep ----------------------------------------------------------------

def test_empty_sweep_has_no_entries(four_section_scenario):
    # The CLI rejects an empty --theta; the library sweeps no angle.
    assert sweep_orientation(four_section_scenario, []) == []


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


@pytest.mark.parametrize("radius", [50.0, 45.0])  # the contact radius is 50 mm
def test_bend_radius_must_exceed_the_contact_radius(radius):
    network = build_network([Straight(500.0), Bend(radius, 90.0)], 40.0)
    scenario = make_four_section_scenario(network=network)
    with pytest.raises(BadSegment) as err:
        scenario.validate()
    assert (err.value.index, err.value.field) == (1, "bend_radius")
    assert err.value.reason == (f"degenerate bend: radius {radius} mm does not exceed the "
                                f"robot contact radius 50.0 mm")
    scenario._replace(network=build_network([Bend(50.5, 90.0)], 40.0)).validate()
