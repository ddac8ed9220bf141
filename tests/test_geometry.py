import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipeclimber import (
    BadSegment,
    Bend,
    EmptyNetwork,
    OutOfRange,
    Straight,
    build_network,
    pose_at,
)

FOUR_SECTION = [
    Straight(500.0),
    Bend(300.0, 90.0),
    Straight(350.0),
    Bend(300.0, 180.0),
]


def test_single_straight_length():
    net = build_network([Straight(350.0)], inner_radius=77.0)
    assert net.total_length == 350.0


def test_half_turn_arc_length():
    net = build_network([Bend(300.0, 180.0)], inner_radius=77.0)
    assert net.total_length == pytest.approx(300.0 * math.pi, rel=1e-12)


def test_four_section_cumulative_boundaries():
    net = build_network(FOUR_SECTION, inner_radius=77.0)
    expected = (500.0, 971.238898, 1321.238898, 2263.716694)
    assert len(net.segments) == 4
    for got, want in zip(net.cumulative_lengths, expected):
        assert got == pytest.approx(want, abs=1e-5)


def test_segment_ends_are_a_read_only_copy_of_the_boundaries():
    net = build_network(FOUR_SECTION, inner_radius=77.0)
    assert net.segment_ends.dtype == np.float64
    assert tuple(net.segment_ends.tolist()) == net.cumulative_lengths
    assert not net.segment_ends.flags.writeable
    assert "segment_ends" not in repr(net)
    assert net == net and net != build_network(FOUR_SECTION, inner_radius=77.0)  # by identity


def test_empty_network_rejected():
    with pytest.raises(EmptyNetwork):
        build_network([], inner_radius=77.0)


@pytest.mark.parametrize(
    "segment",
    [
        Straight(0.0),
        Straight(-5.0),
        Bend(50.0, 90.0),  # radius below the pipe bore
        Bend(300.0, 0.0),
        Bend(300.0, 181.0),
        Bend(80.0, 5e-324),  # an arc length that rounds to 0
    ],
)
def test_bad_segments_rejected_with_index(segment):
    with pytest.raises(BadSegment) as err:
        build_network([Straight(100.0), segment], inner_radius=77.0)
    assert err.value.index == 1


@pytest.mark.parametrize(
    "segments, field",
    [
        ([Straight(100.0), Straight(1e308), Straight(1e308)], "length"),  # the sum overflows
        ([Straight(100.0), Straight(1e308), Bend(1e308, 180.0)], "bend_radius"),  # arc length inf
        # a short arc whose centre lies past the float range
        ([Straight(1e308), Bend(100.0, 90.0), Bend(1e308, 1e-10, 180.0)], "bend_radius"),
        # short arcs whose diameters leave the float range
        ([Straight(100.0), Straight(100.0), Bend(1e308, 1e-10)], "bend_radius"),
        ([Straight(100.0), Bend(6e307, 1e-10), Bend(6e307, 1e-10)], "bend_radius"),
    ],
)
def test_networks_past_the_float_range_rejected(segments, field):
    with pytest.raises(BadSegment) as err:
        build_network(segments, inner_radius=77.0)
    assert (err.value.index, err.value.field) == (2, field)


huge_segments = st.lists(
    st.one_of(
        st.builds(Straight, st.floats(1e-3, 1e308)),
        st.builds(Bend, st.floats(78.0, 1e308), st.floats(1e-10, 180.0), st.floats(-360.0, 360.0)),
    ),
    min_size=1,
    max_size=6,
)


@given(segments=huge_segments)
@settings(max_examples=300, deadline=None)
def test_every_accepted_network_has_finite_frames(segments):
    # Lengths and radii up to 1e308: a network whose extent stays finite
    # keeps every frame finite, with no overflow warning on the way.
    try:
        net = build_network(segments, inner_radius=77.0)
    except BadSegment:
        return
    for boundary in (0.0, *net.cumulative_lengths):
        for s in (boundary, float(np.nextafter(boundary, 0.0))):
            pose = pose_at(net, s)
            frame = (pose.position, pose.tangent,
                     np.zeros(3) if pose.bend_outward is None else pose.bend_outward)
            assert np.isfinite(frame).all(), (s, pose)


def test_pose_on_straight_midpoint():
    net = build_network([Straight(350.0)], inner_radius=77.0)
    pose = pose_at(net, 175.0)
    assert np.allclose(pose.position, [0.0, 0.0, 175.0])
    assert np.allclose(pose.tangent, [0.0, 0.0, 1.0])
    assert pose.curvature == 0.0
    assert pose.bend_outward is None
    assert pose.segment_index == 0


def test_quarter_bend_rotates_tangent_by_90_degrees():
    net = build_network([Bend(300.0, 90.0)], inner_radius=77.0)
    entry = pose_at(net, 0.0)
    exit_ = pose_at(net, net.total_length)
    assert abs(np.dot(entry.tangent, exit_.tangent)) < 1e-12
    assert exit_.curvature == pytest.approx(1.0 / 300.0)
    assert abs(np.dot(exit_.bend_outward, exit_.tangent)) < 1e-12
    assert abs(np.linalg.norm(exit_.tangent) - 1.0) < 1e-12


def test_every_network_enters_at_the_origin_pointing_up():
    # The first bend turns away from world-x, its outward direction at entry.
    net = build_network([Bend(300.0, 90.0)], inner_radius=77.0)
    entry = pose_at(net, 0.0)
    exit_ = pose_at(net, net.total_length)
    assert np.allclose(entry.position, [0.0, 0.0, 0.0], atol=1e-9)
    assert np.allclose(entry.tangent, [0.0, 0.0, 1.0], atol=1e-9)
    assert np.allclose(entry.bend_outward, [1.0, 0.0, 0.0], atol=1e-9)
    assert np.allclose(exit_.position, [-300.0, 0.0, 300.0], atol=1e-9)
    assert np.allclose(exit_.tangent, [-1.0, 0.0, 0.0], atol=1e-9)


def test_pose_out_of_range():
    net = build_network([Straight(350.0)], inner_radius=77.0)
    with pytest.raises(OutOfRange):
        pose_at(net, 351.0)
    with pytest.raises(OutOfRange):
        pose_at(net, -1.0)


def test_tangent_continuity_at_boundaries():
    net = build_network(FOUR_SECTION, inner_radius=77.0)
    eps = 1e-7
    for boundary in net.cumulative_lengths[:-1]:
        before = pose_at(net, boundary - eps)
        after = pose_at(net, boundary + eps)
        assert np.linalg.norm(after.tangent - before.tangent) < 1e-6
        assert np.linalg.norm(after.position - before.position) < 1e-6
    # exactly at each boundary the tangents of both parameterizations agree
    for boundary in net.cumulative_lengths[:-1]:
        end_of_prev = pose_at(net, np.nextafter(boundary, 0.0))
        start_of_next = pose_at(net, boundary)
        assert np.linalg.norm(end_of_prev.tangent - start_of_next.tangent) < 1e-9


def test_pose_is_lipschitz_in_arc_length():
    net = build_network(FOUR_SECTION, inner_radius=77.0)
    rng = np.random.default_rng(3)
    eps = 1e-4
    for s in rng.uniform(0.0, net.total_length - eps, size=200):
        a = pose_at(net, s)
        b = pose_at(net, s + eps)
        step = np.linalg.norm(b.position - a.position)
        # differencing ~2000 mm positions leaves ~1e-8 relative float noise
        assert step <= (1.0 + a.curvature) * eps * (1.0 + 1e-7)
        # chord can only be shorter than the arc
        assert step <= eps * (1.0 + 1e-7)


def test_arc_length_matches_chord_integration():
    net = build_network(FOUR_SECTION, inner_radius=77.0)
    starts = (0.0, *net.cumulative_lengths[:-1])
    for start, end in zip(starts, net.cumulative_lengths):
        samples = np.linspace(start, end, 4097)
        points = np.array([pose_at(net, s).position for s in samples])
        chord_sum = np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1))
        assert chord_sum == pytest.approx(end - start, rel=1e-6)


def test_bend_roll_tilts_the_bend_plane():
    # 90 deg roll on the second bend sends it sideways instead of back in
    # the first bend's plane.
    net0 = build_network([Bend(300.0, 90.0), Bend(300.0, 90.0, 0.0)], 77.0)
    net90 = build_network([Bend(300.0, 90.0), Bend(300.0, 90.0, 90.0)], 77.0)
    end0 = pose_at(net0, net0.total_length).position
    end90 = pose_at(net90, net90.total_length).position
    assert not np.allclose(end0, end90)
    # the unrolled double bend stays in one plane through the start tangent
    mid = pose_at(net0, net0.cumulative_lengths[0])
    for pose in (mid, pose_at(net0, net0.total_length)):
        assert abs(pose.position[1]) < 1e-9


def test_u_bend_reverses_direction():
    net = build_network([Bend(300.0, 180.0)], inner_radius=77.0)
    entry = pose_at(net, 0.0)
    exit_ = pose_at(net, net.total_length)
    assert np.allclose(exit_.tangent, -entry.tangent, atol=1e-12)
    # exit runs parallel to entry, two bend radii apart
    assert np.linalg.norm(exit_.position - entry.position) == pytest.approx(600.0)
