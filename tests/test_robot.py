import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipeclimber import (
    AsymmetryLimit,
    Bend,
    CompressionLimit,
    Straight,
    asymmetry_deg,
    build_network,
    pose_at,
    required_track_speeds,
    spring_compression,
    track_path_radius,
    traction_force,
    tractive_effort_and_torque,
)
from pipeclimber.simulator import _compression_error, _tilt_error
from conftest import make_robot


def straight_curvature():
    return pose_at(build_network([Straight(400.0)], 77.0), 200.0).curvature


def bend_curvature(radius=300.0, sweep=90.0):
    net = build_network([Bend(radius, sweep)], 77.0)
    return pose_at(net, net.total_length / 2.0).curvature


# --- contact path radius --------------------------------------------------------

def test_outermost_module_radius():
    assert track_path_radius(300.0, 50.0, 0.0) == pytest.approx(350.0)


def test_neutral_plane_module_radius():
    assert track_path_radius(300.0, 50.0, 90.0) == pytest.approx(300.0)


def test_three_module_radii_average_to_the_bend_radius():
    radii = [track_path_radius(300.0, 50.0, angle) for angle in (0.0, 120.0, 240.0)]
    assert radii == pytest.approx([350.0, 275.0, 275.0])
    assert sum(radii) / 3.0 == pytest.approx(300.0)


# --- required track speeds -------------------------------------------------------

def test_straight_needs_equal_speeds(robot_params):
    speeds = required_track_speeds(straight_curvature(), 60.0, robot_params)
    assert np.allclose(speeds, 60.0)


def test_bend_speeds_at_zero_orientation(robot_params):
    speeds = required_track_speeds(bend_curvature(), 60.0, robot_params)
    assert speeds == pytest.approx([70.0, 55.0, 55.0])


def test_bend_speeds_at_90_degrees():
    robot = make_robot(orientation_deg=90.0)
    speeds = required_track_speeds(bend_curvature(), 60.0, robot)
    assert speeds == pytest.approx([60.0, 51.339746, 68.660254], abs=1e-5)
    assert np.asarray(speeds).mean() == pytest.approx(60.0, rel=1e-12)


@given(
    orientation=st.floats(-360.0, 360.0),
    center_speed=st.floats(1.0, 500.0),
    contact_radius=st.floats(10.0, 90.0),
)
@settings(max_examples=300)
def test_mean_speed_is_the_center_speed(orientation, center_speed, contact_radius):
    robot = make_robot(orientation_deg=orientation, contact_radius_mm=contact_radius)
    speeds = required_track_speeds(bend_curvature(), center_speed, robot)
    assert np.asarray(speeds).mean() == pytest.approx(center_speed, rel=1e-12)


@given(orientation=st.floats(-360.0, 360.0))
@settings(max_examples=200)
def test_orientation_plus_120_permutes_the_tracks(orientation):
    base = required_track_speeds(bend_curvature(), 60.0, make_robot(orientation_deg=orientation))
    rolled = required_track_speeds(
        bend_curvature(), 60.0, make_robot(orientation_deg=orientation + 120.0)
    )
    for j in range(3):
        assert rolled[j] == pytest.approx(base[(j + 1) % 3], rel=1e-12)


@given(orientation=st.floats(-360.0, 360.0))
@settings(max_examples=100)
def test_straight_speeds_ignore_orientation(orientation):
    speeds = required_track_speeds(
        straight_curvature(), 60.0, make_robot(orientation_deg=orientation)
    )
    assert speeds == (60.0, 60.0, 60.0)


def test_outermost_track_is_fastest(robot_params):
    curvature = bend_curvature()
    for theta in (0.0, 35.0, 77.0, 120.0, 301.0):
        robot = make_robot(orientation_deg=theta)
        speeds = required_track_speeds(curvature, 60.0, robot)
        cosines = np.cos(np.radians(robot.module_angles_deg))
        assert np.argmax(speeds) == np.argmax(cosines)


# --- spring compression -----------------------------------------------------------

def test_straight_sits_at_preload(robot_params):
    assert np.allclose(spring_compression(straight_curvature(), robot_params, 1.5), 8.0)


def test_bend_adds_compression_on_the_bend_plane_module(robot_params):
    comp = spring_compression(bend_curvature(), robot_params, bend_extra_mm=1.5)
    assert comp == pytest.approx([9.5, 8.75, 8.75])


# The formulas return numbers at any compression or tilt; the simulator's
# rules, ``_compression_error`` and ``_tilt_error``, compare them with the
# limits and give the error a run raises, or None.

def test_preload_beyond_budget_raises():
    robot = make_robot(preload_mm=17.0)
    error = _compression_error(robot, spring_compression(straight_curvature(), robot, 1.5))
    assert type(error) is CompressionLimit
    assert str(error) == "module A needs 17.000 mm, over the 16.0 mm limit"
    with pytest.raises(CompressionLimit):
        robot.validate()


def test_bend_compression_beyond_budget_raises():
    robot = make_robot(preload_mm=15.0)
    comp = spring_compression(bend_curvature(), robot, bend_extra_mm=1.5)
    assert comp == pytest.approx([16.5, 15.75, 15.75])
    error = _compression_error(robot, comp)
    assert type(error) is CompressionLimit
    assert str(error) == "module A needs 16.500 mm, over the 16.0 mm limit"


def test_compression_never_exceeds_budget_when_returned():
    # 14.5 mm of preload meets the 16 mm budget exactly in the bend: not over.
    for preload in (0.0, 5.0, 14.5):
        robot = make_robot(preload_mm=preload)
        comp = spring_compression(bend_curvature(), robot, bend_extra_mm=1.5)
        assert _compression_error(robot, comp) is None
        assert max(comp) <= robot.max_compression_mm


# --- asymmetric compression tilt ----------------------------------------------------

def test_uniform_compression_has_no_tilt(robot_params):
    tilt = asymmetry_deg(np.full(3, 9.5), np.full(3, 9.5), robot_params)
    assert np.allclose(tilt, 0.0)


def test_tilt_angle_from_compression_difference(robot_params):
    front = np.array([9.5, 8.0, 8.0])
    rear = np.full(3, 8.0)
    tilt = asymmetry_deg(front, rear, robot_params)
    assert tilt[0] == pytest.approx(math.degrees(math.atan2(1.5, 200.0)))
    assert tilt[1] == tilt[2] == 0.0


def test_tilt_beyond_limit_raises():
    robot = make_robot(length_mm=20.0, max_asym_deg=10.0)
    front, rear = np.full(3, 12.0), np.full(3, 2.0)
    tilt = math.degrees(math.atan2(10.0, 20.0))
    assert asymmetry_deg(front, rear, robot) == pytest.approx([tilt] * 3)
    error = _tilt_error(robot, front, rear)
    assert type(error) is AsymmetryLimit
    assert str(error) == "module A tilts 26.565 deg, over the 10.0 deg limit"
    assert _tilt_error(robot, front, front) is None


# --- traction formulas ------------------------------------------------------------------

def test_traction_zero_compression():
    assert traction_force(make_robot(), 0.0) == 0.0


def test_traction_hand_values():
    robot = make_robot(friction=0.4, spring_n_per_m=2000.0)
    assert traction_force(robot, 10.0) == pytest.approx(96.0, rel=1e-12)
    robot = make_robot(friction=0.3, spring_n_per_m=1000.0)
    assert traction_force(robot, 16.0) == pytest.approx(57.6, rel=1e-12)


def test_traction_uses_preload_by_default():
    robot = make_robot(friction=0.4, spring_n_per_m=2000.0, preload_mm=10.0)
    assert traction_force(robot) == traction_force(robot, 10.0)


def test_effort_and_torque_hand_values():
    robot = make_robot(
        mass_kg=15.0, friction=0.3, spring_n_per_m=1000.0, sprocket_radius_mm=20.0
    )
    effort, torque = tractive_effort_and_torque(robot, 10.0)
    assert effort == pytest.approx(111.15, rel=1e-12)
    assert torque == pytest.approx(2.223, rel=1e-12)


def test_effort_balance_point():
    # compression at which the friction force exactly carries the weight
    robot = make_robot(mass_kg=3.0, friction=0.4, spring_n_per_m=1000.0)
    x_mm = 1000.0 * robot.mass_kg * 9.81 / (12 * 0.4 * 1000.0)
    effort, torque = tractive_effort_and_torque(robot, x_mm)
    assert abs(effort) < 1e-9
    assert abs(torque) < 1e-12


@given(
    friction=st.floats(0.05, 1.9),
    stiffness=st.floats(100.0, 5000.0),
    compression=st.floats(0.0, 16.0),
    scale=st.floats(0.1, 3.0),
)
@settings(max_examples=200)
def test_traction_is_linear_in_each_factor(friction, stiffness, compression, scale):
    base = traction_force(
        make_robot(friction=friction, spring_n_per_m=stiffness), compression
    )
    assert traction_force(
        make_robot(friction=friction * scale, spring_n_per_m=stiffness), compression
    ) == pytest.approx(scale * base, rel=1e-12)
    assert traction_force(
        make_robot(friction=friction, spring_n_per_m=stiffness * scale), compression
    ) == pytest.approx(scale * base, rel=1e-12)
    assert traction_force(
        make_robot(friction=friction, spring_n_per_m=stiffness), compression * scale
    ) == pytest.approx(scale * base, rel=1e-12)


# --- parameter validation ------------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [
        {"contact_radius_mm": 0.0},
        {"sprocket_radius_mm": -1.0},
        {"spring_n_per_m": 0.0},
        {"mass_kg": 0.0},
        {"friction": 0.0},
        {"friction": 2.0},
        {"length_mm": 0.0},
        {"preload_mm": -1.0},
        {"springs": 0},
    ],
)
def test_invalid_parameters_rejected(overrides):
    with pytest.raises(ValueError):
        make_robot(**overrides).validate()
