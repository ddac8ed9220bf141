import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipeclimber import (
    InconsistentOutputs,
    LinearLoad,
    NoBracket,
    NonMonotoneLoad,
    TransmissionConfig,
    balance_state,
    internal_state,
    power_balance,
    solve_torque_balance,
)
from pipeclimber.differential import MAX_BISECTIONS, SOLVE_TOL
from oracles import (
    CIRCULATION,
    bisect_torque_balance,
    equal_slip_solution,
    linear_root_torque,
    side_speeds_min_norm,
)
from test_acceptance import random_case

UNIT = TransmissionConfig()


def triple_approx(actual, expected, tol=1e-9):
    scale = max(1.0, max(abs(e) for e in expected))
    assert all(abs(a - e) <= tol * scale for a, e in zip(actual, expected)), (
        actual,
        expected,
    )


# --- configuration validation -------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"ring_ratio": 0.0},
        {"ring_ratio": -1.0},
        {"output_ratio": 0.0},
        {"efficiency": 0.0},
        {"efficiency": 1.5},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TransmissionConfig(**kwargs)


# --- torque balance: frozen examples ------------------------------------------

def test_identical_loads_share_the_free_speed():
    loads = [LinearLoad(stiffness=0.7) for _ in range(3)]
    result = solve_torque_balance(10.0, loads, UNIT)
    assert result.output_speeds == (10.0, 10.0, 10.0)
    assert result.common_torque == pytest.approx(7.0, rel=1e-12)


def test_matched_slip_loads_run_at_required_speeds():
    # mean(required) equals the geared surface speed, so the common slip and
    # torque are both zero.
    required = (70.0, 55.0, 55.0)  # mean 60 = 3 rad/s * 20 mm
    loads = [LinearLoad(1.0, wheel_radius=20.0, target_speed=v) for v in required]
    result = solve_torque_balance(3.0, loads, UNIT)
    surface = [w * 20.0 for w in result.output_speeds]
    triple_approx(surface, required)
    assert abs(result.common_torque) < 1e-9


def test_offset_slip_loads_share_the_mean_shortfall():
    # mean(required) is 3 mm/s short, so every track runs 3 mm/s fast and the
    # common torque is stiffness * 3.
    required = (67.0, 52.0, 52.0)
    loads = [LinearLoad(2.0, wheel_radius=20.0, target_speed=v) for v in required]
    result = solve_torque_balance(3.0, loads, UNIT)
    surface = [w * 20.0 for w in result.output_speeds]
    triple_approx(surface, (70.0, 55.0, 55.0))
    assert result.common_torque == pytest.approx(6.0, rel=1e-9)


def test_non_monotone_load_rejected():
    bad = LinearLoad(stiffness=-1.0)
    good = LinearLoad(stiffness=1.0)
    with pytest.raises(NonMonotoneLoad):
        solve_torque_balance(1.0, [bad, good, good], UNIT)
    with pytest.raises(NonMonotoneLoad):
        solve_torque_balance(1.0, [LinearLoad(stiffness=0.0), good, good], UNIT)


class _BrokenLoad:
    """Monotone torque but an inverse that never matches it."""

    slope = 1.0

    def torque(self, speed):
        return speed

    def inverse(self, torque):
        return 1e12


@pytest.mark.parametrize("input_speed, loads", [
    (1.0, [_BrokenLoad()] * 3),
    # The residual overflows to NaN, which no tolerance may accept.
    (2.5, [LinearLoad(1e308, 20.0, v) for v in (58.0, 46.0, 46.0)]),
])
def test_unbracketable_root_raises(input_speed, loads):
    with pytest.raises(NoBracket):
        solve_torque_balance(input_speed, loads, UNIT)


def test_bad_arguments_rejected():
    loads = [LinearLoad(1.0)] * 3
    with pytest.raises(ValueError):
        solve_torque_balance(1.0, loads[:2], UNIT)


# --- torque balance: properties ------------------------------------------------

def load_triples():
    stiffness = st.floats(0.1, 10.0)
    radius = st.floats(0.5, 2.0)
    target = st.floats(-50.0, 50.0)
    offset = st.floats(-5.0, 5.0)
    return st.tuples(
        *[st.builds(LinearLoad, stiffness, radius, target, offset) for _ in range(3)]
    )


configs = st.builds(
    TransmissionConfig,
    st.floats(0.3, 3.0),
    st.floats(0.3, 3.0),
    st.floats(0.5, 1.0),
)


@given(loads=load_triples(), input_speed=st.floats(-20.0, 20.0), config=configs)
@settings(max_examples=200, deadline=None)
def test_averaging_law_holds_under_any_load(loads, input_speed, config):
    result = solve_torque_balance(input_speed, list(loads), config)
    target = config.overall_ratio * input_speed
    mean = sum(result.output_speeds) / 3.0
    assert abs(mean - target) <= 1e-9 * max(1.0, abs(target))


@given(loads=load_triples(), input_speed=st.floats(-20.0, 20.0))
@settings(max_examples=200, deadline=None)
def test_torques_equalize_under_any_load(loads, input_speed):
    result = solve_torque_balance(input_speed, list(loads), UNIT)
    torques = [load.torque(w) for load, w in zip(loads, result.output_speeds)]
    scale = max(1.0, abs(result.common_torque))
    assert max(torques) - min(torques) <= 1e-9 * scale


@given(loads=load_triples(), input_speed=st.floats(-20.0, 20.0))
@settings(max_examples=100, deadline=None)
def test_solver_is_equivariant_under_relabeling(loads, input_speed):
    base = solve_torque_balance(input_speed, list(loads), UNIT)
    rolled = solve_torque_balance(input_speed, [loads[1], loads[2], loads[0]], UNIT)
    for j in range(3):
        assert rolled.output_speeds[j] == pytest.approx(
            base.output_speeds[(j + 1) % 3], rel=1e-12, abs=1e-12
        )


@given(loads=load_triples(), input_speed=st.floats(-20.0, 20.0))
@settings(max_examples=100, deadline=None)
def test_raising_one_load_slows_it_and_speeds_the_others(loads, input_speed):
    base = solve_torque_balance(input_speed, list(loads), UNIT)
    bumped = list(loads)
    bumped[1] = LinearLoad(
        loads[1].stiffness,
        loads[1].wheel_radius,
        loads[1].target_speed,
        loads[1].offset + 1.0,
    )
    shifted = solve_torque_balance(input_speed, bumped, UNIT)
    assert shifted.output_speeds[1] < base.output_speeds[1]
    assert shifted.output_speeds[0] > base.output_speeds[0]
    assert shifted.output_speeds[2] > base.output_speeds[2]
    mean_before = sum(base.output_speeds) / 3.0
    mean_after = sum(shifted.output_speeds) / 3.0
    assert abs(mean_after - mean_before) <= 1e-9 * max(1.0, abs(mean_before))


@given(loads=load_triples(), input_speed=st.floats(0.0, 20.0))
@settings(max_examples=100, deadline=None)
def test_reversing_the_input_mirrors_the_outputs(loads, input_speed):
    forward = solve_torque_balance(input_speed, list(loads), UNIT)
    mirrored = [
        LinearLoad(l.stiffness, l.wheel_radius, -l.target_speed, -l.offset)
        for l in loads
    ]
    backward = solve_torque_balance(-input_speed, mirrored, UNIT)
    for fw, bw in zip(forward.output_speeds, backward.output_speeds):
        assert bw == pytest.approx(-fw, rel=1e-12, abs=1e-12)


@given(
    required=st.tuples(*[st.floats(10.0, 90.0)] * 3),
    stiffness=st.floats(0.1, 10.0),
    input_speed=st.floats(0.5, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_solver_matches_equal_slip_closed_form(required, stiffness, input_speed):
    radius = 20.0
    loads = [LinearLoad(stiffness, radius, v) for v in required]
    result = solve_torque_balance(input_speed, loads, UNIT)
    expected_speeds, expected_torque = equal_slip_solution(
        required, stiffness, radius, input_speed, UNIT.overall_ratio
    )
    triple_approx(result.output_speeds, tuple(expected_speeds))
    assert abs(result.common_torque - expected_torque) <= 1e-9 * max(
        1.0, abs(expected_torque)
    )


# --- torque balance: the secant-narrowed bisection ---------------------------------

def bits(balance):
    """The torque and speeds of a solve as exact bit patterns (-0.0 != 0.0)."""
    return [float(v).hex() for v in (balance.common_torque, *balance.output_speeds)]


def test_solver_bits_match_plain_bisection_on_c1_cases():
    rng = np.random.default_rng(2022)
    for _ in range(20_000):
        loads, config, input_speed = random_case(rng)
        result = solve_torque_balance(input_speed, loads, config)
        reference = bisect_torque_balance(input_speed, loads, config)
        assert bits(result) == bits(reference), (loads, config, input_speed)


@given(loads=load_triples(), input_speed=st.floats(-20.0, 20.0), config=configs)
@settings(max_examples=200, deadline=None)
def test_solver_bits_match_plain_bisection_under_any_load(loads, input_speed, config):
    result = solve_torque_balance(input_speed, list(loads), config)
    assert bits(result) == bits(bisect_torque_balance(input_speed, loads, config))


def test_solver_matches_the_linear_closed_form_on_c1_cases():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        loads, config, input_speed = random_case(rng)
        result = solve_torque_balance(input_speed, loads, config)
        expected = linear_root_torque(loads, input_speed, config.overall_ratio)
        assert abs(result.common_torque - expected) <= 1e-9 * max(1.0, abs(expected))


@pytest.mark.parametrize("offset, input_speed", [(1.5e308, 1.0), (1e308, 0.0)])
def test_overflowing_bracket_is_bisected_whole(offset, input_speed):
    # The torques at the target are about -offset and +offset, so hi - lo
    # overflows, the secant step is not finite and the bisection runs on the
    # full bracket, exactly as without the step.  Halving a bracket over the
    # double range down to adjacent floats takes up to 2,099 steps, within the cap.
    loads = [LinearLoad(1.0, offset=offset), LinearLoad(1.0, offset=-offset), LinearLoad(1.0)]
    torques = [load.torque(input_speed) for load in loads]
    assert max(torques) - min(torques) == math.inf
    result = solve_torque_balance(input_speed, loads, UNIT)
    reference = bisect_torque_balance(input_speed, loads, UNIT)
    assert bits(result) == bits(reference)
    assert 1000 < result.iterations == reference.iterations < MAX_BISECTIONS


@pytest.mark.parametrize("target_speed", [50.0, 48.0])
def test_equal_loads_give_a_point_bracket(target_speed):
    # On a straight every track needs the centre speed: the bracket is one
    # point (zero torque at matched speeds) and nothing is bisected.
    loads = [LinearLoad(2.0, 20.0, target_speed)] * 3
    result = solve_torque_balance(2.5, loads, UNIT)
    assert bits(result) == bits(bisect_torque_balance(2.5, loads, UNIT))
    assert result.iterations == 0
    assert result.common_torque == 2.0 * (50.0 - target_speed)
    assert result.output_speeds == (2.5, 2.5, 2.5)


class _CubicLoad:
    """Strictly increasing nonlinear curve: torque = k * (speed - free)^3."""

    def __init__(self, k, free):
        self.k, self.free = k, free

    def torque(self, speed):
        return self.k * (speed - self.free) ** 3

    def inverse(self, torque):
        return self.free + float(np.cbrt(torque / self.k))


def test_nonlinear_curves_meet_the_solve_tolerance():
    rng = np.random.default_rng(3)
    for _ in range(500):
        loads = [_CubicLoad(rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0)) for _ in range(3)]
        input_speed = float(rng.uniform(-20.0, 20.0))
        result = solve_torque_balance(input_speed, loads, UNIT)
        mean = sum(result.output_speeds) / 3.0
        assert abs(mean - input_speed) <= SOLVE_TOL * max(1.0, abs(input_speed))


def test_secant_step_leaves_few_bisections():
    # Plain bisection takes about 56 halvings per C1 case; the secant step
    # leaves about 7.  No timing: the count is deterministic.
    rng = np.random.default_rng(42)
    cases = [random_case(rng) for _ in range(1000)]
    iterations = [solve_torque_balance(w, loads, config).iterations for loads, config, w in cases]
    assert np.mean(iterations) <= 12


# --- internal side-gear state ---------------------------------------------------

def test_internal_state_uniform():
    sides = internal_state((10.0, 10.0, 10.0), 10.0, UNIT)
    triple_approx(sides, (10.0,) * 6)


def test_internal_state_min_norm_solution():
    sides = internal_state((12.0, 10.0, 8.0), 10.0, UNIT)
    expected = (22 / 3, 38 / 3, 34 / 3, 26 / 3, 34 / 3, 26 / 3)
    triple_approx(sides, expected)
    # residuals of both constraint families vanish
    left, right = sides[0::2], sides[1::2]
    for i in range(3):
        assert abs(left[i] + right[i] - 20.0) < 1e-9
    outputs = (12.0, 10.0, 8.0)
    for j in range(3):
        assert abs(right[j] + left[(j + 1) % 3] - 2.0 * outputs[j]) < 1e-9
    # minimum norm: orthogonal to the internal circulation mode
    circulation = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    assert abs(np.dot(sides, circulation)) < 1e-9


def test_internal_state_matches_independent_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        config = TransmissionConfig(
            ring_ratio=float(rng.uniform(0.3, 3.0)),
            output_ratio=float(rng.uniform(0.3, 3.0)),
        )
        input_speed = float(rng.uniform(-10.0, 10.0))
        target = config.overall_ratio * input_speed
        w0, w1 = rng.uniform(-20.0, 20.0, size=2)
        outputs = (float(w0), float(w1), 3.0 * target - float(w0) - float(w1))
        sides = internal_state(outputs, input_speed, config)
        expected = side_speeds_min_norm(
            outputs, input_speed, config.ring_ratio, config.output_ratio
        )
        triple_approx(sides, tuple(expected), tol=1e-7)


def test_internal_state_is_the_orthogonal_minimum_norm_solution():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        loads, config, input_speed = random_case(rng)
        outputs = solve_torque_balance(input_speed, loads, config).output_speeds
        sides = internal_state(outputs, input_speed, config)
        expected = side_speeds_min_norm(
            outputs, input_speed, config.ring_ratio, config.output_ratio
        )
        triple_approx(sides, tuple(expected), tol=1e-12)
        scale = max(1.0, max(abs(v) for v in expected))
        assert abs(np.dot(sides, CIRCULATION)) <= 1e-12 * scale


@pytest.mark.parametrize("outputs, input_speed", [
    ((12.0, 10.0, 9.0), 10.0),
    ((math.nan,) * 3, 1.0),
])
def test_internal_state_rejects_inconsistent_outputs(outputs, input_speed):
    with pytest.raises(InconsistentOutputs):
        internal_state(outputs, input_speed, UNIT)


# --- power balance ---------------------------------------------------------------

@given(loads=load_triples(), input_speed=st.floats(-20.0, 20.0), config=configs)
@settings(max_examples=200, deadline=None)
def test_power_balances_at_equilibrium(loads, input_speed, config):
    state = balance_state(input_speed, list(loads), config)
    p_in = state.input_speed * state.input_torque
    assert abs(power_balance(state, config)) <= 1e-9 * max(1.0, abs(p_in))


def test_balance_state_is_fully_consistent():
    loads = [LinearLoad(2.0, 20.0, v) for v in (67.0, 52.0, 52.0)]
    state = balance_state(3.0, loads, UNIT)
    left, right = state.side_speeds[0::2], state.side_speeds[1::2]
    ring = 2.0 * state.input_speed  # unit ring ratio, doubled by averaging
    for i in range(3):
        assert left[i] + right[i] == pytest.approx(ring, rel=1e-9)
    for j in range(3):
        assert right[j] + left[(j + 1) % 3] == pytest.approx(
            2.0 * state.output_speeds[j], rel=1e-9
        )
    assert state.input_torque == pytest.approx(3.0 * state.output_torques[0], rel=1e-12)
