import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipeclimber import (
    InconsistentOutputs,
    LinearLoad,
    NoBracket,
    NonMonotoneLoad,
    RobotParams,
    TorqueBalance,
    TransmissionConfig,
    TransmissionState,
    balance_state,
    internal_state,
    power_balance,
    required_track_speeds,
    solve_torque_balance,
)
from pipeclimber import differential
from pipeclimber.differential import MAX_BISECTIONS, SOLVE_TOL, input_torque_for
from oracles import (
    EPS,
    SLACK,
    TINY,
    assert_near_exact_sides,
    bisect_torque_balance,
    equal_slip_solution,
    exact_balance,
)
from test_acceptance import random_case

UNIT = TransmissionConfig()


def load_fields(load):
    """A ``LinearLoad``'s fields in constructor order, to build a copy of another type."""
    return load.stiffness, load.wheel_radius, load.target_speed, load.offset


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


@pytest.mark.parametrize("ring_ratio, output_ratio", [(1.0, 1.0), (0.3, 2.9), (1.7, 0.1 + 0.2)])
def test_overall_ratio_is_set_at_construction(ring_ratio, output_ratio):
    config = TransmissionConfig(ring_ratio, output_ratio, 0.9)
    assert config.overall_ratio.hex() == (ring_ratio * output_ratio).hex()
    changed = TransmissionConfig(config.ring_ratio, 2.5, config.efficiency)
    assert changed.overall_ratio.hex() == (ring_ratio * 2.5).hex()
    # Not a field: equality, hashing, repr and pickling see the three fields only.
    assert TransmissionConfig._fields == ("ring_ratio", "output_ratio", "efficiency")
    assert config.__reduce__() == (TransmissionConfig, (ring_ratio, output_ratio, 0.9))
    assert repr(config) == (f"TransmissionConfig(ring_ratio={ring_ratio!r}, "
                            f"output_ratio={output_ratio!r}, efficiency=0.9)")
    assert config == TransmissionConfig(ring_ratio, output_ratio, 0.9) != changed
    assert hash(config) == hash((ring_ratio, output_ratio, 0.9))
    with pytest.raises(AttributeError):
        config.overall_ratio = 1.0
    with pytest.raises(AttributeError):
        del config.overall_ratio


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


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("bad", [
    LinearLoad(stiffness=-1.0), LinearLoad(stiffness=0.0), LinearLoad(1.0, wheel_radius=-2.0),
    LinearLoad(stiffness=math.nan), LinearLoad(1.0, wheel_radius=math.nan),
])
def test_non_monotone_load_rejected(bad, index):
    # Three exact LinearLoads take the fast path, whose slope check reads the
    # fields, and a subclass the method path; the error names the load that
    # fails, wherever it is.
    for good in (LinearLoad, _CountingLoad):
        loads = [good(stiffness=1.0, target_speed=float(j)) for j in range(3)]
        loads[index] = bad
        with pytest.raises(NonMonotoneLoad) as err:
            solve_torque_balance(1.0, loads, UNIT)
        assert str(err.value) == f"load {bad!r} is not strictly increasing"


class _BrokenLoad:
    """Monotone torque but an inverse that never matches it: always ``speed``."""

    slope = 1.0

    def __init__(self, speed):
        self.speed = speed

    def torque(self, speed):
        return speed

    def inverse(self, torque):
        return self.speed


@pytest.mark.parametrize("input_speed, loads, side", [
    (1.0, [_BrokenLoad(1e12)] * 3, "below"),  # the residual is above 0 everywhere
    (1.0, [_BrokenLoad(-1e12)] * 3, "above"),  # and here below 0
])
def test_unbracketable_root_raises(input_speed, loads, side):
    with pytest.raises(NoBracket, match=f"^no sign change {side} torque "):
        solve_torque_balance(input_speed, loads, UNIT)


def test_a_non_finite_solve_raises_and_never_returns():
    # offset / stiffness overflows on every track, so the closed-form root is
    # inf / inf, NaN, and starts at the bracket's top.  Plain bisection ends
    # on the speeds (inf, -inf, -inf), whose mean-speed residual is NaN.
    loads = [LinearLoad(1e-320, 1.0, 0.0, offset) for offset in (1.0, 2.0, 3.0)]
    assert bisect_torque_balance(0.0, loads, UNIT).output_speeds == (math.inf, -math.inf,
                                                                     -math.inf)
    with pytest.raises(NoBracket, match=r"^bisection stalled with mean-speed residual nan$"):
        solve_torque_balance(0.0, loads, UNIT)


def test_a_bracket_end_at_infinity_is_bisected_at_ordered_keys():
    # The torques at the target overflow to -inf and +inf, so every float midpoint is
    # NaN; the midpoints of the ends' ordered keys are finite and find the finite root.
    loads = [LinearLoad(1e308, 20.0, v) for v in (58.0, 46.0, 46.0)]
    assert sorted(load.torque(2.5) for load in loads) == [-math.inf, math.inf, math.inf]
    result = solve_torque_balance(2.5, loads, UNIT)
    assert result.iterations <= MAX_BISECTIONS
    assert_near_exact_balance(result, 2.5, loads, UNIT)


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


# --- torque balance: the walk and the bracketed bisection ---------------------------

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
        # A subclass takes the bracketed search through its methods: the walk's bits.
        counted = solve_torque_balance(input_speed,
                                       [_CountingLoad(*load_fields(l)) for l in loads], config)
        assert bits(counted) == bits(result)


@given(loads=load_triples(), input_speed=st.floats(-20.0, 20.0), config=configs)
# Two closed-form roots outside the bracket, which the solve clamps into it.
# The second rounds to one ulp below the bracket's bottom, 1e61 * -1e-117,
# where every speed is still zero: unclamped, the walk keeps that torque.
@example(loads=(LinearLoad(1.7e308, 1e300, -0.5, 0.5), LinearLoad(1e-320, 0.5, -0.5, 0.0),
                LinearLoad(1e10, 0.5, -1.0, 0.0)), input_speed=0.0, config=UNIT)
@example(loads=(LinearLoad(1e61, 1.0, 1e-117, 0.0), LinearLoad(1e305, 1.0, 0.0, 0.0),
                LinearLoad(1e68, 1e205, 0.0, 0.0)), input_speed=0.0, config=UNIT)
@settings(max_examples=200, deadline=None)
def test_solver_bits_match_plain_bisection_under_any_load(loads, input_speed, config):
    result = solve_torque_balance(input_speed, list(loads), config)
    assert bits(result) == bits(bisect_torque_balance(input_speed, loads, config))


class _MethodLoad:
    """A ``LinearLoad``'s curve behind its methods only: not a ``LinearLoad``, so the
    solve skips the walk and calls them through the bracketed search."""

    def __init__(self, *fields):
        load = LinearLoad(*fields)
        self.torque, self.inverse = load.torque, load.inverse


@pytest.mark.parametrize("offset, input_speed", [(1.5e308, 1.0), (1e308, 0.0)])
def test_overflowing_bracket_is_bisected_whole(offset, input_speed):
    # The torques at the target are about -offset and +offset, so hi - lo
    # overflows, the walk does not start and the bisection runs on the full
    # bracket.  Float midpoints would take 1,077 and 2,099 halvings down to
    # adjacent floats; past the 64th the ordered keys' midpoints take at most 64 more.
    fields = [(1.0, 1.0, 0.0, offset), (1.0, 1.0, 0.0, -offset), (1.0,)]
    loads = [LinearLoad(*f) for f in fields]
    torques = [load.torque(input_speed) for load in loads]
    assert max(torques) - min(torques) == math.inf
    reference = bisect_torque_balance(input_speed, loads, UNIT)
    assert reference.iterations > 1000
    for solved in (loads, [_MethodLoad(*f) for f in fields]):
        result = solve_torque_balance(input_speed, solved, UNIT)
        assert bits(result) == bits(reference)
        assert result.iterations <= 128


@pytest.mark.parametrize("fields, midpoints", [
    # The walk does not start (lo + lo overflows).  64 float halvings of [-1e308, 7e307]
    # leave ends of both signs more than 2**63 keys apart, so all 64 key halvings run,
    # and stopping one short keeps a torque one ulp above 5.0.
    ([(1e308, 1.0, 1.0), (7e307, 1.0, -1.0), (1.0, 1.0, 0.0, 5.0)], 128),
    # F(0) == 0 > F(-5e-324), and no float midpoint of [-1, 2] is 0: the key halvings
    # reach key 0, which is +0.0, the zero that plain bisection and the walk keep.
    # The 128th pass finds the ends adjacent and evaluates no midpoint.
    ([(1.0, 1.0, 0.0, -1.0), (2.0, 1.0, 0.0, 2.0), (1 / 3,)], 127),
], ids=["wide", "zero"])
def test_key_halvings_end_on_the_plain_bisection_pair(fields, midpoints):
    loads = [LinearLoad(*f) for f in fields]
    reference = bisect_torque_balance(0.0, loads, UNIT)
    assert reference.iterations > 1000
    assert bits(solve_torque_balance(0.0, loads, UNIT)) == bits(reference)
    # A load that counts its calls sees the bracket's two ends, each
    # midpoint evaluated and the final speeds.
    taus = []
    counting = _MethodLoad(*fields[0])
    inverse = counting.inverse
    counting.inverse = lambda tau: taus.append(tau) or inverse(tau)
    result = solve_torque_balance(0.0, [counting, *(_MethodLoad(*f) for f in fields[1:])], UNIT)
    assert bits(result) == bits(reference)
    assert result.iterations == len(taus) - 3 == midpoints <= MAX_BISECTIONS == 128


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


class _CountingLoad(LinearLoad):
    """A ``LinearLoad`` that counts its inversions in the class attribute ``calls``."""

    calls = 0

    def inverse(self, torque):
        type(self).calls += 1
        return super().inverse(torque)


def walk_probes(input_speed, loads, config, monkeypatch):
    """The probes the walk takes to end the solve of three exact ``LinearLoad``s, or None
    where it falls back at the full WALK_STEPS.

    The walk probes the same floats under any cap and hands over to the bracketed search
    when the cap runs out, so the smallest WALK_STEPS at which the solve still evaluates
    no midpoint, with the same bits, is its probe count."""
    full = solve_torque_balance(input_speed, loads, config)
    if full.iterations:
        return None
    with monkeypatch.context() as patch:
        for cap in range(differential.WALK_STEPS + 1):
            patch.setattr(differential, "WALK_STEPS", cap)
            capped = solve_torque_balance(input_speed, loads, config)
            if capped.iterations == 0 and bits(capped) == bits(full):
                return cap


def test_the_walk_leaves_few_bisections(monkeypatch):
    # The closed-form root lands next to the adjacent pair in most cases, and
    # the walk from it reaches the pair in a few more probes; the few walks that
    # run out of WALK_STEPS bisect the whole bracket.  No timing: the counts are
    # deterministic.
    rng = np.random.default_rng(42)
    cases = [random_case(rng) for _ in range(1000)]
    iterations = [solve_torque_balance(w, loads, config).iterations for loads, config, w in cases]
    probes = [walk_probes(w, loads, config, monkeypatch) for loads, config, w in cases]
    ended = [n for n in probes if n is not None]
    assert np.mean(iterations) <= 0.5
    assert len(cases) - len(ended) <= 8  # 4 measured
    assert np.mean(ended) <= 3.0, np.mean(ended)  # 2.74 measured


@pytest.mark.parametrize("target_speed", [50.0, 48.0])
def test_a_point_bracket_costs_one_residual(target_speed):
    # lo == hi: F at that one point decides the solve, and the output speeds invert the
    # loads once more.
    loads = [_CountingLoad(2.0, 20.0, target_speed)] * 3
    _CountingLoad.calls = 0
    solve_torque_balance(2.5, loads, UNIT)
    assert _CountingLoad.calls == 3 + 3


class _CubeLoad(LinearLoad):
    """A ``LinearLoad`` subclass on another monotone curve:
    torque(w) = stiffness * (w * wheel_radius - target_speed)**3 + offset."""

    def torque(self, speed):
        return self.stiffness * (speed * self.wheel_radius - self.target_speed) ** 3 + self.offset

    def inverse(self, torque):
        return (math.cbrt((torque - self.offset) / self.stiffness) + self.target_speed) \
            / self.wheel_radius


class _SameLoad(LinearLoad):
    """A ``LinearLoad`` subclass that overrides nothing."""


@pytest.mark.parametrize("cubes", [(0, 1, 2), (1,), (2,)])
def test_a_load_subclass_is_solved_on_its_own_curve(cubes):
    # Only exact LinearLoads take the walk: a subclass that overrides
    # torque and inverse is solved through its methods, alone or mixed.
    fields = [(2.0, 20.0, 67.0, 0.5), (1.5, 18.0, 52.0, -1.0), (3.0, 22.0, 49.0, 2.0)]
    # One that overrides nothing is bisected on the linear curve, to the walk's bits.
    walked = solve_torque_balance(3.0, [LinearLoad(*f) for f in fields], UNIT)
    bisected = solve_torque_balance(3.0, [_SameLoad(*f) for f in fields], UNIT)
    assert bits(bisected) == bits(walked) and bisected.iterations > 0
    loads = [(_CubeLoad if j in cubes else LinearLoad)(*f) for j, f in enumerate(fields)]
    result = solve_torque_balance(3.0, loads, UNIT)
    assert result.output_speeds == tuple(load.inverse(result.common_torque) for load in loads)
    assert abs(sum(result.output_speeds) / 3.0 - 3.0) <= SOLVE_TOL * 3.0
    for j in cubes:  # the linear curve of the same fields gives another speed
        assert abs(LinearLoad(*fields[j]).inverse(result.common_torque)
                   - result.output_speeds[j]) > 1e-3


@pytest.mark.parametrize("input_speed", [0.0, -0.0])
@pytest.mark.parametrize("targets", [(1.0, -1.0, 0.0), (-1.0, 1.0, -0.0)])
def test_exact_zero_root_takes_few_halvings(targets, input_speed):
    # The closed-form root is exactly +-0.0, where the residual is 0; the
    # float residual stays >= 0 down to -5e-324, so the adjacent pair lies
    # just below zero.  Plain bisection of the [-1, 1] bracket at float
    # midpoints halves its way down through the subnormals to reach it; the
    # walk steps there from the root.
    loads = [LinearLoad(1.0, 1.0, t) for t in targets]
    result = solve_torque_balance(input_speed, loads, UNIT)
    reference = bisect_torque_balance(input_speed, loads, UNIT)
    assert bits(result) == bits(reference)
    assert reference.iterations > 1000
    assert result.iterations <= 64


@pytest.mark.parametrize("orientation", [0.0, 37.0, 90.0, 200.0])
@pytest.mark.parametrize("bend_radius", [150.0, 300.0, 450.0, 600.0, 1000.0])
def test_bend_solves_take_at_most_64_halvings(bend_radius, orientation, monkeypatch):
    # Equal slip stiffness puts a bend's equilibrium torque at rounding
    # noise around 0, where floats are dense and the float residual is flat
    # between the floats at which a track's (tau - o) / k + g rounds to its
    # next value: halving the bracket takes 52-56 steps to find the one where
    # it crosses 0, and the walk steps from one such float to the next.
    robot = RobotParams(50.0, 20.0, orientation, 1000.0, 8.0, 3.0, 0.4, 200.0)
    required = required_track_speeds(1.0 / bend_radius, 50.0, robot)
    loads = [LinearLoad(1.0, 20.0, float(v)) for v in required]
    result = solve_torque_balance(2.5, loads, UNIT)
    assert bits(result) == bits(bisect_torque_balance(2.5, loads, UNIT))
    assert result.iterations <= 64
    assert walk_probes(2.5, loads, UNIT, monkeypatch) <= 7  # at most 6 measured
    assert_near_exact_balance(result, 2.5, loads, UNIT)
    # A subclass takes the bracketed search to the same bits.  Its 64 float halvings stop
    # short of the pair near 0, and key halvings end the search.
    counted = solve_torque_balance(2.5, [_CountingLoad(*load_fields(l)) for l in loads], UNIT)
    assert bits(counted) == bits(result)
    assert counted.iterations <= MAX_BISECTIONS


# Loads whose float residual is exactly 0 on a run of floats around the root.  A steep
# load (stiffness 1) sets the root, at torque 0; the flat ones (stiffness 1e18) invert to
# exactly 1.0 over any torque near it, and their offsets put the bracket ends where a
# case wants them.  The bracketed search keeps a bracket end where the residual is 0
# there, and otherwise the first float of the run.
_STEEP = LinearLoad(1.0, 1.0, 1.0)
ZERO_RUNS = {
    "at_min": [_STEEP, LinearLoad(1e18, 1.0, 1.0, -1e-16), LinearLoad(1e18, 1.0, 1.0, 1.0)],
    "at_max": [_STEEP, LinearLoad(1e18, 1.0, 1.0, 1e-16), LinearLoad(1e18, 1.0, 1.0, -1.0)],
    "interior": [_STEEP, LinearLoad(1e18, 1.0, 1.0, -1.0), LinearLoad(1e18, 1.0, 1.0, 1.0)],
    "point": [LinearLoad(1e18, 1.0, 1.0, 0.5)] * 3,
}


@pytest.mark.parametrize("load_type", [LinearLoad, _CountingLoad])
@pytest.mark.parametrize("shape", ZERO_RUNS)
def test_zero_runs_keep_the_bracketed_search_bits(shape, load_type):
    loads = [load_type(*load_fields(load)) for load in ZERO_RUNS[shape]]
    torques = [load.torque(1.0) for load in loads]
    lo, hi = min(torques), max(torques)
    signs = (np.sign(mean_speed(loads, lo) - 1.0), np.sign(mean_speed(loads, hi) - 1.0))
    expected = {"at_min": (0, 1), "at_max": (-1, 0), "interior": (-1, 1), "point": (0, 0)}
    assert signs == expected[shape]
    assert (lo == hi) == (shape == "point")
    result = solve_torque_balance(1.0, loads, UNIT)
    assert bits(result) == bits(bisect_torque_balance(1.0, loads, UNIT))
    tau = result.common_torque
    below = mean_speed(loads, math.nextafter(tau, -math.inf))
    assert mean_speed(loads, tau) == 1.0
    if shape == "interior":  # the first float of the run, which the walk ends on for exact loads
        assert below < 1.0
        if load_type is LinearLoad:
            assert result.iterations == 0
    else:  # a bracket end, with the run going on below it
        assert tau == (hi if shape == "at_max" else lo) and below == 1.0


def mean_speed(loads, tau):
    """The mean of the loads' inverses at ``tau``, summed as the solve sums them."""
    return (0.0 + loads[0].inverse(tau) + loads[1].inverse(tau) + loads[2].inverse(tau)) / 3.0


@given(
    bend_radius=st.floats(150.0, 1000.0),
    orientation=st.floats(0.0, 360.0),
    stiffness=st.sampled_from([1.0]) | st.floats(0.01, 100.0),
    offset=st.sampled_from([0.0]) | st.floats(-5.0, 5.0),
    input_speed=st.floats(0.5, 5.0),
)
@settings(max_examples=300, deadline=None)
def test_bend_shaped_loads_match_plain_bisection(bend_radius, orientation, stiffness, offset,
                                                 input_speed):
    # The simulator's loads in a bend: one slip stiffness, sprocket radius and
    # offset for all three tracks, and required speeds whose mean is the
    # geared surface speed.  A stiffness other than 1 scales every float at
    # which the residual can change.
    robot = RobotParams(50.0, 20.0, orientation, 1000.0, 8.0, 3.0, 0.4, 200.0)
    required = required_track_speeds(1.0 / bend_radius, 20.0 * input_speed, robot)
    loads = [LinearLoad(stiffness, 20.0, float(v), offset) for v in required]
    result = solve_torque_balance(input_speed, loads, UNIT)
    assert bits(result) == bits(bisect_torque_balance(input_speed, loads, UNIT))
    counted = solve_torque_balance(input_speed, [_CountingLoad(*load_fields(l)) for l in loads],
                                   UNIT)
    assert bits(counted) == bits(result)


def signed_load_triples():
    """Like ``load_triples``, with the stiffness and radius of each load negated or not."""
    def flip(load, negate):
        if not negate:
            return load
        return LinearLoad(-load.stiffness, -load.wheel_radius, load.target_speed, load.offset)

    return st.tuples(load_triples(), st.tuples(*[st.booleans()] * 3)).map(
        lambda pair: tuple(flip(load, negate) for load, negate in zip(*pair)))


@given(loads=signed_load_triples(), input_speed=st.floats(-20.0, 20.0), config=configs)
@settings(max_examples=200, deadline=None)
def test_solver_bits_match_plain_bisection_with_negative_fields(loads, input_speed, config):
    # With k < 0 and r < 0 the slope k * r stays positive, but each term's
    # (tau - o) / k + g runs the other way, and so does the walk's next change.
    result = solve_torque_balance(input_speed, list(loads), config)
    assert bits(result) == bits(bisect_torque_balance(input_speed, loads, config))


# --- torque balance: against the exact root -----------------------------------------

def assert_near_exact_balance(result, input_speed, loads, config):
    """The solve's torque and speeds lie within a rounding-error bound of
    ``oracles.exact_balance``.

    Let S be the largest magnitude that enters the residual.  One inverse
    ((tau - off)/k + v)/r rounds four times: the first two act on the
    (tau - off)/k part, at most 2S after the /r, and the last two on values
    of at most S, so it errs by at most (2 + 2 + 1 + 1) * eps/2 * S = 3 eps S.
    The mean (0 + w0 + w1 + w2)/3 rounds two partial sums (at most 2S and
    3S) and the quotient (at most S): 4/3 eps S more.  The final "- target"
    keeps the sign.  So the float residual has the exact residual's sign
    wherever that exceeds E = 13/3 eps S in size, and the solve ends on an
    adjacent pair within E/a of the root.  The pair's gap is at most
    eps |tau| <= eps S/a, as a |tau| is the mean of |tau|/(k_j r_j): 16/3
    eps S/a in all.  A speed errs by its own inverse's 3 eps S plus the
    torque error over k_j r_j.  A rounding in the subnormal range may err by
    TINY/2 absolute instead; 16 TINY covers all of them and the gap there.
    SLACK covers the O(eps**2) terms.
    """
    tau, speeds, slope = exact_balance(input_speed, loads, config)
    got = Fraction(result.common_torque)
    radii = [Fraction(load.wheel_radius) for load in loads]
    stiffnesses = [Fraction(load.stiffness) for load in loads]
    gains = [1 / (k * r) for k, r in zip(stiffnesses, radii)]  # d inverse / d torque
    scale = max(
        abs(Fraction(config.overall_ratio * input_speed)),
        *(abs(w + g * (got - tau)) for w, g in zip(speeds, gains)),  # inverses at ``got``
        *(abs(Fraction(load.offset) / k) / r for load, k, r in zip(loads, stiffnesses, radii)),
        *(abs(got / k) / r for k, r in zip(stiffnesses, radii)),
        *(abs(Fraction(load.target_speed) / r) for load, r in zip(loads, radii)),
    )
    torque_error = abs(got - tau)
    bound = SLACK * (Fraction(16, 3) * EPS * scale + 16 * TINY) / slope
    assert torque_error <= bound, (float(torque_error), float(bound))
    for w, exact, gain in zip(result.output_speeds, speeds, gains):
        error = abs(Fraction(w) - exact)
        bound = SLACK * (3 * EPS * scale + 16 * TINY + torque_error * gain)
        assert error <= bound, (float(error), float(bound))


def test_solver_is_near_the_exact_root_on_c1_cases():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        loads, config, input_speed = random_case(rng)
        result = solve_torque_balance(input_speed, loads, config)
        assert_near_exact_balance(result, input_speed, loads, config)


@given(loads=load_triples(), input_speed=st.floats(-20.0, 20.0), config=configs)
@settings(max_examples=200, deadline=None)
def test_solver_is_near_the_exact_root_under_any_load(loads, input_speed, config):
    result = solve_torque_balance(input_speed, list(loads), config)
    assert_near_exact_balance(result, input_speed, loads, config)


# --- result types -------------------------------------------------------------------

def test_results_are_immutable_hashable_named_tuples():
    loads = [LinearLoad(2.0, 20.0, v) for v in (67.0, 52.0, 52.0)]
    balance = solve_torque_balance(3.0, loads, UNIT)
    state = balance_state(3.0, loads, UNIT)
    assert TorqueBalance._fields == ("output_speeds", "common_torque", "iterations")
    assert TransmissionState._fields == ("input_speed", "input_torque", "ring_speeds",
                                         "side_speeds", "output_speeds", "output_torques")
    for result in (balance, state):
        for field in result._fields:
            with pytest.raises(AttributeError):
                setattr(result, field, 0.0)
        assert hash(result) == hash(tuple(result))
        assert type(result)(**result._asdict()) == result
    assert balance._replace(iterations=0) == (balance.output_speeds, balance.common_torque, 0)
    # A slotted LinearLoad has no instance dict, but a subclass still counts.
    assert not hasattr(loads[0], "__dict__")
    _CountingLoad.calls = 0
    solve_torque_balance(3.0, [_CountingLoad(2.0, 20.0, v) for v in (67.0, 52.0, 52.0)], UNIT)
    assert _CountingLoad.calls >= 6


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
        assert_near_exact_sides(sides, outputs, input_speed, config)


def test_internal_state_is_the_orthogonal_minimum_norm_solution():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        loads, config, input_speed = random_case(rng)
        outputs = solve_torque_balance(input_speed, loads, config).output_speeds
        # The exact sides are orthogonal to the circulation mode.
        assert_near_exact_sides(internal_state(outputs, input_speed, config), outputs,
                                input_speed, config)


@given(config=configs, input_speed=st.floats(-10.0, 10.0), w0=st.floats(-20.0, 20.0),
       w1=st.floats(-20.0, 20.0), exponent=st.sampled_from([0, 200, -300, -1060]))
@settings(max_examples=300, deadline=None)
def test_internal_state_is_near_the_exact_sides_at_any_scale(config, input_speed, w0, w1,
                                                               exponent):
    # The exponent scales every speed, down into the subnormal range.
    input_speed, w0, w1 = (math.ldexp(v, exponent) for v in (input_speed, w0, w1))
    outputs = (w0, w1, 3.0 * config.overall_ratio * input_speed - w0 - w1)
    try:
        sides = internal_state(outputs, input_speed, config)
    except InconsistentOutputs:  # the last output rounded off the averaging law
        return
    assert_near_exact_sides(sides, outputs, input_speed, config)


@pytest.mark.parametrize("outputs", [(10.0, 10.0), (10.0, 10.0, 10.0, 10.0)])
def test_internal_state_rejects_other_than_three_outputs(outputs):
    with pytest.raises(ValueError, match="expected 3 output speeds"):
        internal_state(outputs, 10.0, UNIT)


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


def composed_state(input_speed, loads, config):
    """``balance_state`` composed from the public pieces, with the output
    speeds inverted from the solve's torque through the loads' methods."""
    tau = solve_torque_balance(input_speed, loads, config).common_torque
    speeds = tuple(load.inverse(tau) for load in loads)
    ring = config.ring_ratio * input_speed
    return TransmissionState(input_speed, input_torque_for(tau, config), (ring,) * 3,
                             internal_state(speeds, input_speed, config), speeds, (tau,) * 3)


def state_bits(state):
    """Every float of a state, in field order, as exact bit patterns."""
    return [float(v).hex() for field in state for v in (field if isinstance(field, tuple)
                                                         else (field,))]


def test_balance_state_is_its_composition_from_the_public_pieces():
    rng = np.random.default_rng(2026)
    cases = [random_case(rng) for _ in range(2000)]
    # Targets and offsets of +-0.0 and +-1 put the root at or next to a signed zero.
    signs = (0.0, -0.0, 1.0, -1.0)
    cases += [([LinearLoad(1.0, 1.0, t, o) for t, o in zip(targets, offsets)], UNIT, input_speed)
              for targets in itertools.product(signs, repeat=3)
              for offsets in itertools.product(signs, repeat=3)
              for input_speed in (0.0, -0.0)]
    for loads, config, input_speed in cases:
        state = balance_state(input_speed, loads, config)
        assert state_bits(state) == state_bits(composed_state(input_speed, loads, config)), (
            loads, config, input_speed)
    assert type(state) is TransmissionState
    assert state.output_torques == state[5] and state.side_speeds is state[3]
    assert state == tuple(state) and tuple(state) == state
    assert state._replace(input_torque=0.0) == (state[0], 0.0, *state[2:])


@pytest.mark.parametrize("input_speed", [0.0, -0.0])
def test_a_zero_torque_kept_by_the_walk_gets_its_own_speeds(input_speed):
    # The walk probes -5e-324 (F < 0), then -0.0 (F > 0), and keeps -0.0: |F| ties at
    # 5e-324, and a tie keeps the upper end.  The bracketed search returns +0.0 there
    # (hi), so the walk's zero fix replaces the torque.  The last two loads (target_speed
    # -0.0, offset 0.0) invert -0.0 to -0.0 and +0.0 to +0.0: the speeds the probe
    # computed at -0.0 would be the wrong bits.
    loads = [LinearLoad(1.0, 1.0, 2e-323), LinearLoad(1.0, 1.0, -0.0),
             LinearLoad(0.25, 1.0, -0.0, 0.0)]
    assert [load.inverse(-0.0).hex() for load in loads[1:]] == ["-0x0.0p+0"] * 2
    result = solve_torque_balance(input_speed, loads, UNIT)
    assert bits(result) == bits(bisect_torque_balance(input_speed, loads, UNIT))
    assert bits(result) == ["0x0.0p+0", (2e-323).hex(), "0x0.0p+0", "0x0.0p+0"]
    assert result.iterations == 0
    state = balance_state(input_speed, loads, UNIT)
    assert state_bits(state) == state_bits(composed_state(input_speed, loads, UNIT))


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
