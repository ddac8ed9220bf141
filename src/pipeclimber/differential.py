"""Single-input, three-output open differential gear train.

The train is built from three two-output differentials (stage 1) whose ring
gears all turn at ``ring_ratio * input_speed``, feeding three two-input
differentials (stage 2) through cyclically paired side gears.  Each open
differential averages speed and splits torque equally, which yields the two
defining conditions solved here:

* speed averaging:  mean(output_speeds) == ring_ratio * output_ratio * input_speed
* equal torque:     all three outputs carry the same torque

Stage-1 side gears are labelled L_i / R_i; side gear R_i meshes with side
gear L_{i+1} (indices mod 3), so the linear constraints are::

    L_i + R_i     = 2 * ring_ratio * input_speed         (stage-1 averaging)
    R_j + L_{j+1} = 2 * output_speed_j / output_ratio    (stage-2 averaging)

The system is rank 5 in 6 unknowns: a free internal circulation mode
(alternating +/-t on L/R) remains, and ``internal_state`` resolves it by
minimum-norm selection, which has a closed form.

Under load the equilibrium is found by scalar root finding on the common
torque level: invert each (strictly monotone) load curve at a trial torque
and adjust the torque until the mean output speed meets the averaging
constraint.  Bracketed bisection keeps this robust for any monotone curve;
one secant step first narrows the bracket to a few ulps around the root.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import InconsistentOutputs, NoBracket, NonMonotoneLoad, require, require_positive

SOLVE_TOL = 1e-10  # guaranteed relative accuracy of a torque-balance mean speed
# A bracket that spans the double range needs up to 1025 + 1074 + 1 halvings
# to reach adjacent floats: from 2**1024 down to the subnormal spacing.
MAX_BISECTIONS = 2200
SPAN_FACTOR = 2.0  # growth of the bracket span per widening
MAX_WIDENINGS = 80
AVERAGING_TOL = 1e-9  # relative mean-speed mismatch ``internal_state`` accepts


@dataclass(frozen=True)
class TransmissionConfig:
    """Gear ratios of the three-output differential.

    ring_ratio:   input shaft -> stage-1 ring gears (speed multiplier).
    output_ratio: stage-2 carrier -> output shaft (speed multiplier).
    efficiency:   input->output power efficiency, in (0, 1].
    """

    ring_ratio: float = 1.0
    output_ratio: float = 1.0
    efficiency: float = 1.0

    def __post_init__(self):
        require_positive(self, "ring_ratio", "output_ratio")
        require(0.0 < self.efficiency <= 1.0, "efficiency", self.efficiency, "in (0, 1]")

    @property
    def overall_ratio(self) -> float:
        """Speed multiplier from the input shaft to the mean of the outputs."""
        return self.ring_ratio * self.output_ratio


@dataclass(frozen=True)
class TransmissionState:
    """Every gear speed and torque of the train at one instant.

    Speeds in rad/s, torques in N*m.  ``side_speeds`` is ordered
    (L1, R1, L2, R2, L3, R3).
    """

    input_speed: float
    input_torque: float
    ring_speeds: tuple[float, float, float]
    side_speeds: tuple[float, float, float, float, float, float]
    output_speeds: tuple[float, float, float]
    output_torques: tuple[float, float, float]


@dataclass(frozen=True)
class LinearLoad:
    """Resistive torque growing linearly with output speed (slip law).

    torque(w) = stiffness * (w * wheel_radius - target_speed) + offset

    ``wheel_radius`` converts shaft speed to surface speed, ``target_speed``
    is the surface speed at which the slip term vanishes.  Strictly monotone
    increasing whenever stiffness * wheel_radius > 0, so the inverse is exact;
    ``solve_torque_balance`` rejects any other slope before it inverts.
    """

    stiffness: float
    wheel_radius: float = 1.0
    target_speed: float = 0.0
    offset: float = 0.0

    @property
    def slope(self) -> float:
        return self.stiffness * self.wheel_radius

    def torque(self, speed: float) -> float:
        return self.stiffness * (speed * self.wheel_radius - self.target_speed) + self.offset

    def inverse(self, torque: float) -> float:
        return ((torque - self.offset) / self.stiffness + self.target_speed) / self.wheel_radius


@dataclass(frozen=True)
class TorqueBalance:
    """Result of a load-balance solve: output speeds and the shared torque."""

    output_speeds: tuple[float, float, float]
    common_torque: float
    iterations: int


def solve_torque_balance(input_speed: float, loads, config: TransmissionConfig) -> TorqueBalance:
    """Equilibrium of the train against three monotone load curves.

    Finds the torque level tau at which the load-curve inverses average to
    the constrained mean speed, i.e. the root of

        F(tau) = mean_j loads[j].inverse(tau) - overall_ratio * input_speed

    F is strictly increasing, so evaluating each load at the target mean
    speed brackets the root immediately.  One secant step narrows the
    bracket to a few ulps around the root; bisection then shrinks it to
    float resolution (at most MAX_BISECTIONS halvings), which keeps the
    result deterministic even when the equilibrium torque is tiny.
    SOLVE_TOL (relative on the mean-speed residual) is the guaranteed
    accuracy; the solve is verified against it and far exceeds it in
    practice.

    Raises NonMonotoneLoad for a non-increasing curve and NoBracket if the
    bracket cannot be established within MAX_WIDENINGS widenings, each
    SPAN_FACTOR times the last (only possible for inconsistent
    torque/inverse implementations).
    """
    if len(loads) != 3:
        raise ValueError(f"expected 3 load curves, got {len(loads)}")
    for load in loads:
        if getattr(load, "slope", 1.0) <= 0.0:
            raise NonMonotoneLoad(f"load {load!r} is not strictly increasing")

    target = config.overall_ratio * input_speed
    inv0, inv1, inv2 = (load.inverse for load in loads)

    def residual(tau: float) -> float:
        # ``sum`` as in plain bisection: from Python 3.12 it rounds unlike ``+``.
        return sum((inv0(tau), inv1(tau), inv2(tau))) / 3.0 - target

    torques = [load.torque(target) for load in loads]
    lo, hi = min(torques), max(torques)
    f_lo = residual(lo)
    f_hi = residual(hi)

    # The [min, max] torque bracket is valid for exact monotone curves; grow
    # it geometrically if a user-supplied curve disagrees with its inverse.
    span = max(1.0, hi - lo, abs(lo), abs(hi))
    widenings = 0
    while f_lo > 0.0:
        if widenings >= MAX_WIDENINGS:
            raise NoBracket(f"no sign change below torque {lo}")
        lo -= span
        span *= SPAN_FACTOR
        f_lo = residual(lo)
        widenings += 1
    while f_hi < 0.0:
        if widenings >= MAX_WIDENINGS:
            raise NoBracket(f"no sign change above torque {hi}")
        hi += span
        span *= SPAN_FACTOR
        f_hi = residual(hi)
        widenings += 1

    iterations = 0
    if lo == hi or f_lo == 0.0:
        tau = lo
    elif f_hi == 0.0:
        tau = hi
    else:
        # Monotone curves have a monotone float residual, so bisection ends on the same adjacent
        # pair from any sub-bracket with a sign change, such as one hugging a secant step.  A
        # non-finite seed fails both tests and leaves the bracket whole.
        seed = lo - f_lo * ((hi - lo) / (f_hi - f_lo))
        width = 4.0 * sys.float_info.epsilon * max(abs(lo), abs(hi), abs(seed))
        if lo < seed - width < hi and residual(seed - width) < 0.0:
            lo = seed - width
        if lo < seed + width < hi and residual(seed + width) >= 0.0:
            hi = seed + width
        for iterations in range(1, MAX_BISECTIONS + 1):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:  # bracket at float resolution
                break
            if residual(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        # Adjacent endpoints remain; keep the one with the smaller residual.
        tau = lo if abs(residual(lo)) < abs(residual(hi)) else hi

    speeds = (inv0(tau), inv1(tau), inv2(tau))
    mean_residual = sum(speeds) / 3.0 - target
    if not abs(mean_residual) <= SOLVE_TOL * max(1.0, abs(target)):  # NaN fails too
        raise NoBracket(f"bisection stalled with mean-speed residual {mean_residual}")
    return TorqueBalance(output_speeds=speeds, common_torque=tau, iterations=iterations)


def input_torque_for(common_torque: float, config: TransmissionConfig) -> float:
    """Input torque that produces ``common_torque`` at each output."""
    return 3.0 * config.overall_ratio * common_torque / config.efficiency


def internal_state(
    output_speeds, input_speed: float, config: TransmissionConfig
) -> tuple[float, float, float, float, float, float]:
    """Side-gear speeds (L1, R1, L2, R2, L3, R3) consistent with the outputs.

    The six averaging constraints are rank 5; the leftover one-parameter
    internal circulation mode (alternating +/-t) is resolved by returning
    the minimum-norm solution, which is unique and testable: with
    rho = ring_ratio * input_speed, R_i = rho + x_i, L_i = rho - x_i and
    x_j - x_{j+1} = 2 * w_j / output_ratio - 2 * rho =: c_j, it has sum(x) = 0.

    Raises InconsistentOutputs when mean(output_speeds) deviates from the
    constrained value by more than AVERAGING_TOL relative (no side-gear
    speeds can realise such outputs).
    """
    speeds = tuple(float(w) for w in output_speeds)
    if len(speeds) != 3:
        raise ValueError(f"expected 3 output speeds, got {len(speeds)}")
    target = config.overall_ratio * input_speed
    mean = sum(speeds) / 3.0
    if not abs(mean - target) <= AVERAGING_TOL * max(1.0, abs(target)):  # NaN fails too
        raise InconsistentOutputs(f"mean output speed {mean} != {target} required by the "
                                  "averaging law")

    ring = config.ring_ratio * input_speed
    c0, c1 = (2.0 * w / config.output_ratio - 2.0 * ring for w in speeds[:2])
    x0 = (2.0 * c0 + c1) / 3.0
    x1, x2 = x0 - c0, x0 - c0 - c1
    return (ring - x0, ring + x0, ring - x1, ring + x1, ring - x2, ring + x2)


def balance_state(input_speed: float, loads, config: TransmissionConfig) -> TransmissionState:
    """Full consistent train state at the load-balance equilibrium."""
    balance = solve_torque_balance(input_speed, loads, config)
    ring = config.ring_ratio * input_speed
    sides = internal_state(balance.output_speeds, input_speed, config)
    tau = balance.common_torque
    return TransmissionState(
        input_speed=input_speed,
        input_torque=input_torque_for(tau, config),
        ring_speeds=(ring, ring, ring),
        side_speeds=sides,
        output_speeds=balance.output_speeds,
        output_torques=(tau, tau, tau),
    )


def power_balance(state: TransmissionState, config: TransmissionConfig) -> float:
    """Power conservation residual, zero for the ideal train.

    residual = efficiency * input_speed * input_torque
               - sum_j output_speed_j * output_torque_j
    """
    p_out = sum(w * t for w, t in zip(state.output_speeds, state.output_torques))
    return config.efficiency * state.input_speed * state.input_torque - p_out
