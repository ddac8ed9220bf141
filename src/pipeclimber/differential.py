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
constraint.  The search takes one of two paths.  When all three loads are
exactly ``LinearLoad``, the mean inverse is affine, so a walk starts at its
closed-form root and steps to the adjacent pair of floats that straddles
the float root, past flat runs to the next float at which a term can
change; the output speeds are the terms it computed at the end it keeps.
Any other load, a ``LinearLoad`` subclass included, and a walk that fails
its checks, take the bracketed search: plain bisection of the whole bracket
through the loads' methods, which keeps the solve robust for any monotone
curve and takes at most MAX_BISECTIONS halvings.  Both end on the same bits.

The package's record types follow one rule: a ``__slots__`` class where the
solve reads fields per call, a named tuple everywhere else.  So
``LinearLoad`` and ``TransmissionConfig`` are plain ``__slots__`` classes:
CPython 3.11 reads their attributes several times faster than a named
tuple's fields.  Both share ``_Frozen``'s methods: immutable (assigning or
deleting an attribute raises AttributeError), equal and hashed by their
fields, and a copy with other fields is a new instance built from them.
Every other record type, ``TorqueBalance``, ``TransmissionState`` and those
of ``geometry``, ``robot`` and ``simulator``, is a named tuple, which is
cheaper to define at import: immutable and hashable, but equal to the plain
tuple of its fields, and a copy with other fields is ``x._replace(...)``.
"""

import math
import struct
from math import inf, nextafter
from typing import NamedTuple

from .errors import InconsistentOutputs, NoBracket, NonMonotoneLoad, require, require_positive

SOLVE_TOL = 1e-10  # guaranteed relative accuracy of a torque-balance mean speed
FLOAT_HALVINGS = 64  # halvings at float midpoints before the bisection halves ordered keys
MAX_BISECTIONS = FLOAT_HALVINGS + 64  # 64 key halvings reach adjacent floats from any bracket
SPAN_FACTOR = 2.0  # growth of the bracket span per widening
MAX_WIDENINGS = 80
WALK_STEPS = 12  # probes of the seeded walk before it falls back to the bracketed search
ULP_STEPS = 3  # at most this many one-ulp probes before the walk steps to the next term change
AVERAGING_TOL = 1e-9  # relative mean-speed mismatch ``internal_state`` accepts


class _Frozen:
    """Methods of an immutable ``__slots__`` class whose fields ``_fields`` names.

    ``repr``, ``==`` and ``hash`` see those fields alone, in order, and ``==``
    holds only between instances of one class.  ``copy``, ``deepcopy`` and
    ``pickle`` rebuild an instance through its constructor from its fields.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class TransmissionConfig(_Frozen):
    """Gear ratios of the three-output differential.

    ring_ratio:   input shaft -> stage-1 ring gears (speed multiplier).
    output_ratio: stage-2 carrier -> output shaft (speed multiplier).
    efficiency:   input->output power efficiency, in (0, 1].

    ``overall_ratio``, ring_ratio * output_ratio, is the speed multiplier from
    the input shaft to the mean of the outputs.  It is set at construction and
    is not a field, so ``repr``, ``==`` and ``hash`` see the three fields only.
    """

    __slots__ = ("ring_ratio", "output_ratio", "efficiency", "overall_ratio")
    _fields = ("ring_ratio", "output_ratio", "efficiency")

    def __init__(self, ring_ratio: float = 1.0, output_ratio: float = 1.0,
                 efficiency: float = 1.0):
        object.__setattr__(self, "ring_ratio", ring_ratio)
        object.__setattr__(self, "output_ratio", output_ratio)
        object.__setattr__(self, "efficiency", efficiency)
        require_positive(self, "ring_ratio", "output_ratio")
        require(0.0 < efficiency <= 1.0, "efficiency", efficiency, "in (0, 1]")
        object.__setattr__(self, "overall_ratio", ring_ratio * output_ratio)


class TransmissionState(NamedTuple):
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


class LinearLoad(_Frozen):
    """Resistive torque growing linearly with output speed (slip law).

    torque(w) = stiffness * (w * wheel_radius - target_speed) + offset

    ``wheel_radius`` converts shaft speed to surface speed, ``target_speed``
    is the surface speed at which the slip term vanishes.  Strictly monotone
    increasing whenever stiffness * wheel_radius > 0, so the inverse is exact;
    ``solve_torque_balance`` rejects any other slope before it inverts.
    """

    __slots__ = _fields = ("stiffness", "wheel_radius", "target_speed", "offset")

    def __init__(self, stiffness: float, wheel_radius: float = 1.0, target_speed: float = 0.0,
                 offset: float = 0.0):
        object.__setattr__(self, "stiffness", stiffness)
        object.__setattr__(self, "wheel_radius", wheel_radius)
        object.__setattr__(self, "target_speed", target_speed)
        object.__setattr__(self, "offset", offset)

    @property
    def slope(self) -> float:
        return self.stiffness * self.wheel_radius

    def torque(self, speed: float) -> float:
        return self.stiffness * (speed * self.wheel_radius - self.target_speed) + self.offset

    def inverse(self, torque: float) -> float:
        return ((torque - self.offset) / self.stiffness + self.target_speed) / self.wheel_radius


class TorqueBalance(NamedTuple):
    """Result of a load-balance solve: output speeds and the shared torque.

    ``iterations`` counts the midpoints that the bracketed search's bisection
    evaluates: 0 when the seeded walk ends the solve, never the residuals of
    the walk or the bracket.
    """

    output_speeds: tuple[float, float, float]
    common_torque: float
    iterations: int


def solve_torque_balance(input_speed: float, loads, config: TransmissionConfig) -> TorqueBalance:
    """Equilibrium of the train against three monotone load curves.

    Finds the torque level tau at which the load-curve inverses average to
    the constrained mean speed, i.e. the root of

        F(tau) = mean_j loads[j].inverse(tau) - overall_ratio * input_speed

    F is strictly increasing, so evaluating each load at the target mean
    speed brackets the root: [lo, hi] = [min_j, max_j] of the torques.  F's
    float values are monotone too, so both search paths below end on the
    same adjacent pair (p, p+) with F(p) < 0 <= F(p+), and the result is
    deterministic, even when the equilibrium torque is tiny.

    When all three loads are exactly ``LinearLoad``, as the simulator's slip
    law makes them, F is affine.  Its residuals, the bracket torques and the
    slope check are computed from the loads' twelve fields (stiffness k,
    wheel_radius r, target_speed g, offset o), read once, in the order of
    ``LinearLoad.inverse``, ``torque`` and ``slope``: the same bits as the
    method calls, without their cost.  The walk starts at F's closed-form
    root

        tau0 = (3 * target - sum_j (g_j - o_j / k_j) / r_j) / sum_j 1 / (k_j r_j)

    clamped to [lo, hi].  It walks from there to the pair: ULP_STEPS probes
    one ulp apart, or fewer if a one-ulp step leaves every track's
    (tau - o) / k + g as it was, then straight to the next float at which
    some track's term rounds to another value, since F cannot change before
    one does.  That float is computed from the fields, and moved on one ulp
    where the term has not changed yet; it is only a candidate, and every
    probe stays in [lo, hi] and strictly between the nearest probes on
    either side of the root.  The pair it finds is the one the bracketed
    search ends on, which keeps the end with the smaller residual; at a zero
    run (F(p+) == 0) that is p+ only when F(hi) > 0, so that one residual is
    evaluated too, and F(lo) < 0 follows from lo <= p.  The walk runs only
    where hi - lo and every midpoint sum of the bracket are finite and
    sum_j 1 / (k_j r_j) is not 0, and hands over to the bracketed search
    after WALK_STEPS probes, at a bracket end or at a NaN.  Each probe's
    three inverses are its output speeds, and F is their mean minus the
    target, so when the walk ends the solve the speeds and the residual
    checked against SOLVE_TOL are those of the probe it keeps, computed once.

    Any other load, a ``LinearLoad`` subclass included, and a walk that did
    not end, take the bracketed search through the loads' ``torque`` and
    ``inverse`` methods: it widens the bracket if a curve's torque and
    inverse disagree, then bisects the whole bracket to adjacent floats (at
    most MAX_BISECTIONS halvings: at float midpoints, then at midpoints of
    the doubles' order) and keeps the end with the smaller residual.  Where
    the walk keeps a zero of the other sign, or the bracketed search ends
    the solve, the loads' ``inverse`` methods give the output speeds at the
    torque kept.  SOLVE_TOL (relative on the mean-speed residual) is the
    guaranteed accuracy; the solve is verified against it and far exceeds
    it in practice.

    Raises NonMonotoneLoad for a non-increasing curve and NoBracket if the
    bracket cannot be established within MAX_WIDENINGS widenings, each
    SPAN_FACTOR times the last (only possible for inconsistent
    torque/inverse implementations).
    """
    if len(loads) != 3:
        raise ValueError(f"expected 3 load curves, got {len(loads)}")
    load0, load1, load2 = loads
    linear = type(load0) is LinearLoad and type(load1) is LinearLoad and type(load2) is LinearLoad
    if linear:
        k0, r0, g0, o0 = load0.stiffness, load0.wheel_radius, load0.target_speed, load0.offset
        k1, r1, g1, o1 = load1.stiffness, load1.wheel_radius, load1.target_speed, load1.offset
        k2, r2, g2, o2 = load2.stiffness, load2.wheel_radius, load2.target_speed, load2.offset
        monotone = k0 * r0 > 0.0 and k1 * r1 > 0.0 and k2 * r2 > 0.0
    else:
        monotone = all(getattr(load, "slope", 1.0) > 0.0 for load in loads)
    if not monotone:  # NaN fails too
        load = next(load for load in loads if not getattr(load, "slope", 1.0) > 0.0)
        raise NonMonotoneLoad(f"load {load!r} is not strictly increasing")

    # Each residual adds from 0.0 in order, as Python 3.11's float ``sum`` does: from 3.12 on
    # ``sum`` compensates its rounding, and the bits would follow the version.
    target = config.overall_ratio * input_speed
    if linear:
        t0 = k0 * (target * r0 - g0) + o0
        t1 = k1 * (target * r1 - g1) + o1
        t2 = k2 * (target * r2 - g2) + o2
    else:
        t0, t1, t2 = load0.torque(target), load1.torque(target), load2.torque(target)
    # min() and max() of the three, as those builtins pick them (NaN included), without
    # their call.
    lo = t1 if t1 < t0 else t0
    lo = t2 if t2 < lo else lo
    hi = t1 if t1 > t0 else t0
    hi = t2 if t2 > hi else hi

    tau = speeds = None
    if linear and lo < hi and -inf < lo + lo and hi + hi < inf:
        gain = 1.0 / (k0 * r0) + 1.0 / (k1 * r1) + 1.0 / (k2 * r2)
        if gain != 0.0:
            x = (3.0 * target - ((g0 - o0 / k0) / r0 + (g1 - o1 / k1) / r1
                                 + (g2 - o2 / k2) / r2)) / gain
            if not lo <= x <= hi:  # NaN starts at hi
                x = lo if x < lo else hi
            p = q = None  # the nearest probes with F < 0 and with F >= 0
            c0 = c1 = c2 = math.nan  # each track's (tau - o) / k + g at the last probe
            for step in range(WALK_STEPS):
                prev0, prev1, prev2 = c0, c1, c2
                c0 = (x - o0) / k0 + g0
                c1 = (x - o1) / k1 + g1
                c2 = (x - o2) / k2 + g2
                w0, w1, w2 = c0 / r0, c1 / r1, c2 / r2  # the probe's output speeds
                f = (0.0 + w0 + w1 + w2) / 3.0 - target
                if f < 0.0:
                    p, f_p, d = x, f, inf
                    p0, p1, p2 = w0, w1, w2
                    end = hi if q is None else nextafter(q, -inf)  # the last float left to probe
                elif f >= 0.0:
                    q, f_q, d = x, f, -inf
                    q0, q1, q2 = w0, w1, w2
                    end = lo if p is None else nextafter(p, inf)
                else:
                    break
                if x == end:
                    if p is None or q is None:
                        break
                    if f_q > 0.0:
                        tau = p if abs(f_p) < abs(f_q) else q
                    # F(hi) from the fields: about half of the C1 solves end on a zero run.
                    elif q != hi and (0.0 + ((hi - o0) / k0 + g0) / r0 + ((hi - o1) / k1 + g1) / r1
                                      + ((hi - o2) / k2 + g2) / r2) / 3.0 - target > 0.0:
                        tau = q
                    if tau == 0.0:  # the bracketed search gives -0.0 only as a bracket end
                        tau = lo if lo == 0.0 else hi if hi == 0.0 else 0.0
                    elif tau is not None:  # that probe's speeds and F are the result's
                        if tau == p:
                            speeds, mean_residual = (p0, p1, p2), f_p
                        else:
                            speeds, mean_residual = (q0, q1, q2), f_q
                    break
                y = nextafter(x, d)
                # Past the one-ulp probes, or once a one-ulp step left every term as it was,
                # step to the next float at which a term can change.
                if step >= ULP_STEPS or (c0 == prev0 and c1 == prev1 and c2 == prev2):
                    # Track j's term changes where (tau - o) / k + g passes the midpoint c'
                    # between its value c and the next float in its direction, the sign of
                    # d * k: near tau = ((c - g) + (c' - c) / 2) * k + o, one ulp later at a
                    # tie that rounds back to c.
                    n0 = ((c0 - g0) + (nextafter(c0, d if k0 > 0.0 else -d) - c0) * 0.5) * k0 + o0
                    if (n0 - o0) / k0 + g0 == c0:
                        n0 = nextafter(n0, d)
                    n1 = ((c1 - g1) + (nextafter(c1, d if k1 > 0.0 else -d) - c1) * 0.5) * k1 + o1
                    if (n1 - o1) / k1 + g1 == c1:
                        n1 = nextafter(n1, d)
                    n2 = ((c2 - g2) + (nextafter(c2, d if k2 > 0.0 else -d) - c2) * 0.5) * k2 + o2
                    if (n2 - o2) / k2 + g2 == c2:
                        n2 = nextafter(n2, d)
                    if d > 0.0:  # the nearest change beyond y, up to the end; NaN keeps y
                        n = n0 if n0 < n1 else n1
                        n = n if n < n2 else n2
                        if n > y:
                            y = n if n < end else end
                    else:
                        n = n0 if n0 > n1 else n1
                        n = n if n > n2 else n2
                        if n < y:
                            y = n if n > end else end
                x = y

    iterations = 0
    if tau is None:
        tau, iterations = _bracketed_root(_mean_inverse(loads, target), lo, hi)
    if speeds is None:
        w0, w1, w2 = load0.inverse(tau), load1.inverse(tau), load2.inverse(tau)
        speeds = (w0, w1, w2)
        mean_residual = (0.0 + w0 + w1 + w2) / 3.0 - target
    scale = abs(target) if abs(target) > 1.0 else 1.0  # max(1.0, |target|), without the call
    if not abs(mean_residual) <= SOLVE_TOL * scale:  # NaN fails too
        raise NoBracket(f"bisection stalled with mean-speed residual {mean_residual}")
    # The named tuple's own __new__ is a Python-level call around this one.
    return tuple.__new__(TorqueBalance, (speeds, tau, iterations))


def _mean_inverse(loads, target: float):
    """F(tau) = mean of the loads' inverses at tau, minus ``target``, through their methods.

    The inverses are bound as defaults: they are read as fast locals, and no
    call makes a cell for them."""
    load0, load1, load2 = loads

    def residual(tau: float, inv0=load0.inverse, inv1=load1.inverse, inv2=load2.inverse,
                 target=target) -> float:
        return (0.0 + inv0(tau) + inv1(tau) + inv2(tau)) / 3.0 - target

    return residual


_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _key(x: float) -> int:
    """The place of ``x`` in the order of the doubles, from -(2**63 - 2**52) at -inf to
    2**63 - 2**52 at +inf, one per double: -0.0 and +0.0 share key 0."""
    bits = _INT64.unpack(_DOUBLE.pack(x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _double(key: int) -> float:
    """The double at ``key``, the inverse of ``_key``: key 0 is +0.0."""
    x = _DOUBLE.unpack(_INT64.pack(abs(key)))[0]
    return -x if key < 0 else x


def _bracketed_root(residual, lo: float, hi: float) -> tuple[float, int]:
    """The torque ``solve_torque_balance`` keeps and the midpoints it evaluated, from [lo, hi].

    After the widening, bisection halves the whole bracket at the float midpoint for
    FLOAT_HALVINGS halvings, and after that, or where the float midpoint is not finite,
    at the floor of the mean of the ends' keys.  No halving adds keys to the bracket,
    and a key halving leaves at most ceil(n / 2) of n steps between the ends' keys.
    Any bracket spans fewer than 2**64 steps, so the 64 key halvings among the
    MAX_BISECTIONS leave adjacent floats.  F's float values are monotone, so every
    midpoint rule ends on the same adjacent pair.
    """
    f_lo = residual(lo)
    f_hi = f_lo if hi == lo else residual(hi)  # a point bracket costs one residual

    # The [min, max] torque bracket is valid for exact monotone curves; grow
    # it geometrically if a user-supplied curve disagrees with its inverse.
    if f_lo > 0.0 or f_hi < 0.0:
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

    if lo == hi or f_lo == 0.0:
        return lo, 0
    if f_hi == 0.0:
        return hi, 0
    iterations = 0  # midpoints evaluated
    while iterations < MAX_BISECTIONS:
        mid = 0.5 * (lo + hi)
        if iterations >= FLOAT_HALVINGS or not -inf < mid < inf:
            mid = _double((_key(lo) + _key(hi)) // 2)  # the floor: toward lo
        if mid == lo or mid == hi:  # bracket at float resolution
            break
        iterations += 1
        f_mid = residual(mid)
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    # Adjacent endpoints remain; keep the one with the smaller residual.
    return (lo if abs(f_lo) < abs(f_hi) else hi), iterations


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
    if len(output_speeds) != 3:
        raise ValueError(f"expected 3 output speeds, got {len(output_speeds)}")
    w0, w1, w2 = output_speeds
    target = config.overall_ratio * input_speed
    mean = (w0 + w1 + w2) / 3.0
    scale = abs(target) if abs(target) > 1.0 else 1.0  # max(1.0, |target|), without the call
    if not abs(mean - target) <= AVERAGING_TOL * scale:  # NaN fails too
        raise InconsistentOutputs(f"mean output speed {mean} != {target} required by the "
                                  "averaging law")

    ring = config.ring_ratio * input_speed
    output_ratio = config.output_ratio
    c0 = 2.0 * w0 / output_ratio - 2.0 * ring
    c1 = 2.0 * w1 / output_ratio - 2.0 * ring
    x0 = (2.0 * c0 + c1) / 3.0
    x1, x2 = x0 - c0, x0 - c0 - c1
    return (ring - x0, ring + x0, ring - x1, ring + x1, ring - x2, ring + x2)


def balance_state(input_speed: float, loads, config: TransmissionConfig) -> TransmissionState:
    """Full consistent train state at the load-balance equilibrium."""
    # Both calls go through the module globals, where a tracer may wrap them.
    speeds, tau, _ = solve_torque_balance(input_speed, loads, config)
    ring = config.ring_ratio * input_speed
    # The named tuple's own __new__ is a Python-level call around this one.
    return tuple.__new__(TransmissionState, (
        input_speed, input_torque_for(tau, config), (ring, ring, ring),
        internal_state(speeds, input_speed, config), speeds, (tau, tau, tau)))


def power_balance(state: TransmissionState, config: TransmissionConfig) -> float:
    """Power conservation residual, zero for the ideal train.

    residual = efficiency * input_speed * input_torque
               - sum_j output_speed_j * output_torque_j
    """
    p_out = sum(w * t for w, t in zip(state.output_speeds, state.output_torques))
    return config.efficiency * state.input_speed * state.input_torque - p_out
