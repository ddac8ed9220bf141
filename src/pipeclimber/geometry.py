"""Pipe network centerline: segments, arc-length parameterization, frames.

A network is an ordered chain of straight runs and circular bends, each
continuing tangentially from the previous one.  All lengths are in mm.
A network keeps scalar facts only, each segment's end arc length and
curvature; ``pose_at`` derives 3-D frames on demand.

Every network enters at the origin pointing up (+z).  Bend convention: a
persistent reference normal (unit vector perpendicular to the tangent) is
carried along the chain.  It starts as world-x, passes through straights
unchanged, and after each bend becomes that bend's outward direction at
exit.  ``bend_plane_roll`` rotates the bend's outward direction away from
this reference, right-handed about the local tangent, so roll 0 bends in
the plane of the previous bend.

Inside a bend at entry point p with entry tangent t and outward direction u
(the arc center sits at p - R*u), the pose at angle a into the arc is::

    position(a) = center + R * (u cos a + t sin a)
    tangent(a)  = t cos a - u sin a
    outward(a)  = u cos a + t sin a
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadSegment, EmptyNetwork, OutOfRange, ValidationError, require

@dataclass(frozen=True)
class Straight:
    """Straight run of a given centerline length (mm)."""

    length: float


@dataclass(frozen=True)
class Bend:
    """Circular bend: centerline radius (mm), sweep in (0, 180] degrees,
    and the roll of the bend plane relative to the carried reference."""

    bend_radius: float
    sweep_angle: float
    bend_plane_roll: float = 0.0

    @property
    def arc_length(self) -> float:
        return self.bend_radius * math.radians(self.sweep_angle)


@dataclass(frozen=True)
class CenterlinePose:
    """Local centerline frame at one arc length.

    ``bend_outward`` points from the bend center to the centerline and is
    None on straights; ``curvature`` is 0 there and 1/R inside bends (1/mm).
    Each ``pose_at`` call builds fresh arrays, so a caller may modify them.
    """

    position: np.ndarray
    tangent: np.ndarray
    bend_outward: np.ndarray | None
    curvature: float
    segment_index: int


@dataclass(frozen=True, eq=False)
class PipeNetwork:
    """Immutable pipe network: segments and per-segment scalars, no frames."""

    segments: tuple
    inner_radius: float
    cumulative_lengths: tuple
    # cumulative_lengths as a read-only float64 array, for segment_at's lookups
    segment_ends: np.ndarray = field(repr=False, compare=False)
    # per segment: 0.0 on a straight, 1.0 / bend_radius on a bend (1/mm)
    curvatures: tuple = field(repr=False, compare=False)

    @property
    def total_length(self) -> float:
        return self.cumulative_lengths[-1]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _check_segment(index: int, seg, inner_radius: float) -> None:
    if not isinstance(seg, (Straight, Bend)):
        raise BadSegment(f"unknown segment kind {type(seg).__name__}", index)
    try:
        if isinstance(seg, Straight):
            require(0.0 < seg.length < math.inf, "length", seg.length, "> 0 and finite")
        else:
            require(inner_radius < seg.bend_radius < math.inf, "bend_radius", seg.bend_radius,
                    f"finite and above the pipe inner radius {inner_radius}")
            require(0.0 < seg.sweep_angle <= 180.0, "sweep_angle", seg.sweep_angle, "in (0, 180]")
            require(seg.arc_length > 0.0, "sweep_angle", seg.sweep_angle,
                    f"such that the arc length at radius {seg.bend_radius} mm is > 0")
            require(math.isfinite(seg.bend_plane_roll), "bend_plane_roll", seg.bend_plane_roll,
                    "finite")
    except ValidationError as exc:
        raise BadSegment(exc.reason, index, exc.path) from None


def build_network(segments, inner_radius: float) -> PipeNetwork:
    """Chain segments tangentially into a network.

    Raises EmptyNetwork / BadSegment / ValidationError on bad input, and
    BadSegment where the arc length or the extent (straight lengths plus
    bend diameters) leaves the float range.  Every frame ``pose_at`` derives
    lies within the extent: a bend's centre is R, its exit at most 2R, from
    its entry.
    """
    segments = tuple(segments)
    if not segments:
        raise EmptyNetwork("network needs at least one segment")
    require(0.0 < inner_radius < math.inf, "inner_radius", inner_radius, "> 0 and finite")

    boundaries = []
    s = extent = 0.0
    for index, seg in enumerate(segments):
        _check_segment(index, seg, inner_radius)
        straight = isinstance(seg, Straight)
        s += seg.length if straight else seg.arc_length
        extent += seg.length if straight else 2.0 * seg.bend_radius
        if not (s < math.inf and extent < math.inf):
            field = "length" if straight else "bend_radius"
            raise BadSegment(f"must keep the network within the float range, got "
                             f"{getattr(seg, field)}", index, field)
        boundaries.append(s)

    ends = np.array(boundaries, dtype=np.float64)
    ends.setflags(write=False)
    return PipeNetwork(
        segments=segments,
        inner_radius=inner_radius,
        cumulative_lengths=tuple(boundaries),
        segment_ends=ends,
        curvatures=tuple(1.0 / seg.bend_radius if isinstance(seg, Bend) else 0.0
                         for seg in segments),
    )


def segment_at(network: PipeNetwork, s):
    """Index of the segment holding arc length ``s``; a boundary opens the next one.

    ``s`` is a number, giving an ``int``, or an array, giving an index array.
    """
    index = np.searchsorted(network.segment_ends, s, side="right")
    last = len(network.segments) - 1
    return np.minimum(index, last) if isinstance(s, np.ndarray) else min(int(index), last)


def _bend_entry(bend: Bend, point: np.ndarray, tangent: np.ndarray,
                reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A bend's outward direction at entry and its arc center."""
    roll = math.radians(bend.bend_plane_roll)
    binormal = np.cross(tangent, reference)
    outward = math.cos(roll) * reference + math.sin(roll) * binormal
    return outward, point - bend.bend_radius * outward


def pose_at(network: PipeNetwork, s: float) -> CenterlinePose:
    """Exact analytic centerline pose at arc length ``s`` (mm), chaining
    the entry frames from the network entry to the segment holding ``s``."""
    total = network.total_length
    if not 0.0 <= s <= total:
        raise OutOfRange(f"arc length {s} outside [0, {total}]")
    index = segment_at(network, s)
    point = np.zeros(3)
    tangent = np.array([0.0, 0.0, 1.0])
    reference = np.array([1.0, 0.0, 0.0])
    for seg in network.segments[:index]:
        if isinstance(seg, Straight):
            point = point + seg.length * tangent
            continue
        outward, center = _bend_entry(seg, point, tangent, reference)
        sweep = math.radians(seg.sweep_angle)
        reference = outward * math.cos(sweep) + tangent * math.sin(sweep)  # outward at exit
        tangent = _unit(tangent * math.cos(sweep) - outward * math.sin(sweep))
        point = center + seg.bend_radius * reference

    seg = network.segments[index]
    local = s - (network.cumulative_lengths[index - 1] if index else 0.0)
    if isinstance(seg, Straight):
        position, bend_outward = point + local * tangent, None
    else:
        outward, center = _bend_entry(seg, point, tangent, reference)
        angle = local / seg.bend_radius
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        bend_outward = outward * cos_a + tangent * sin_a
        position = center + seg.bend_radius * bend_outward
        tangent = tangent * cos_a - outward * sin_a
    return CenterlinePose(position, tangent, bend_outward, network.curvatures[index], index)
