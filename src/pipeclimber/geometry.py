"""Pipe network centerline: segments, arc-length parameterization, frames.

A network is an ordered chain of straight runs and circular bends, each
continuing tangentially from the previous one.  All lengths are in mm.

Bend convention: a persistent reference normal (unit vector perpendicular to
the tangent) is carried along the chain.  It starts as world-up projected
off the initial tangent (world-x when the pipe starts vertical), passes
through straights unchanged, and after each bend becomes that bend's
outward direction at exit.  ``bend_plane_roll`` rotates the bend's outward
direction away from this reference, right-handed about the local tangent,
so roll 0 bends in the plane of the previous bend.

Inside a bend at entry point p with entry tangent t and outward direction u
(the arc center sits at p - R*u), the pose at angle a into the arc is::

    position(a) = center + R * (u cos a + t sin a)
    tangent(a)  = t cos a - u sin a
    outward(a)  = u cos a + t sin a
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import BadSegment, EmptyNetwork, OutOfRange, ValidationError, require

_WORLD_UP = np.array([0.0, 0.0, 1.0])
_WORLD_X = np.array([1.0, 0.0, 0.0])


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
    """

    position: np.ndarray
    tangent: np.ndarray
    bend_outward: np.ndarray | None
    curvature: float
    segment_index: int


@dataclass(frozen=True)
class _Placement:
    """Precomputed entry frame of one segment along the chain."""

    segment: Straight | Bend
    s_start: float
    s_end: float
    entry_point: np.ndarray
    entry_tangent: np.ndarray
    outward: np.ndarray | None  # bend outward direction at entry
    center: np.ndarray | None  # bend arc center


@dataclass(frozen=True, eq=False)
class PipeNetwork:
    """Immutable pipe network with an arc-length parameterized centerline."""

    segments: tuple
    inner_radius: float
    cumulative_lengths: tuple
    placements: tuple = field(repr=False)

    @property
    def total_length(self) -> float:
        return self.cumulative_lengths[-1]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _perpendicular_reference(tangent: np.ndarray) -> np.ndarray:
    """World-up projected off the tangent, or world-x when degenerate."""
    for candidate in (_WORLD_UP, _WORLD_X):
        proj = candidate - np.dot(candidate, tangent) * tangent
        norm = np.linalg.norm(proj)
        if norm > 1e-9:
            return proj / norm
    raise AssertionError("no perpendicular reference found")  # unreachable


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
            require(math.isfinite(seg.bend_plane_roll), "bend_plane_roll", seg.bend_plane_roll,
                    "finite")
    except ValidationError as exc:
        raise BadSegment(exc.reason, index, exc.path) from None


def build_network(
    segments,
    inner_radius: float,
    start_point=(0.0, 0.0, 0.0),
    start_tangent=(0.0, 0.0, 1.0),
) -> PipeNetwork:
    """Chain segments tangentially from the start pose into a network.

    Defaults put the entry at the origin pointing up (+z), matching a
    vertical first run.  Raises EmptyNetwork / BadSegment / ValidationError on
    bad input.
    """
    segments = tuple(segments)
    if not segments:
        raise EmptyNetwork("network needs at least one segment")
    require(0.0 < inner_radius < math.inf, "inner_radius", inner_radius, "> 0 and finite")

    point = np.asarray(start_point, dtype=float)
    tangent = _unit(np.asarray(start_tangent, dtype=float))
    reference = _perpendicular_reference(tangent)

    placements = []
    boundaries = []
    s = 0.0
    for index, seg in enumerate(segments):
        _check_segment(index, seg, inner_radius)
        if isinstance(seg, Straight):
            placements.append(
                _Placement(seg, s, s + seg.length, point, tangent, None, None)
            )
            point = point + seg.length * tangent
            s += seg.length
        else:
            roll = math.radians(seg.bend_plane_roll)
            binormal = np.cross(tangent, reference)
            outward = math.cos(roll) * reference + math.sin(roll) * binormal
            center = point - seg.bend_radius * outward
            placements.append(
                _Placement(seg, s, s + seg.arc_length, point, tangent, outward, center)
            )
            sweep = math.radians(seg.sweep_angle)
            exit_outward = outward * math.cos(sweep) + tangent * math.sin(sweep)
            tangent = _unit(tangent * math.cos(sweep) - outward * math.sin(sweep))
            point = center + seg.bend_radius * exit_outward
            reference = exit_outward
            s += seg.arc_length
        boundaries.append(s)

    return PipeNetwork(
        segments=segments,
        inner_radius=inner_radius,
        cumulative_lengths=tuple(boundaries),
        placements=tuple(placements),
    )


def pose_at(network: PipeNetwork, s: float) -> CenterlinePose:
    """Exact analytic centerline pose at arc length ``s`` (mm)."""
    total = network.total_length
    if not 0.0 <= s <= total:
        raise OutOfRange(f"arc length {s} outside [0, {total}]")
    index = min(bisect_right(network.cumulative_lengths, s), len(network.segments) - 1)
    placement = network.placements[index]
    seg = placement.segment
    local = s - placement.s_start

    if isinstance(seg, Straight):
        return CenterlinePose(
            position=placement.entry_point + local * placement.entry_tangent,
            tangent=placement.entry_tangent,
            bend_outward=None,
            curvature=0.0,
            segment_index=index,
        )

    angle = local / seg.bend_radius
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    outward = placement.outward * cos_a + placement.entry_tangent * sin_a
    return CenterlinePose(
        position=placement.center + seg.bend_radius * outward,
        tangent=placement.entry_tangent * cos_a - placement.outward * sin_a,
        bend_outward=outward,
        curvature=1.0 / seg.bend_radius,
        segment_index=index,
    )
