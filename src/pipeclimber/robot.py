"""Three-module climbing robot: bend kinematics, wall-press springs, traction.

The robot carries three track modules spaced 120 degrees around its axis,
pressed against the pipe wall by preloaded linear springs.  Module angles
are measured from the bend's outward direction, so a module at angle 0 rides
the outside of the bend.  Each bend uses its own outward direction, so a
bend's ``bend_plane_roll`` moves the centerline in space but leaves every
module angle, and hence every record and summary, unchanged.  Per-track
quantities are tuples of three floats, ordered (A, B, C) for modules at
orientation, orientation+120, orientation+240 degrees.

Inside a bend of centerline radius R, the contact path of the module at
angle q turns about the bend axis at radius R + h*cos(q) (h = contact
radius), so matching a centerline speed v requires track speed
v * (R + h*cos(q)) / R.  The three cosines cancel, keeping the mean track
speed equal to v for every orientation.

Traction and climbing-effort formulas (n springs total, k in N/m, x in m):

    traction          f  = n * mu * k * x
    tractive effort   TE = m * g - n * mu * k * x
    sprocket torque   tau = TE * r_sprocket

TE as written is weight minus the friction-coupled spring force; it goes
negative for strong springs, so both f and TE are exposed and reported
rather than interpreted.

The formulas return numbers; ``simulator`` alone compares them with the limits.
"""

import math
from typing import NamedTuple

from .errors import CompressionLimit, require, require_positive

GRAVITY = 9.81  # m/s^2

DEFAULT_MAX_COMPRESSION_MM = 16.0
DEFAULT_SPRINGS = 12  # 4 linkages x 3 modules
DEFAULT_MAX_ASYMMETRY_DEG = 10.0


class RobotParams(NamedTuple):
    """Geometry, spring, and traction parameters of the climbing robot.

    contact_radius_mm:  radial distance from robot axis to track contact line.
    sprocket_radius_mm: drive sprocket radius (track speed = shaft speed * r).
    orientation_deg:    roll of module A measured from the bend outward
                        direction.
    spring_n_per_m:     stiffness of one wall-press spring.
    springs:            total spring count entering the traction formulas.
    preload_mm:         compression of every spring in straight pipe.
    length_mm:          body length, used for travelled-distance bookkeeping
                        and the uneven-compression tilt check.
    """

    contact_radius_mm: float
    sprocket_radius_mm: float
    orientation_deg: float
    spring_n_per_m: float
    preload_mm: float
    mass_kg: float
    friction: float
    length_mm: float
    springs: int = DEFAULT_SPRINGS
    max_compression_mm: float = DEFAULT_MAX_COMPRESSION_MM
    max_asym_deg: float = DEFAULT_MAX_ASYMMETRY_DEG

    def validate(self) -> None:
        """Raise ValidationError naming the field at fault; CompressionLimit
        when the preload alone already exceeds the compression budget."""
        require_positive(self, "contact_radius_mm", "sprocket_radius_mm", "spring_n_per_m",
                         "springs", "mass_kg", "length_mm", "max_compression_mm", "max_asym_deg")
        require(math.isfinite(self.orientation_deg), "orientation_deg", self.orientation_deg,
                "finite")
        require(0.0 < self.friction < 2.0, "friction", self.friction, "in (0, 2)")
        require(0.0 <= self.preload_mm < math.inf, "preload_mm", self.preload_mm, ">= 0 and finite")
        if self.preload_mm > self.max_compression_mm:
            raise CompressionLimit(
                f"preload {self.preload_mm} mm exceeds the "
                f"{self.max_compression_mm} mm compression limit"
            )

    @property
    def module_angles_deg(self) -> tuple[float, float, float]:
        return (
            self.orientation_deg,
            self.orientation_deg + 120.0,
            self.orientation_deg + 240.0,
        )


def track_path_radius(bend_radius: float, contact_radius: float, module_angle_deg: float) -> float:
    """Turning radius of one track's contact path about the bend axis (mm)."""
    return bend_radius + contact_radius * math.cos(math.radians(module_angle_deg))


def required_track_speeds(
    curvature: float, center_speed: float, params: RobotParams
) -> tuple[float, float, float]:
    """Track surface speeds that follow the local geometry without slip.

    All equal to the centerline speed on straights (``curvature`` 0); scaled
    by each track's path radius over the bend radius 1/``curvature`` inside
    bends.  Their mean is the centerline speed in both cases.
    """
    if curvature == 0.0:
        return (float(center_speed),) * 3
    bend_radius, h = 1.0 / curvature, params.contact_radius_mm
    return tuple(center_speed * track_path_radius(bend_radius, h, angle) / bend_radius
                 for angle in params.module_angles_deg)


def spring_compression(curvature: float, params: RobotParams,
                       bend_extra_mm: float) -> tuple[float, float, float]:
    """Per-module spring compression (mm) where the centerline has ``curvature``.

    Straights (``curvature`` 0) sit at the preload.  In bends the modules
    nearest the bend plane take extra compression, scaled by |cos| of the
    module angle so the in-plane modules gain the full ``bend_extra_mm``.
    """
    if curvature == 0.0:
        return (float(params.preload_mm),) * 3
    return tuple(params.preload_mm + bend_extra_mm * abs(math.cos(math.radians(q)))
                 for q in params.module_angles_deg)


def asymmetry_deg(front_compressions: tuple, rear_compressions: tuple,
                  params: RobotParams) -> tuple[float, float, float]:
    """Per-module tilt (degrees) from uneven front/rear compression: the
    front-to-rear compression difference taken over the body length."""
    return tuple(math.degrees(math.atan2(abs(front - rear), params.length_mm))
                 for front, rear in zip(front_compressions, rear_compressions))


def traction_force(params: RobotParams, compression_mm: float | None = None) -> float:
    """Wall traction (N) from the friction-coupled spring force."""
    x = (params.preload_mm if compression_mm is None else compression_mm) / 1000.0
    return params.springs * params.friction * params.spring_n_per_m * x


def tractive_effort_and_torque(
    params: RobotParams, compression_mm: float | None = None
) -> tuple[float, float]:
    """(tractive effort N, sprocket torque N*m) for vertical climbing."""
    effort = params.mass_kg * GRAVITY - traction_force(params, compression_mm)
    return effort, effort * (params.sprocket_radius_mm / 1000.0)
