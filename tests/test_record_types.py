"""The package's record types: a dataclass only where the solve reads fields
per call (``LinearLoad``, ``TransmissionConfig``), a named tuple everywhere
else.  A named tuple is built by position, so each one's fields are written
out here in order: a swapped field fails here even where no output shows it.
"""

import dataclasses
import inspect

import pytest

import pipeclimber

FIELDS = {
    "Straight": ("length",),
    "Bend": ("bend_radius", "sweep_angle", "bend_plane_roll"),
    "CenterlinePose": ("position", "tangent", "bend_outward", "curvature", "segment_index"),
    "PipeNetwork": ("segments", "inner_radius", "cumulative_lengths", "curvatures"),
    "RobotParams": ("contact_radius_mm", "sprocket_radius_mm", "orientation_deg",
                    "spring_n_per_m", "preload_mm", "mass_kg", "friction", "length_mm",
                    "springs", "max_compression_mm", "max_asym_deg"),
    "Scenario": ("network", "robot", "transmission", "input_speed_rad_s", "slip_stiffness",
                 "dt_s", "max_time_s", "bend_extra_compression_mm"),
    "SimRecord": ("t", "s", "segment_index", "track_speeds", "required_speeds", "slip",
                  "compressions", "common_torque"),
    "SegmentStats": ("index", "kind", "entry_time", "exit_time", "mean_track_speeds",
                     "analytic_speeds", "ape_percent"),
    "SimSummary": ("segments", "per_track_ape_percent", "max_abs_slip", "max_compression",
                   "finish_time", "final_s", "total_distance_mm"),
    "SweepEntry": ("orientation_deg", "summary", "error"),
    "Piece": ("n", "dt", "s", "ds", "rows"),
    "TorqueBalance": ("output_speeds", "common_torque", "iterations"),
    "TransmissionState": ("input_speed", "input_torque", "ring_speeds", "side_speeds",
                          "output_speeds", "output_torques"),
}

# Each default with its type: ``springs`` is an int.
DEFAULTS = {
    "Bend": {"bend_plane_roll": (0.0, float)},
    "RobotParams": {"springs": (12, int), "max_compression_mm": (16.0, float),
                    "max_asym_deg": (10.0, float)},
    "Scenario": {"bend_extra_compression_mm": (1.5, float)},
    "SweepEntry": {"error": (None, type(None))},
}


def test_only_the_types_the_solve_reads_per_call_are_dataclasses():
    dataclass_names = {name for name, obj in vars(pipeclimber).items()
                       if not name.startswith("_") and inspect.isclass(obj)
                       and dataclasses.is_dataclass(obj)}
    assert dataclass_names == {"LinearLoad", "TransmissionConfig"}


@pytest.mark.parametrize("name", FIELDS)
def test_every_other_record_type_is_a_named_tuple(name):
    cls = getattr(pipeclimber, name)
    assert issubclass(cls, tuple)
    assert cls._fields == FIELDS[name]
    defaults = {field: (value, type(value)) for field, value in cls._field_defaults.items()}
    assert defaults == DEFAULTS.get(name, {})
    record = cls._make(range(len(cls._fields)))
    assert [getattr(record, field) for field in FIELDS[name]] == list(range(len(FIELDS[name])))
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[name][0], -1)
