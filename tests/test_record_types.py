"""The package's record types: a ``__slots__`` class only where the solve
reads fields per call (``LinearLoad``, ``TransmissionConfig``), a named tuple
everywhere else.  A named tuple is built by position, so each one's fields
are written out here in order: a swapped field fails here even where no
output shows it.
"""

import copy
import dataclasses
import inspect
import pickle
import typing

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


SLOTS = {
    "LinearLoad": ("stiffness", "wheel_radius", "target_speed", "offset"),
    "TransmissionConfig": ("ring_ratio", "output_ratio", "efficiency", "overall_ratio"),
}


def test_the_package_exposes_no_dataclass():
    assert [name for name, obj in vars(pipeclimber).items()
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj)] == []


@pytest.mark.parametrize("name", SLOTS)
def test_the_types_the_solve_reads_per_call_are_slots_classes(name):
    instance = getattr(pipeclimber, name)(1.0)
    assert type(instance).__slots__ == SLOTS[name]
    assert not hasattr(instance, "__dict__")


@pytest.mark.parametrize("name", FIELDS)
def test_named_tuple_annotations_are_types_not_strings(name):
    # A string annotation is compiled into a ForwardRef when the class is made.
    hints = getattr(pipeclimber, name).__annotations__
    assert list(hints) == list(FIELDS[name])
    assert not [hint for hint in hints.values() if isinstance(hint, (str, typing.ForwardRef))]


@pytest.mark.parametrize("instance", [
    pipeclimber.LinearLoad(0.7, 20.0, -3.5, 0.25),
    pipeclimber.TransmissionConfig(1.7, 0.1 + 0.2, 0.9),
], ids=["LinearLoad", "TransmissionConfig"])
@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(instance, round_trip):
    copied = round_trip(instance)
    assert type(copied) is type(instance)
    assert copied == instance
    assert repr(copied) == repr(instance)
    if isinstance(instance, pipeclimber.TransmissionConfig):
        assert copied.overall_ratio.hex() == instance.overall_ratio.hex()


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
