"""Scenario files in, time series and summaries out.

Scenario files are JSON with four sections (pipe, robot, transmission, sim).
Every physical quantity carries its unit in the key name; values are
converted exactly once, here, at the boundary, where ``SCHEMA`` maps each
key to the dataclass field it fills.  Range rules live in the dataclass
validators.  Unknown keys are rejected and all validation errors, the
validators' included, name the offending key path.

Record output is CSV (fixed column order, 9 significant digits), written
from the columns of a ``Records`` table, or JSON (same field names).
"""

from __future__ import annotations

import json
import math
import sys

from .differential import TransmissionConfig
from .dimensions import pipe_inner_radius
from .errors import BadSegment, IoError, ParseError, SimulationError, ValidationError
from .geometry import Bend, Straight, build_network
from .robot import RobotParams
from .simulator import Records, Scenario, SimRecord

CSV_COLUMNS = (
    "t_s",
    "s_mm",
    "segment",
    "vA_mm_s",
    "vB_mm_s",
    "vC_mm_s",
    "vreqA_mm_s",
    "vreqB_mm_s",
    "vreqC_mm_s",
    "slipA_mm_s",
    "slipB_mm_s",
    "slipC_mm_s",
    "xA_mm",
    "xB_mm",
    "xC_mm",
    "torque_nm",
)

# (JSON key, dataclass field, required) per section, in canonical document
# order.  Absent optional keys take the dataclass default.
SCHEMA = {
    "robot": (
        ("h_mm", "contact_radius_mm", True),
        ("sprocket_radius_mm", "sprocket_radius_mm", True),
        ("orientation_deg", "orientation_deg", True),
        ("spring_k_n_per_m", "spring_n_per_m", True),
        ("preload_mm", "preload_mm", True),
        ("max_compression_mm", "max_compression_mm", False),
        ("springs", "springs", False),
        ("mass_kg", "mass_kg", True),
        ("mu", "friction", True),
        ("robot_length_mm", "length_mm", True),
        ("max_asym_deg", "max_asym_deg", False),
    ),
    "transmission": (
        ("g1", "ring_ratio", True),
        ("g2", "output_ratio", True),
        ("efficiency", "efficiency", False),
    ),
    "sim": (
        ("input_speed_rad_s", "input_speed_rad_s", True),
        ("slip_stiffness", "slip_stiffness", True),
        ("dt_s", "dt_s", True),
        ("max_time_s", "max_time_s", True),
        ("bend_extra_compression_mm", "bend_extra_compression_mm", False),
    ),
    "straight": (("length_mm", "length", True),),
    "bend": (
        ("bend_radius_mm", "bend_radius", True),
        ("sweep_deg", "sweep_angle", True),
        ("roll_deg", "bend_plane_roll", False),
    ),
}

# Validators name the dataclass field at fault.  Field names are unique
# across sections, so one map takes each back to its key path.
_PATHS = {"inner_radius": "pipe.inner_radius_mm"} | {
    field: f"{section}.{key}" for section in ("robot", "transmission", "sim")
    for key, field, _ in SCHEMA[section]
}
_SEGMENT_KEYS = {field: key for kind in ("straight", "bend") for key, field, _ in SCHEMA[kind]}


def _mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"expected an object, got {type(obj).__name__}", path)
    return obj


def _check_keys(obj, path: str, known, required) -> dict:
    prefix = f"{path}." if path else ""
    for key in _mapping(obj, path):
        if key not in known:
            raise ValidationError("unknown key", prefix + key)
    for key in required:
        if key not in obj:
            raise ValidationError("missing required key", prefix + key)
    return obj


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"expected a number, got {type(value).__name__}", path)
    # The first test catches integer literals beyond the float range too.
    if abs(value) > sys.float_info.max or not math.isfinite(value):
        raise ValidationError("expected a finite number", path)
    return float(value)


def _fields(obj, path: str, section: str, extra=()) -> dict:
    """Check keys against a SCHEMA section (``extra`` keys pass) and read its numbers."""
    rows = SCHEMA[section]
    known = {key for key, _, _ in rows} | set(extra)
    obj = _check_keys(obj, path, known, [key for key, _, required in rows if required])
    return {field: _number(obj[key], f"{path}.{key}") for key, field, _ in rows if key in obj}


def _segments_from(items, contact_radius: float) -> list:
    if not isinstance(items, list) or not items:
        raise ValidationError("expected a non-empty array of segments", "pipe.segments")
    segments = []
    for i, item in enumerate(items):
        path = f"pipe.segments[{i}]"
        kind = _mapping(item, path).get("kind")
        if kind not in ("straight", "bend"):
            raise ValidationError(
                f"kind must be 'straight' or 'bend', got {kind!r}", f"{path}.kind"
            )
        fields = _fields(item, path, kind, extra={"kind"})
        if kind == "bend" and fields["bend_radius"] <= contact_radius:
            raise ValidationError(
                f"degenerate bend: radius {fields['bend_radius']} mm does not exceed the "
                f"robot contact radius {contact_radius} mm",
                f"{path}.bend_radius_mm",
            )
        segments.append(Bend(**fields) if kind == "bend" else Straight(**fields))
    return segments


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a parsed scenario document and build the Scenario."""
    sections = ("pipe", "robot", "transmission", "sim")
    root = _check_keys(data, "", sections, sections)
    robot = _fields(root["robot"], "robot", "robot")
    if "springs" in robot:
        if robot["springs"] != int(robot["springs"]):
            raise ValidationError(f"must be an integer, got {robot['springs']}", "robot.springs")
        robot["springs"] = int(robot["springs"])
    transmission = _fields(root["transmission"], "transmission", "transmission")
    sim = _fields(root["sim"], "sim", "sim")

    pipe_keys = ("segments", "inner_radius_mm", "nps", "schedule")
    pipe = _check_keys(root["pipe"], "pipe", pipe_keys, ("segments",))
    if "inner_radius_mm" in pipe:
        if "nps" in pipe or "schedule" in pipe:
            raise ValidationError("give either inner_radius_mm or nps+schedule, not both", "pipe")
        inner_radius = _number(pipe["inner_radius_mm"], "pipe.inner_radius_mm")
    elif "nps" in pipe and "schedule" in pipe:
        inner_radius = pipe_inner_radius(pipe["nps"], pipe["schedule"])
    else:
        raise ValidationError("needs inner_radius_mm or both nps and schedule", "pipe")
    segments = _segments_from(pipe["segments"], robot["contact_radius_mm"])

    try:
        scenario = Scenario(
            network=build_network(segments, inner_radius),
            robot=RobotParams(**robot),
            transmission=TransmissionConfig(**transmission),
            **sim,
        )
        scenario.validate()  # CompressionLimit when the preload alone is over budget
    except BadSegment as exc:
        path = f"pipe.segments[{exc.index}].{_SEGMENT_KEYS[exc.field]}"
        raise ValidationError(exc.reason, path) from None
    except ValidationError as exc:
        raise ValidationError(exc.reason, _PATHS[exc.path]) from None
    return scenario


def parse_scenario(path) -> Scenario:
    """Load and fully validate a scenario file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read scenario {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed scenario {path}: {exc.msg}", line=exc.lineno) from exc
    return scenario_from_dict(data)


def _section_doc(obj, section: str) -> dict:
    return {key: getattr(obj, field) for key, field, _ in SCHEMA[section]}


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical document for a Scenario; parsing it back is an identity."""
    segments = []
    for seg in scenario.network.segments:
        kind = "bend" if isinstance(seg, Bend) else "straight"
        segments.append({"kind": kind, **_section_doc(seg, kind)})
    return {
        "pipe": {"inner_radius_mm": scenario.network.inner_radius, "segments": segments},
        "robot": _section_doc(scenario.robot, "robot"),
        "transmission": _section_doc(scenario.transmission, "transmission"),
        "sim": _section_doc(scenario, "sim"),
    }


def write_json(payload, path, indent: int) -> None:
    """Write ``payload`` as indented JSON plus a newline; OSError becomes IoError.

    A non-finite number raises SimulationError before the file is opened:
    standard JSON cannot hold it, and only a run's results can carry one.
    """
    try:
        text = json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise SimulationError(f"cannot write {path}: {exc}") from None
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def save_scenario(scenario: Scenario, path) -> None:
    write_json(scenario_to_dict(scenario), path, indent=2)


def _constants(record: SimRecord) -> list:
    """Every field but ``t`` and ``s``, in column order."""
    return [
        record.segment_index,
        *record.track_speeds,
        *record.required_speeds,
        *record.slip,
        *record.compressions,
        record.common_torque,
    ]


def _row(record: SimRecord) -> list:
    return [record.t, record.s, *_constants(record)]


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(value, ".9g")


_CHUNK_ROWS = 4096  # rows whose t and s are Python floats at a time


def _write_csv(records: Records, handle) -> None:
    handle.write(",".join(CSV_COLUMNS) + "\n")
    for record, t, s in records.runs():
        tail = "".join("," + _fmt(v) for v in _constants(record)) + "\n"
        for start in range(0, len(t), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            ts, ss = t[start:stop].tolist(), s[start:stop].tolist()
            handle.writelines(f"{t_row:.9g},{s_row:.9g}{tail}" for t_row, s_row in zip(ts, ss))


def emit_records(records: Records, fmt: str, path) -> None:
    """Write a ``Records`` table to ``path`` as CSV or JSON; OSError becomes
    IoError.

    CSV formats the constant fields of each centre segment's run once and
    streams the rows to the file without the whole text ever in memory.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            if fmt == "csv":
                _write_csv(records, handle)
            else:
                rows = [dict(zip(CSV_COLUMNS, _row(record))) for record in records]
                json.dump(rows, handle, indent=1)
                handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write records to {path}: {exc}") from exc


def summary_to_dict(summary) -> dict:
    """Plain-dict view of a SimSummary for JSON output: ``dataclasses.asdict``'s
    value, without its deep copy of every field."""
    return dict(vars(summary), segments=tuple(dict(vars(seg)) for seg in summary.segments))
