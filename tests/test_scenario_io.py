import io
import json
import math
from pathlib import Path

import pytest

from pipeclimber import (
    CSV_COLUMNS,
    CompressionLimit,
    IoError,
    ParseError,
    ValidationError,
    emit_records,
    parse_scenario,
    run,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from pipeclimber.scenario_io import SCHEMA
from conftest import make_four_section_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def minimal_doc():
    return {
        "pipe": {
            "inner_radius_mm": 77.0,
            "segments": [{"kind": "straight", "length_mm": 500}],
        },
        "robot": {
            "h_mm": 50,
            "sprocket_radius_mm": 20,
            "orientation_deg": 0,
            "spring_k_n_per_m": 1000,
            "preload_mm": 8,
            "mass_kg": 3,
            "mu": 0.4,
            "robot_length_mm": 200,
        },
        "transmission": {"g1": 1.0, "g2": 1.0},
        "sim": {
            "input_speed_rad_s": 2.5,
            "slip_stiffness": 1.0,
            "dt_s": 0.01,
            "max_time_s": 60,
        },
    }


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# --- parsing ---------------------------------------------------------------------

def test_minimal_scenario_parses(tmp_path):
    scenario = parse_scenario(write_doc(tmp_path, minimal_doc()))
    assert len(scenario.network.segments) == 1
    assert scenario.network.total_length == 500.0
    assert scenario.robot.springs == 12  # default
    assert scenario.transmission.efficiency == 1.0  # default
    assert scenario.bend_extra_compression_mm == 1.5  # default
    scenario.validate()


def test_nps_lookup_sets_the_bore(tmp_path):
    doc = minimal_doc()
    del doc["pipe"]["inner_radius_mm"]
    doc["pipe"]["nps"] = "6"
    doc["pipe"]["schedule"] = "40"
    scenario = parse_scenario(write_doc(tmp_path, doc))
    assert scenario.network.inner_radius == pytest.approx(77.03, abs=0.01)


def test_missing_friction_names_the_key(tmp_path):
    doc = minimal_doc()
    del doc["robot"]["mu"]
    with pytest.raises(ValidationError, match="robot.mu"):
        parse_scenario(write_doc(tmp_path, doc))


def test_unknown_keys_rejected(tmp_path):
    doc = minimal_doc()
    doc["robot"]["colour"] = "red"
    with pytest.raises(ValidationError, match="robot.colour"):
        parse_scenario(write_doc(tmp_path, doc))
    doc = minimal_doc()
    doc["extra"] = {}
    with pytest.raises(ValidationError, match="extra"):
        parse_scenario(write_doc(tmp_path, doc))


def test_degenerate_bend_rejected_at_parse(tmp_path):
    doc = minimal_doc()
    doc["pipe"]["segments"].append(
        {"kind": "bend", "bend_radius_mm": 10, "sweep_deg": 90}
    )
    with pytest.raises(ValidationError, match="degenerate"):
        parse_scenario(write_doc(tmp_path, doc))


def test_bore_and_nps_are_mutually_exclusive(tmp_path):
    doc = minimal_doc()
    doc["pipe"]["nps"] = "6"
    doc["pipe"]["schedule"] = "40"
    with pytest.raises(ValidationError, match="not both"):
        parse_scenario(write_doc(tmp_path, doc))


def test_non_numeric_values_rejected(tmp_path):
    doc = minimal_doc()
    doc["robot"]["mu"] = "0.4"
    with pytest.raises(ValidationError, match="robot.mu"):
        parse_scenario(write_doc(tmp_path, doc))
    doc["robot"]["mu"] = True
    with pytest.raises(ValidationError, match="robot.mu"):
        parse_scenario(write_doc(tmp_path, doc))


def test_sweep_angle_range_checked(tmp_path):
    doc = minimal_doc()
    doc["pipe"]["segments"].append(
        {"kind": "bend", "bend_radius_mm": 300, "sweep_deg": 181}
    )
    with pytest.raises(ValidationError, match="sweep_deg"):
        parse_scenario(write_doc(tmp_path, doc))


def test_max_time_must_exceed_dt(tmp_path):
    doc = minimal_doc()
    doc["sim"]["max_time_s"] = 0.005
    with pytest.raises(ValidationError, match="max_time_s"):
        parse_scenario(write_doc(tmp_path, doc))


def test_overlong_preload_fails_as_compression_limit(tmp_path):
    doc = minimal_doc()
    doc["robot"]["preload_mm"] = 17
    with pytest.raises(CompressionLimit):
        parse_scenario(write_doc(tmp_path, doc))


# Where each SCHEMA section, and the pipe bore, sits in the fault document:
# its key path and the keys that reach it.  OUT_OF_RANGE lists values outside
# each key's range; the angles take any finite value.
LOCATIONS = {
    "pipe": ("pipe", ["pipe"]),
    "robot": ("robot", ["robot"]),
    "transmission": ("transmission", ["transmission"]),
    "sim": ("sim", ["sim"]),
    "straight": ("pipe.segments[0]", ["pipe", "segments", 0]),
    "bend": ("pipe.segments[1]", ["pipe", "segments", 1]),
}
OUT_OF_RANGE = {
    "robot.h_mm": [0, -50],
    "robot.sprocket_radius_mm": [0],
    "robot.spring_k_n_per_m": [0],
    "robot.preload_mm": [-1],
    "robot.max_compression_mm": [0],
    "robot.springs": [0, 2.5],
    "robot.mass_kg": [0],
    "robot.mu": [0, 2],
    "robot.robot_length_mm": [0],
    "robot.max_asym_deg": [0],
    "transmission.g1": [0],
    "transmission.g2": [-1],
    "transmission.efficiency": [0, 1.5],
    "sim.input_speed_rad_s": [0, -1],
    "sim.slip_stiffness": [0],
    "sim.dt_s": [0],
    "sim.max_time_s": [0.005],  # below dt_s
    "sim.bend_extra_compression_mm": [-0.1],
    "pipe.inner_radius_mm": [0, -1],
    "pipe.segments[0].length_mm": [0, -5],
    "pipe.segments[1].bend_radius_mm": [10, 60],  # inside the robot, inside the bore
    "pipe.segments[1].sweep_deg": [0, 181],
}
MISSING = object()


def fault_doc():
    """The four-section scenario with its bore given as inner_radius_mm."""
    doc = json.loads((SCENARIOS / "four_section.json").read_text())
    del doc["pipe"]["nps"], doc["pipe"]["schedule"]
    doc["pipe"]["inner_radius_mm"] = 77.0
    return doc


def _fault_cases():
    bore = {"pipe": (("inner_radius_mm", "inner_radius", False),)}
    for section, rows in {**SCHEMA, **bore}.items():
        for key, _, required in rows:
            path = f"{LOCATIONS[section][0]}.{key}"
            values = [True, "x", math.nan, math.inf, -math.inf, 10**400]  # an int beyond float
            values += OUT_OF_RANGE.get(path, []) + ([MISSING] if required else [])
            for value in values:
                label = {MISSING: "missing", 10**400: "10**400"}.get(value, repr(value))
                yield pytest.param(section, key, path, value, id=f"{path}={label}")


@pytest.mark.parametrize("section, key, path, value", _fault_cases())
def test_every_schema_key_rejects_bad_values_at_its_path(section, key, path, value):
    doc = fault_doc()
    obj = doc
    for step in LOCATIONS[section][1]:
        obj = obj[step]
    if value is MISSING:
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.path == path


def test_malformed_json_reports_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "pipe": {,}\n}\n')
    with pytest.raises(ParseError) as err:
        parse_scenario(path)
    assert err.value.line == 2


def test_missing_file_is_an_io_error(tmp_path):
    with pytest.raises(IoError):
        parse_scenario(tmp_path / "nope.json")


# --- round trip -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["minimal", "four_section", "straight_run"])
def test_scenario_round_trips_through_its_canonical_form(name):
    if name == "minimal":
        source = minimal_doc()
    else:
        source = json.loads((SCENARIOS / f"{name}.json").read_text())
    original = scenario_from_dict(source)
    doc = scenario_to_dict(original)
    rebuilt = scenario_from_dict(doc)
    assert scenario_to_dict(rebuilt) == doc
    assert rebuilt.robot == original.robot
    assert rebuilt.transmission == original.transmission
    assert rebuilt.network.segments == original.network.segments
    assert rebuilt.network.inner_radius == original.network.inner_radius


def test_save_then_parse_round_trips(tmp_path):
    original = make_four_section_scenario()
    path = tmp_path / "saved.json"
    save_scenario(original, path)
    reloaded = parse_scenario(path)
    assert scenario_to_dict(reloaded) == scenario_to_dict(original)


# --- record emission -----------------------------------------------------------------

def sample_records(n=3):
    scenario = make_four_section_scenario()
    records, _ = run(scenario)
    return records[:n]


def test_empty_record_stream_gives_header_only():
    buffer = io.StringIO()
    emit_records([], "csv", buffer)
    lines = buffer.getvalue().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_csv_has_one_row_per_record():
    records = sample_records(3)
    buffer = io.StringIO()
    emit_records(records, "csv", buffer)
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[0].split(",") == list(CSV_COLUMNS)
    for line in lines[1:]:
        assert len(line.split(",")) == len(CSV_COLUMNS)


def test_csv_numbers_carry_nine_significant_digits():
    records = sample_records(1)
    buffer = io.StringIO()
    emit_records(records, "csv", buffer)
    row = buffer.getvalue().splitlines()[1].split(",")
    t_s = float(row[0])
    assert t_s == records[0].t
    # a full-precision irrational-ish value prints with 9 significant digits
    speed_text = row[3]
    assert float(speed_text) == pytest.approx(records[0].track_speeds[0], rel=1e-8)
    mantissa = speed_text.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) <= 9


def test_json_mirrors_the_csv_fields():
    records = sample_records(2)
    buffer = io.StringIO()
    emit_records(records, "json", buffer)
    rows = json.loads(buffer.getvalue())
    assert len(rows) == 2
    assert set(rows[0]) == set(CSV_COLUMNS)
    assert rows[0]["t_s"] == records[0].t
    assert rows[1]["vA_mm_s"] == records[1].track_speeds[0]


def test_emit_to_path(tmp_path):
    target = tmp_path / "records.csv"
    emit_records(sample_records(2), "csv", target)
    assert len(target.read_text().splitlines()) == 3


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_records([], "xml", io.StringIO())


def test_emit_wraps_os_errors(tmp_path):
    with pytest.raises(IoError):
        emit_records([], "csv", tmp_path / "missing-dir" / "records.csv")
