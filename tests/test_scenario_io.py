import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipeclimber import (
    CSV_COLUMNS,
    CompressionLimit,
    ConfigError,
    IoError,
    MaxTimeExceeded,
    ParseError,
    SimulationError,
    ValidationError,
    emit_records,
    parse_scenario,
    run,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    summary_to_dict,
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
    "robot.sprocket_radius_mm": [0, 1e308],  # the centerline speed overflows
    "robot.spring_k_n_per_m": [0],
    "robot.preload_mm": [-1],
    "robot.max_compression_mm": [0],
    "robot.springs": [0, 2.5],
    "robot.mass_kg": [0],
    "robot.mu": [0, 2],
    "robot.robot_length_mm": [0],
    "robot.max_asym_deg": [0],
    "transmission.g1": [0, 1e308],
    "transmission.g2": [-1, 1e308],
    "transmission.efficiency": [0, 1.5],
    "sim.input_speed_rad_s": [0, -1, 1e308],  # 1e308 * the 20 mm sprocket is inf
    "sim.slip_stiffness": [0],
    "sim.dt_s": [0],
    "sim.max_time_s": [0.005, 1e5],  # below dt_s, over a million steps
    "sim.bend_extra_compression_mm": [-0.1],
    "pipe.inner_radius_mm": [0, -1],
    "pipe.segments[0].length_mm": [0, -5],
    # inside the robot, inside the bore, outer track speed overflows
    "pipe.segments[1].bend_radius_mm": [10, 60, 1e308],
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


wild = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**6, 10**6),
    st.sampled_from([0, -1, 1e-300, 5e-324, 1e308, 10**400, True, "x", None]),
)
segment_docs = st.one_of(
    st.fixed_dictionaries({"kind": st.just("straight"), "length_mm": st.floats(1.0, 2000.0)}),
    st.fixed_dictionaries({
        "kind": st.just("bend"),
        "bend_radius_mm": st.floats(80.0, 2000.0),
        "sweep_deg": st.floats(0.5, 180.0),
        "roll_deg": st.floats(-360.0, 360.0),
    }),
)
# Keys an edit may set to a wild value; a segment key is set on every
# segment of its kind.
SETTABLE = [(section, key) for section in ("robot", "transmission", "sim")
            for key, _, _ in SCHEMA[section]]
SETTABLE += [("segments", key) for kind in ("straight", "bend") for key, _, _ in SCHEMA[kind]]


@given(
    segments=st.lists(segment_docs, min_size=1, max_size=5),
    dt_s=st.floats(1e-3, 1.0),
    max_time_s=st.floats(0.0, 300.0),
    edits=st.dictionaries(st.sampled_from(SETTABLE), wild, max_size=2),
)
# A subnormal input speed passes every rule, but each row's advance
# underflows to 0 and the run spends its time budget where it stands.
@example(segments=[{"kind": "straight", "length_mm": 100.0}], dt_s=0.01, max_time_s=1.0,
         edits={("sim", "input_speed_rad_s"): 5e-324})
@settings(max_examples=100, deadline=None)
def test_every_document_runs_or_fails_typed_within_its_budget(segments, dt_s, max_time_s, edits):
    # Parse and run: the only outcomes are a ConfigError, a SimulationError or
    # records, and the time grid bounds the rows either way.
    doc = fault_doc()
    doc["pipe"]["segments"] = segments
    doc["sim"].update(dt_s=dt_s, max_time_s=max_time_s)
    for (section, key), value in edits.items():
        targets = [s for s in segments if key in s] if section == "segments" else [doc[section]]
        for target in targets:
            target[key] = value
    try:
        scenario = scenario_from_dict(doc)
    except (ConfigError, SimulationError):
        return
    try:
        records, summary = run(scenario)
    except SimulationError as exc:
        records = getattr(exc, "records", [])
    else:
        # A success writes a summary that strict JSON holds.
        text = json.dumps(summary_to_dict(summary), allow_nan=False)
        assert json.loads(text, parse_constant=_reject_constant)["final_s"] == summary.final_s
    assert len(records) <= math.ceil(scenario.max_time_s / scenario.dt_s) + 1


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("max_time_s", [60.0, 20.0])
def test_summary_to_dict_equals_asdict(max_time_s):
    # A complete run, and one the time budget cuts short in its third segment.
    try:
        _, summary = run(make_four_section_scenario(max_time_s=max_time_s))
    except MaxTimeExceeded as exc:
        summary = exc.summary
    assert summary_to_dict(summary) == dataclasses.asdict(summary)


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
    """The first ``n`` rows of the four-section run: a time budget of
    ``n - 1/2`` steps of 0.01 s cuts it short there."""
    with pytest.raises(MaxTimeExceeded) as err:
        run(make_four_section_scenario(max_time_s=(n - 0.5) * 0.01))
    assert len(err.value.records) == n
    return err.value.records


def emitted(tmp_path, records, fmt):
    """Text ``emit_records`` writes for ``records`` in ``fmt``."""
    target = tmp_path / f"records.{fmt}"
    emit_records(records, fmt, target)
    return target.read_text(encoding="utf-8")


def test_empty_record_stream_gives_header_only(tmp_path):
    lines = emitted(tmp_path, sample_records(0), "csv").splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_csv_has_one_row_per_record(tmp_path):
    records = sample_records(3)
    lines = emitted(tmp_path, records, "csv").splitlines()
    assert len(lines) == 4
    assert lines[0].split(",") == list(CSV_COLUMNS)
    for line in lines[1:]:
        assert len(line.split(",")) == len(CSV_COLUMNS)


def test_csv_numbers_carry_nine_significant_digits(tmp_path):
    records = sample_records(1)
    row = emitted(tmp_path, records, "csv").splitlines()[1].split(",")
    t_s = float(row[0])
    assert t_s == records[0].t
    # a full-precision irrational-ish value prints with 9 significant digits
    speed_text = row[3]
    assert float(speed_text) == pytest.approx(records[0].track_speeds[0], rel=1e-8)
    mantissa = speed_text.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) <= 9


def test_json_mirrors_the_csv_fields(tmp_path):
    records = sample_records(2)
    rows = json.loads(emitted(tmp_path, records, "json"))
    assert len(rows) == 2
    assert set(rows[0]) == set(CSV_COLUMNS)
    assert rows[0]["t_s"] == records[0].t
    assert rows[1]["vA_mm_s"] == records[1].track_speeds[0]


def test_four_section_records_keep_their_digest(tmp_path):
    # The SHA-256 the benchmark checks `pipeclimb run` output against.
    records, _ = run(parse_scenario(SCENARIOS / "four_section.json"))
    target = tmp_path / "records.csv"
    emit_records(records, "csv", target)
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "623795f54112ed15afc1108057e9302675e4b99e5a336a5a20ca101573caba67"
    )


def test_emit_to_path(tmp_path):
    target = tmp_path / "records.csv"
    emit_records(sample_records(2), "csv", target)
    assert len(target.read_text().splitlines()) == 3


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_records(sample_records(0), "xml", tmp_path / "records.xml")


def test_emit_wraps_os_errors(tmp_path):
    with pytest.raises(IoError):
        emit_records(sample_records(0), "csv", tmp_path / "missing-dir" / "records.csv")
