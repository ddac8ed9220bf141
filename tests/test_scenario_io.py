import _pyio
import dataclasses
import functools
import hashlib
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipeclimber import (
    CSV_COLUMNS,
    Bend,
    CompressionLimit,
    ConfigError,
    IoError,
    MaxTimeExceeded,
    ParseError,
    Piece,
    Records,
    SegmentStats,
    SimRecord,
    SimSummary,
    SimulationError,
    Straight,
    SweepEntry,
    ValidationError,
    build_network,
    emit_records,
    parse_scenario,
    run,
    scenario_from_dict,
    summary_to_dict,
    write_summary,
    write_sweep,
)
import pipeclimber.scenario_io as scenario_io
from pipeclimber.scenario_io import _CHUNK_ROWS, SCHEMA
from conftest import make_four_section_scenario
from oracles import grid_rows, save_scenario, scenario_to_dict, write_rows

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
    doc["pipe"].update(nps=6, schedule=40.0)  # numbers name the same entry
    numbered = parse_scenario(write_doc(tmp_path, doc))
    assert numbered.network.inner_radius == scenario.network.inner_radius


@pytest.mark.parametrize("key", ["nps", "schedule"])
@pytest.mark.parametrize("value", [[6], {"A": 1}, True, False, None])
def test_nps_and_schedule_of_another_type_name_the_key(tmp_path, key, value):
    doc = minimal_doc()
    del doc["pipe"]["inner_radius_mm"]
    doc["pipe"].update(nps="6", schedule="40")
    doc["pipe"][key] = value
    with pytest.raises(ValidationError, match=rf"^pipe\.{key}: expected a string or a number"):
        parse_scenario(write_doc(tmp_path, doc))


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


# Documents whose fault no single key's value shows: each case's edits to
# the fault document, as (keys to the object, key, value or MISSING), and
# the path and reason of the error.
SHAPE_FAULTS = {
    "empty segment array": ([(["pipe"], "segments", [])],
                            "pipe.segments", "expected a non-empty array of segments"),
    "segment object": ([(["pipe"], "segments", {})],
                       "pipe.segments", "expected a non-empty array of segments"),
    "unknown kind": ([(["pipe", "segments", 1], "kind", "elbow")],
                     "pipe.segments[1].kind", "kind must be 'straight' or 'bend', got 'elbow'"),
    "no kind": ([(["pipe", "segments", 1], "kind", MISSING)],
                "pipe.segments[1].kind", "kind must be 'straight' or 'bend', got None"),
    "nps alone": ([(["pipe"], "inner_radius_mm", MISSING), (["pipe"], "nps", "6")],
                  "pipe", "needs inner_radius_mm or both nps and schedule"),
    "no bore": ([(["pipe"], "inner_radius_mm", MISSING)],
                "pipe", "needs inner_radius_mm or both nps and schedule"),
    # 1e306 rad/s on the 20 mm sprocket is a finite centre speed, but not
    # the outer track's in a bend whose extent is finite.
    "bend track speed overflows": (
        [(["sim"], "input_speed_rad_s", 1e306), (["pipe", "segments", 1], "bend_radius_mm", 1e10)],
        "pipe.segments[1].bend_radius_mm",
        "must keep the track speeds finite at 2e+307 mm/s, got 10000000000.0"),
}


@pytest.mark.parametrize("edits, path, reason", SHAPE_FAULTS.values(), ids=SHAPE_FAULTS)
def test_document_shape_faults_name_their_path(edits, path, reason):
    doc = fault_doc()
    for steps, key, value in edits:
        obj = doc
        for step in steps:
            obj = obj[step]
        if value is MISSING:
            del obj[key]
        else:
            obj[key] = value
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert (type(err.value), err.value.path, err.value.reason) == (ValidationError, path, reason)
    assert str(err.value) == f"{path}: {reason}"


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


@pytest.mark.parametrize("text, reason", [
    ("[" * 200_000, "maximum recursion depth exceeded"),
    ('{"pipe": ' + "1" * 5_000 + "}\n", "Exceeds the limit (4300 digits)"),
    ((SCENARIOS / "four_section.json").read_text()
     .replace('"dt_s": 0.01', '"dt_s": 0.01, "dt_s": 0.02'), "duplicate key 'dt_s'"),
], ids=["nested past the recursion limit", "5,000-digit integer", "duplicate key"])
def test_json_the_decoder_refuses_is_a_parse_error_naming_the_file(tmp_path, text, reason):
    # None is a JSONDecodeError, so none carries a line number.  The decoder itself
    # keeps the later of two equal keys; the scenario parser refuses them.
    path = tmp_path / "huge.json"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_scenario(path)
    assert str(err.value).startswith(f"malformed scenario {path}: {reason}")


def test_non_utf8_file_is_a_parse_error_naming_the_file(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{\x00}\x00')  # UTF-16 with a byte order mark
    with pytest.raises(ParseError) as err:
        parse_scenario(path)
    assert str(err.value) == (f"malformed scenario {path}: not UTF-8: invalid start byte "
                              "at byte 0 (line 1)")


def test_a_document_that_is_not_an_object_names_no_key(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(ValidationError) as err:
        parse_scenario(path)
    assert str(err.value) == "expected an object, got array"


# Each Python type ``json.loads`` gives, with its JSON name.
JSON_TYPES = [(None, "null"), (True, "boolean"), (False, "boolean"), ("0.4", "string"),
              ([0.4], "array"), ({"mu": 0.4}, "object"), (1, "number"), (0.4, "number")]


@pytest.mark.parametrize("value, name", [case for case in JSON_TYPES if case[1] != "number"])
def test_a_non_number_names_its_json_type(tmp_path, value, name):
    doc = minimal_doc()
    doc["robot"]["mu"] = value
    with pytest.raises(ValidationError) as err:
        parse_scenario(write_doc(tmp_path, doc))
    assert str(err.value) == f"robot.mu: expected a number, got {name}"


@pytest.mark.parametrize("value, name", [case for case in JSON_TYPES if case[1] != "object"])
def test_a_document_that_is_not_an_object_names_its_json_type(tmp_path, value, name):
    with pytest.raises(ValidationError) as err:
        parse_scenario(write_doc(tmp_path, value))
    assert str(err.value) == f"expected an object, got {name}"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_record_stream_gives_header_only(tmp_path, fmt):
    # JSON's is the empty array that ``json.dump([])`` writes.
    header = {"csv": ",".join(CSV_COLUMNS), "json": "[]"}[fmt]
    assert emitted(tmp_path, sample_records(0), fmt) == header + "\n"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitting_records_builds_no_row_objects(monkeypatch, tmp_path, fmt):
    # Both writers compute each centre segment's rows from its piece, a
    # chunk at a time, rather than reading a ``SimRecord`` per row.
    records = sample_records(3)
    built = []
    init = SimRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimRecord, "__init__", counted)
    assert len(emitted(tmp_path, records, fmt).splitlines()) > 3
    assert built == []


def table(visits, segment_index=0, constants=(1.0,) * 13):
    """A hand-built ``Records``: one centre-segment visit per ``Piece`` of
    ``visits``, each with the run's constant fields and the segment index
    counting up."""
    values = [SimRecord(0.0, 0.0, segment_index + j, *(tuple(constants[i:i + 3])
                                                       for i in range(0, 12, 3)), constants[12])
              for j in range(len(visits))]
    return Records(values, visits)


def column_rows(records):
    """``records``' rows, their ``t`` and ``s`` from ``grid_rows``' numpy
    columns, not from the table's own iteration."""
    rows = []
    for value, piece in zip(records.values, records.pieces):
        ts, ss = grid_rows(piece)
        rows += [dataclasses.replace(value, t=t_row, s=s_row)
                 for t_row, s_row in zip(ts.tolist(), ss.tolist())]
    return rows


def hexed(rows):
    """``rows`` with their ``t`` and ``s`` as ``float.hex``, so that a
    signed zero or a last-bit difference shows."""
    return [(row.t.hex(), row.s.hex(), row) for row in rows]


RUN_LENGTHS = (1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS)
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 1 / 3, 1e-7, 123456789.5)
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
edges = st.sampled_from(EDGE_FLOATS)
row_numbers = st.sampled_from([0, 1, 2**20, 2**52]) | st.integers(0, 2**53 - 3 * _CHUNK_ROWS)
# A one-row visit holds any values; a longer one has rows that end inside
# a chunk, at its end and one row past it.
visits = st.one_of(st.builds(Piece, row_numbers, finite, finite, finite, st.just(1)),
                   st.builds(Piece, row_numbers, edges, edges, edges, st.sampled_from(RUN_LENGTHS)))


@settings(max_examples=60, deadline=None)
@given(visits=st.lists(visits, min_size=1, max_size=4), segment_index=st.integers(0, 10**6),
       constants=st.lists(finite, min_size=13, max_size=13))
# The last row's t, (7 + 255)·0.1, is one ulp from 7·0.1 + 255·0.1.
@example(visits=[Piece(7, 0.1, 0.1, 1 / 3, 256)], segment_index=0, constants=[1.0] * 13)
def test_emitted_bytes_match_a_row_by_row_writer(tmp_path_factory, visits, segment_index,
                                                 constants):
    # The floats take in signed zeros, subnormals and the ends of the float
    # range; a column that leaves it raises before the file opens.
    records = table(visits, segment_index, constants)
    rows = column_rows(records)
    # Reads and the writer's chunks are two codes for the same formula:
    # iteration, and indexing from either end at each visit's first and
    # last row, give the oracle's bits too.
    assert hexed(records) == hexed(rows)
    for end, piece in zip(records.run_ends, records.pieces):
        for row in (end - piece.rows, end - 1):
            assert hexed([records[row], records[row - len(records)]]) == hexed([rows[row]] * 2)
    folder = tmp_path_factory.mktemp("rows")
    for fmt in ("csv", "json"):
        target = folder / f"table.{fmt}"
        if not all(math.isfinite(row.t) and math.isfinite(row.s) for row in rows):
            with pytest.raises(SimulationError, match="is not finite"):
                emit_records(records, fmt, target)
            assert not target.exists()
            continue
        emit_records(records, fmt, target)
        write_rows(rows, fmt, folder / f"rows.{fmt}")
        assert target.read_bytes() == (folder / f"rows.{fmt}").read_bytes()


@pytest.mark.parametrize("chunk_rows", [1, 2, 5])
def test_chunks_cut_short_give_the_same_table(monkeypatch, tmp_path, chunk_rows):
    # Chunks of a few rows end inside every visit of a run, so each visit's
    # last row falls on, or just past, a chunk's end; each chunk goes on
    # from the last row of the one before.
    records, _ = run(make_four_section_scenario(dt_s=0.1))
    monkeypatch.setattr(scenario_io, "_CHUNK_ROWS", chunk_rows)
    rows = column_rows(records)
    for fmt in ("csv", "json"):
        emit_records(records, fmt, tmp_path / f"table.{fmt}")
        write_rows(rows, fmt, tmp_path / f"rows.{fmt}")
        assert (tmp_path / f"table.{fmt}").read_bytes() == (tmp_path / f"rows.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("column", ["t", "s", "constant"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_records_raise_before_the_file_opens(tmp_path, fmt, column, bad):
    # ``%r`` writes nan and inf where json writes NaN and Infinity, which
    # standard JSON cannot hold either.  The bad value is the second visit's
    # time step or first ``s``, or the constant the visits share.
    dt, s, constants = [0.5, 0.5], [0.0, 2.0], [1.0] * 13
    {"t": dt, "s": s, "constant": constants}[column][-1] = bad
    visits = [Piece(0, dt[0], s[0], 0.5, 1), Piece(1, dt[1], s[1], 0.5, 2)]
    target = tmp_path / f"records.{fmt}"
    with pytest.raises(SimulationError, match=str(target)):
        emit_records(table(visits, constants=constants), fmt, target)
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_progression_that_overflows_raises_before_the_file_opens(tmp_path, fmt):
    # Only the last two rows of s, from 1.8e308, overflow to inf; a column
    # that ends just short of inf is written as a row-by-row writer writes it.
    overflowing = table([Piece(0, 0.01, 0.0, 1e307, 20)])
    target = tmp_path / f"records.{fmt}"
    with pytest.raises(SimulationError, match=f"{target}: s_mm is not finite"):
        emit_records(overflowing, fmt, target)
    assert not target.exists()
    near_the_top = table([Piece(0, 0.01, 1e308, 4e306, 20)])
    emit_records(near_the_top, fmt, target)
    write_rows(column_rows(near_the_top), fmt, tmp_path / f"rows.{fmt}")
    assert target.read_bytes() == (tmp_path / f"rows.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitting_holds_one_chunk_of_text_at_a_time(tmp_path, monkeypatch, fmt):
    # The writer's peak memory does not grow with the table: ten times the
    # rows, the same few runs.  Where the last chunk of a run ends moves the
    # file's 8 kB text buffer in and out of the peak, hence the margin; the
    # whole text of 10,000 rows would be over ten times the peak.
    def records_of(rows, constants=(1.0,) * 13):
        return table([Piece(0, 1 / 3, 2.5, 1e3, rows // 4),
                      Piece(rows // 4, 7e-5, 1e3, 2.5, rows // 2),
                      Piece(3 * rows // 4, 0.1, 2.5, 1e3, rows // 4)], constants=constants)

    def peak(records):
        tracemalloc.start()
        try:
            emit_records(records, fmt, tmp_path / f"records.{fmt}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(records_of(10_000)) <= 1.5 * peak(records_of(1_000))

    # Nor does it hold a chunk's text much more than once: with rows as wide
    # as a run's, every constant at full width, the peak is at most twice
    # the largest chunk.  It reads about 1.8 (CSV) and 1.3 (JSON); a format
    # that repeats each row's constant text reads about 2.8 and 2.4.
    wide = records_of(10_000, tuple(-i / 7 for i in range(1, 14)))
    chunks = []
    with monkeypatch.context() as patch:
        patch.setattr(scenario_io, "_write", lambda path, items, what: chunks.extend(items))
        emit_records(wide, fmt, tmp_path / f"records.{fmt}")
    assert peak(wide) <= 2 * max(map(len, chunks))


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


# --- summary and sweep files -------------------------------------------------------

# json writes a numpy.float64 as a float, where %r would write np.float64(1.0).
numbers = st.one_of(finite, finite.map(np.float64))
triples = st.tuples(numbers, numbers, numbers)
summaries = st.builds(
    SimSummary,
    segments=st.lists(st.builds(SegmentStats, index=st.integers(0, 10**6),
                                kind=st.sampled_from(["straight", "bend"]),
                                entry_time=numbers, exit_time=numbers,
                                mean_track_speeds=triples, analytic_speeds=triples,
                                ape_percent=triples),
                      max_size=4).map(tuple),
    per_track_ape_percent=triples, max_abs_slip=numbers, max_compression=numbers,
    finish_time=numbers, final_s=numbers, total_distance_mm=numbers,
)
messages = st.one_of(st.sampled_from(['no "bracket"', "C:\\out", "two\nlines", "Überlast ✗"]),
                     st.text())
orientations = st.one_of(numbers, st.integers(-720, 720))
entries = st.lists(st.one_of(
    st.builds(SweepEntry, orientation_deg=orientations, summary=summaries),
    st.builds(SweepEntry, orientation_deg=orientations, summary=st.none(),
              error=messages.map(SimulationError)),
), max_size=4)


def sweep_payload(entries):
    """What ``write_sweep`` writes, as the plain data ``json.dumps`` takes."""
    return [{"orientation_deg": entry.orientation_deg,
             "summary": None if entry.summary is None else summary_to_dict(entry.summary),
             "error": None if entry.error is None else str(entry.error)}
            for entry in entries]


@settings(max_examples=60, deadline=None)
@given(summary=summaries, entries=entries)
def test_summary_and_sweep_files_are_json_dumps_indent_1(tmp_path_factory, summary, entries):
    folder = tmp_path_factory.mktemp("summaries")
    write_summary(summary, folder / "summary.json")
    write_sweep(entries, folder / "sweep.json")
    assert (folder / "summary.json").read_bytes() == (
        json.dumps(summary_to_dict(summary), indent=1) + "\n").encode()
    assert (folder / "sweep.json").read_bytes() == (
        json.dumps(sweep_payload(entries), indent=1) + "\n").encode()


def test_each_count_of_segments_gets_its_own_template(tmp_path):
    # Templates are built once per shape and kept for the process, so
    # summaries of 1, 4 and 12 segments, written one after another, each as
    # a file of its own and inside sweeps, must each get theirs.
    four = [Straight(500.0), Bend(300.0, 90.0), Straight(350.0), Bend(300.0, 180.0)]
    summaries = [run(make_four_section_scenario(network=build_network(segments, 77.0),
                                                max_time_s=600.0))[1]
                 for segments in ([Straight(300.0)], four, four * 3)]
    assert [len(summary.segments) for summary in summaries] == [1, 4, 12]
    path = tmp_path / "out.json"
    for summary in [*summaries, *reversed(summaries)]:
        write_summary(summary, path)
        assert path.read_text(encoding="utf-8") == (
            json.dumps(summary_to_dict(summary), indent=1) + "\n")
    failed = SweepEntry(120.0, None, SimulationError('module A tilts "far"'))
    for entries in ([SweepEntry(0.0, summary) for summary in summaries] + [failed],
                    [SweepEntry(240.0, summaries[1])], [failed]):
        write_sweep(entries, path)
        assert path.read_text(encoding="utf-8") == (
            json.dumps(sweep_payload(entries), indent=1) + "\n")


def _out_of_range() -> str:
    """json's message for a non-finite float under ``allow_nan=False``."""
    with pytest.raises(ValueError) as err:
        json.dumps(math.inf, allow_nan=False)
    return str(err.value)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
def test_non_finite_summaries_raise_before_the_file_opens(tmp_path, bad):
    _, summary = run(make_four_section_scenario())
    segment = dataclasses.replace(summary.segments[1], analytic_speeds=(1.0, bad, 2.0))
    cases = [
        (write_summary, dataclasses.replace(summary, final_s=bad), "summary.json"),
        (write_summary, dataclasses.replace(summary, segments=(segment,)), "summary.json"),
        (write_sweep, [SweepEntry(0.0, dataclasses.replace(summary, max_abs_slip=bad))],
         "sweep.json"),
        (write_sweep, [SweepEntry(0.0, summary), SweepEntry(bad, None, SimulationError("x"))],
         "sweep.json"),
    ]
    for write, result, name in cases:
        path = tmp_path / name
        with pytest.raises(SimulationError) as err:
            write(result, path)
        assert str(err.value) == f"cannot write {path}: {_out_of_range()}"
        assert not path.exists()


def test_summary_writers_wrap_os_errors(tmp_path):
    _, summary = run(make_four_section_scenario())
    with pytest.raises(IoError):
        write_summary(summary, tmp_path / "missing-dir" / "summary.json")
    with pytest.raises(IoError):
        write_sweep([SweepEntry(0.0, summary)], tmp_path / "missing-dir" / "sweep.json")


# --- every output file -----------------------------------------------------------

def write_every_file(folder):
    """Each of the four writers' files for the four-section run, the sweep
    with a failed entry whose message is not ASCII, in ``folder``: name ->
    path."""
    scenario = make_four_section_scenario()
    records, summary = run(scenario)
    entries = [SweepEntry(0.0, summary), SweepEntry(90.0, None, SimulationError("Überlast ✗"))]
    paths = {name: folder / name for name in
             ("records.csv", "records.json", "summary.json", "sweep.json", "scenario.json")}
    emit_records(records, "csv", paths["records.csv"])
    emit_records(records, "json", paths["records.json"])
    write_summary(summary, paths["summary.json"])
    write_sweep(entries, paths["sweep.json"])
    save_scenario(scenario, paths["scenario.json"])
    return paths


def test_no_output_file_ends_its_lines_in_crlf(monkeypatch, tmp_path):
    # A Windows text layer, emulated: CPython's C ``open`` fixes its newline
    # when it is built, but ``_pyio`` reads ``os.linesep`` when a file opens.
    monkeypatch.setattr(os, "linesep", "\r\n")
    monkeypatch.setattr(scenario_io, "open", _pyio.open, raising=False)
    with scenario_io.open(tmp_path / "probe.txt", "w") as handle:
        handle.write("a\n")
    assert (tmp_path / "probe.txt").read_bytes() == b"a\r\n"  # the emulation holds
    paths = write_every_file(tmp_path)
    assert [name for name, path in paths.items() if b"\r" in path.read_bytes()] == []


def test_every_output_file_is_ascii(tmp_path):
    for path in write_every_file(tmp_path).values():
        path.read_bytes().decode("ascii")  # raises on any other byte


def test_saved_scenarios_are_json_dumps_indent_2(tmp_path):
    scenario = make_four_section_scenario()
    save_scenario(scenario, tmp_path / "scenario.json")
    assert (tmp_path / "scenario.json").read_bytes() == (
        json.dumps(scenario_to_dict(scenario), indent=2).encode() + b"\n")


def test_a_non_ascii_output_path_gets_the_same_bytes(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "réseau").mkdir()
    plain = write_every_file(tmp_path / "plain")
    for name, path in write_every_file(tmp_path / "réseau").items():
        assert path.read_bytes() == plain[name].read_bytes(), name


def test_a_missing_directory_keeps_each_writers_message(tmp_path):
    scenario = make_four_section_scenario()
    records, summary = run(scenario)
    missing = tmp_path / "missing-dir"
    for write, payload, name, what in (
        (functools.partial(emit_records, fmt="csv"), records, "records.csv", "records to "),
        (functools.partial(emit_records, fmt="json"), records, "records.json", "records to "),
        (write_summary, summary, "summary.json", ""),
        (write_sweep, [SweepEntry(0.0, summary)], "sweep.json", ""),
        (save_scenario, scenario, "scenario.json", ""),
    ):
        path = missing / name
        with pytest.raises(IoError) as err:
            write(payload, path=path)
        assert str(err.value) == (
            f"cannot write {what}{path}: [Errno 2] No such file or directory: {str(path)!r}")
        assert isinstance(err.value.__cause__, FileNotFoundError)
