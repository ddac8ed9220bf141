"""Metamorphic relations: power-of-two scaling of length and of time.

Every formula on the output path is homogeneous in its units, and
multiplying a float by a power of two is exact away from overflow and the
subnormals, so each rounding scales with it.  The relations therefore hold
bit for bit, with no reference to any of the model's formulas:

* L (length x f): every length of the document times f gives the same
  outcome and row count, the same ``t`` and times, and every length, speed,
  compression and torque times f;
* T (time x f): the input speed over f and ``dt_s``, ``max_time_s`` and
  ``slip_stiffness`` times f give ``t`` and every time times f, the same
  ``s``, compressions and torques, and every speed over f.

The drawn documents keep every value normal and finite under the scaling;
the fuzz test in ``test_scenario_io`` covers the extremes.  (T. Y. Chen,
S. C. Cheung & S. M. Yiu, "Metamorphic testing: a new approach for
generating next test cases", HKUST-CS98-01, 1998.)
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pipeclimber import MaxTimeExceeded, PipeClimberError, run, scenario_from_dict, write_summary
from test_scenario_io import fault_doc, segment_docs

# Keys scaled by each relation, per section: (section, key) -> power of f.
LENGTH_KEYS = {
    ("pipe", "inner_radius_mm"): 1,
    ("straight", "length_mm"): 1,
    ("bend", "bend_radius_mm"): 1,
    ("robot", "h_mm"): 1,
    ("robot", "sprocket_radius_mm"): 1,
    ("robot", "preload_mm"): 1,
    ("robot", "max_compression_mm"): 1,
    ("robot", "robot_length_mm"): 1,
    ("sim", "bend_extra_compression_mm"): 1,
}
TIME_KEYS = {
    ("sim", "input_speed_rad_s"): -1,
    ("sim", "dt_s"): 1,
    ("sim", "max_time_s"): 1,
    ("sim", "slip_stiffness"): 1,
}
# The power of f by which each output scales: record fields, then summary.json keys.
LENGTH_OUT = {"t": 0, "s": 1, "speeds": 1, "compressions": 1, "torque": 1, "time": 0}
TIME_OUT = {"t": 1, "s": 0, "speeds": -1, "compressions": 0, "torque": 0, "time": 1}
SUMMARY_UNITS = {
    "entry_time": "time", "exit_time": "time", "finish_time": "time",
    "mean_track_speeds": "speeds", "analytic_speeds": "speeds", "max_abs_slip": "speeds",
    "max_compression": "compressions", "final_s": "s", "total_distance_mm": "s",
}


def scaled_doc(doc, keys, factor):
    """``doc`` with each value at ``keys`` times ``factor`` to the key's power."""
    doc = copy.deepcopy(doc)
    sections = {name: [doc[name]] for name in ("pipe", "robot", "sim")}
    for segment in doc["pipe"]["segments"]:
        sections.setdefault(segment["kind"], []).append(segment)
    for (section, key), power in keys.items():
        for target in sections.get(section, []):
            target[key] *= factor ** power
    return doc


def outcome(doc, folder):
    """(error type, records, summary.json as loaded) of parsing and running ``doc``."""
    error = records = summary = None
    try:
        records, summary = run(scenario_from_dict(doc))
    except MaxTimeExceeded as exc:
        error, records, summary = MaxTimeExceeded, exc.records, exc.summary
    except PipeClimberError as exc:
        error = type(exc)
    if summary is not None:
        write_summary(summary, folder / "summary.json")
        summary = json.loads((folder / "summary.json").read_text(encoding="utf-8"))
    return error, records, summary


def scale(value, factor):
    """``value`` times ``factor``, through lists and tuples."""
    if isinstance(value, (list, tuple)):
        return [scale(v, factor) for v in value]
    return value * factor


def hexed(value):
    """``value`` with each float as its ``hex()``, which tells -0.0 from 0.0."""
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def record_fields(record, out, factor):
    """A record's fields after the relation, as ``hexed`` lists."""
    f = {unit: factor ** power for unit, power in out.items()}
    return hexed([scale(record.t, f["t"]), scale(record.s, f["s"]), record.segment_index,
                  scale(record.track_speeds, f["speeds"]),
                  scale(record.required_speeds, f["speeds"]), scale(record.slip, f["speeds"]),
                  scale(record.compressions, f["compressions"]),
                  scale(record.common_torque, f["torque"])])


def summary_fields(summary, out, factor):
    """summary.json's values after the relation, as ``hexed``."""
    def scaled(mapping):
        return {key: hexed(scale(value, factor ** out[SUMMARY_UNITS[key]])
                           if key in SUMMARY_UNITS else value)
                for key, value in mapping.items() if key != "segments"}
    return {**scaled(summary), "segments": [scaled(seg) for seg in summary["segments"]]}


def check_relation(base_doc, keys, out, factor, folder):
    error, records, summary = outcome(base_doc, folder)
    got_error, got_records, got_summary = outcome(scaled_doc(base_doc, keys, factor), folder)
    assert got_error == error
    assert (got_records is None) == (records is None)
    if records is not None:
        assert len(got_records) == len(records)
        assert got_records.run_ends == records.run_ends
        assert [record_fields(v, out, factor) for v in records.values] == \
            [record_fields(v, out, 1.0) for v in got_records.values]
        assert [x * factor ** out["t"] for x in records.t.tolist()] == got_records.t.tolist()
        assert [x * factor ** out["s"] for x in records.s.tolist()] == got_records.s.tolist()
    assert (got_summary is None) == (summary is None)
    if summary is not None:
        assert summary_fields(summary, out, factor) == summary_fields(got_summary, out, 1.0)


@st.composite
def documents(draw):
    """A scenario document over drawn segments, robot, drive and time grid,
    some of which meet a limit or run out of time."""
    doc = fault_doc()
    doc["pipe"]["segments"] = draw(st.lists(segment_docs, min_size=1, max_size=5))
    doc["robot"].update(
        orientation_deg=draw(st.floats(0.0, 360.0)),
        robot_length_mm=draw(st.one_of(st.floats(10.0, 60.0), st.floats(60.0, 800.0))),
        preload_mm=draw(st.floats(2.0, 8.0)),
        max_compression_mm=draw(st.floats(8.0, 20.0)),
        max_asym_deg=draw(st.floats(0.5, 20.0)),
    )
    doc["transmission"].update(g1=draw(st.floats(0.25, 4.0)), g2=draw(st.floats(0.25, 4.0)),
                               efficiency=draw(st.floats(0.5, 1.0)))
    doc["sim"].update(
        input_speed_rad_s=draw(st.floats(0.5, 5.0)),
        slip_stiffness=draw(st.floats(0.1, 10.0)),
        dt_s=draw(st.floats(0.01, 0.5)),
        bend_extra_compression_mm=draw(st.floats(0.0, 12.0)),
    )
    # A time budget from 0.05 to 2.5 times the nominal traversal time.
    try:
        nominal = scenario_from_dict(dict(doc, sim=dict(doc["sim"], max_time_s=1e3)))
    except PipeClimberError:
        budget = 1e3
    else:
        budget = nominal.network.total_length / nominal.center_speed_mm_s
        budget = min(budget * draw(st.floats(0.05, 2.5)), 1e4 * doc["sim"]["dt_s"])
    doc["sim"]["max_time_s"] = max(1.5 * doc["sim"]["dt_s"], budget)
    return doc


@given(doc=documents(), factor=st.sampled_from([2.0, 0.5]))
@settings(max_examples=100, deadline=None)
def test_lengths_times_a_power_of_two_scale_every_length_and_speed(tmp_path_factory, doc, factor):
    check_relation(doc, LENGTH_KEYS, LENGTH_OUT, factor, tmp_path_factory.getbasetemp())


@given(doc=documents())
@settings(max_examples=60, deadline=None)
def test_time_times_two_scales_every_time_and_no_length(tmp_path_factory, doc):
    check_relation(doc, TIME_KEYS, TIME_OUT, 2.0, tmp_path_factory.getbasetemp())


def test_the_shipped_scenario_scales_bit_for_bit(tmp_path):
    doc = fault_doc()
    for keys, out, factor in ((LENGTH_KEYS, LENGTH_OUT, 2.0), (LENGTH_KEYS, LENGTH_OUT, 0.5),
                              (TIME_KEYS, TIME_OUT, 2.0)):
        check_relation(doc, keys, out, factor, tmp_path)
    assert outcome(doc, tmp_path)[0] is None  # it finishes
