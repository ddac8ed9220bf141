import builtins
import json
import math
import random
from pathlib import Path

import pytest

import golden_corpus
from pipeclimber import cli, run
from pipeclimber.cli import main
from pipeclimber.scenario_io import CSV_COLUMNS

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
GOLDEN = json.loads(golden_corpus.GOLDEN.read_text())
CORPUS = golden_corpus.documents()


@pytest.fixture
def straight_scenario(tmp_path):
    doc = {
        "pipe": {
            "inner_radius_mm": 77.0,
            "segments": [{"kind": "straight", "length_mm": 200}],
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
            "max_time_s": 30,
        },
    }
    path = tmp_path / "straight.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_ok(straight_scenario, capsys):
    assert main(["validate", str(straight_scenario)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_shipped_scenarios():
    for name in ("four_section.json", "straight_run.json"):
        assert main(["validate", str(SCENARIOS / name)]) == 0


def test_validate_bad_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"pipe": {}}')
    assert main(["validate", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edits, path",
    [
        ({"g1": 1e-200, "input_speed_rad_s": 1e-200}, "sim.input_speed_rad_s"),  # speed 0
        ({"g1": 1e200, "input_speed_rad_s": 1e200}, "sim.input_speed_rad_s"),  # speed inf
        ({"dt_s": 1e-7}, "sim.max_time_s"),  # 6e8 steps
    ],
)
def test_validate_rejects_scenarios_that_cannot_run(tmp_path, capsys, edits, path):
    doc = json.loads((SCENARIOS / "straight_run.json").read_text())
    for key, value in edits.items():
        doc["transmission" if key == "g1" else "sim"][key] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert main(["validate", str(scenario)]) == 1
    assert f"error: {path}: must be" in capsys.readouterr().err


def test_missing_file_exits_3(tmp_path):
    assert main(["validate", str(tmp_path / "missing.json")]) == 3


def test_run_writes_records_and_summary(straight_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(straight_scenario), "--out", str(out)]) == 0
    lines = (out / "records.csv").read_text().splitlines()
    assert lines[0].split(",") == list(CSV_COLUMNS)
    assert len(lines) > 100
    summary = json.loads((out / "summary.json").read_text())
    assert summary["finish_time"] == pytest.approx(4.0, abs=0.02)
    assert "finished" in capsys.readouterr().out


def test_run_json_format(straight_scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(straight_scenario), "--out", str(out), "--format", "json"]) == 0
    rows = json.loads((out / "records.json").read_text())
    assert set(rows[0]) == set(CSV_COLUMNS)


def test_run_compression_limit_exits_2(straight_scenario, tmp_path, capsys):
    doc = json.loads(straight_scenario.read_text())
    doc["robot"]["preload_mm"] = 17
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "compression" in capsys.readouterr().err


def test_run_timeout_exits_2_with_partial_records(straight_scenario, tmp_path, capsys):
    # A run stopped by its time budget writes the records of the rows it
    # simulated, in either format, and no summary.
    doc = json.loads(straight_scenario.read_text())
    doc["sim"]["max_time_s"] = 1.0
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    csv_lines = (out / "records.csv").read_text().splitlines()
    assert len(csv_lines) == 101
    assert "did not finish" in capsys.readouterr().err
    assert main(["run", str(path), "--out", str(out), "--format", "json"]) == 2
    assert "did not finish" in capsys.readouterr().err
    with open(out / "records.json", encoding="ascii") as handle:
        assert len(json.load(handle)) == len(csv_lines) - 1  # the CSV's header line
    assert not (out / "summary.json").exists()


def test_run_whose_arc_length_overflows_exits_2(tmp_path, capsys):
    # The centerline speed, 2e306 mm/s, is finite and passes validation, but
    # one 1000 s row of it carries the body past the float range.
    doc = json.loads((SCENARIOS / "straight_run.json").read_text())
    doc["sim"].update(input_speed_rad_s=1e305, dt_s=1000, max_time_s=1e5)
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "float range" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_slip_torques_that_overflow_exit_1_at_parse(tmp_path, capsys):
    # Each factor of the slip loads is finite, but 1e308 times the widest
    # bend speed mismatch, 50 mm/s * 50 mm / 300 mm, overflows.
    doc = json.loads((SCENARIOS / "four_section.json").read_text())
    doc["sim"]["slip_stiffness"] = 1e308
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: sim.slip_stiffness: must be such that the slip torque of a "
        "8.333333333333334 mm/s speed mismatch is finite, got 1e+308\n")
    assert not out.exists()


def test_non_finite_summary_exits_2_without_writing(straight_scenario, tmp_path, monkeypatch,
                                                    capsys):
    # The summary writer reads the SimSummary that ``run`` returns.
    def run_to_inf(scenario):
        records, summary = run(scenario)
        return records, summary._replace(final_s=math.inf)

    monkeypatch.setattr(cli, "run_scenario", run_to_inf)
    out = tmp_path / "out"
    assert main(["run", str(straight_scenario), "--out", str(out)]) == 2
    assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_overflowing_bend_compression_exits_1_at_parse(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "four_section.json").read_text())
    doc["robot"].update(preload_mm=1e308, max_compression_mm=1.5e308)
    doc["sim"]["bend_extra_compression_mm"] = 1e308
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "error: sim.bend_extra_compression_mm: must be" in capsys.readouterr().err


def test_sweep_prints_each_orientation(straight_scenario, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(["sweep", str(straight_scenario), "--theta", "0,120,240", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("\n") >= 4
    payload = json.loads(out.read_text())
    assert [entry["orientation_deg"] for entry in payload] == [0.0, 120.0, 240.0]
    assert all(entry["error"] is None for entry in payload)


@pytest.mark.parametrize("theta", ["nan", "inf", "1e400", "-inf", "0,nan"])
def test_sweep_rejects_non_finite_orientations(theta, capsys):
    argv = ["sweep", str(SCENARIOS / "four_section.json"), f"--theta={theta}"]
    assert main(argv) == 1
    assert "error: --theta: must be finite, got" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["abc", "0,x"])
def test_sweep_rejects_non_numeric_orientations(theta, capsys):
    argv = ["sweep", str(SCENARIOS / "four_section.json"), f"--theta={theta}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: --theta: must be comma-separated numbers, got {theta!r}\n")


@pytest.mark.parametrize("theta", [",", " , ", ""])
def test_sweep_without_orientations_exits_1(theta, capsys):
    argv = ["sweep", str(SCENARIOS / "four_section.json"), f"--theta={theta}"]
    assert main(argv) == 1
    assert "error: --theta: must list at least one orientation" in capsys.readouterr().err


def test_bend_track_speed_that_underflows_exits_1_at_parse(tmp_path, capsys):
    # Module A rides the inside of the 100 mm bend, 50 mm from the axis, at
    # 5e-324 * 50 / 100 mm/s, which rounds to 0: no reference for its APE.
    doc = json.loads((SCENARIOS / "four_section.json").read_text())
    doc["pipe"]["segments"] = [{"kind": "bend", "bend_radius_mm": 100, "sweep_deg": 90}]
    doc["robot"].update(sprocket_radius_mm=1, orientation_deg=180)
    doc["sim"].update(input_speed_rad_s=5e-324, max_time_s=1)
    path = tmp_path / "crawl.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "error: sim.input_speed_rad_s: must be such that every bend track speed" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["run", str(SCENARIOS / "four_section.json"), "--format", "xml"], 1),
    (["simulate", str(SCENARIOS / "four_section.json")], 1),
    (["sweep", str(SCENARIOS / "four_section.json")], 1),  # --theta is required
    (["--help"], 0),
])
def test_usage_errors_exit_1_and_help_exits_0(argv, code, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.err if code else captured.out).startswith("usage: pipeclimb")


def test_dims_lookup(capsys):
    assert main(["dims", "6", "40"]) == 0
    assert "77.0" in capsys.readouterr().out


def test_dims_unknown_exits_1(capsys):
    assert main(["dims", "11", "40"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_outputs_match_their_recorded_digests(name, tmp_path):
    assert golden_corpus.digests(CORPUS[name], tmp_path) == GOLDEN[name], (
        f"digests written under {GOLDEN[golden_corpus.VERSIONS]}, "
        f"running under {golden_corpus.versions()}")


def test_corpus_check_names_each_moved_digest():
    old = {golden_corpus.VERSIONS: {"python": "3.11"}, "a": {"run": "1", "sweep": "2"},
           "b": {"run": "3"}, "gone": {"run": "4"}}
    new = {"a": {"run": "1", "sweep": "5"}, "b": {"run": "3"}, "c": {"validate": "6"}}
    assert golden_corpus.moved(old, new) == [("a", "sweep"), ("gone", "run"), ("c", "validate")]
    assert golden_corpus.moved(GOLDEN, GOLDEN) == []


def _compensated_sum(iterable, /, start=0, *, _sum=sum):
    """``sum`` as Python 3.12 and later round it for floats: Neumaier's
    compensated summation (ZAMM 54, 1974).  Anything but floats from a zero
    start goes to the builtin ``_sum``."""
    items = list(iterable)
    if start != 0 or not items or not all(isinstance(x, float) for x in items):
        return _sum(items, start)
    total = compensation = 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_corpus_digests_do_not_depend_on_how_sum_rounds(monkeypatch, tmp_path):
    # Python 3.12 changed how ``sum`` rounds floats; no output bit may follow it.
    names = random.Random(16).sample(list(CORPUS), 48)
    assert sum(name.startswith("generated_") for name in names) >= 10
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    moved = [name for name in names
             if golden_corpus.digests(CORPUS[name], tmp_path) != GOLDEN[name]]
    assert moved == []
