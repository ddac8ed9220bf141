"""The console script's contract, each check in a fresh ``python -m
pipeclimber.cli`` process: exit codes, the key path on stderr, and the
layout of the files it writes.  ``-W error::RuntimeWarning`` makes a numpy
RuntimeWarning fail the process, as pytest's filterwarnings does in-process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FOUR_SECTION = ROOT / "scenarios" / "four_section.json"


def pipeclimb(*args, python_flags=("-W", "error::RuntimeWarning")):
    """Run ``python -m pipeclimber.cli`` with ``args`` from the repository
    root, with ``PYTHONPATH`` the ``src`` folder alone."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *python_flags, "-m", "pipeclimber.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)


def edited(old: str, new: str) -> str:
    """The four-section scenario's text with ``old`` replaced by ``new``."""
    text = FOUR_SECTION.read_text(encoding="utf-8")
    assert text.count(old) == 1
    return text.replace(old, new)


TILT = edited('"max_asym_deg": 10', '"max_asym_deg": 0.1')
COMPRESSION = edited('"max_compression_mm": 16', '"max_compression_mm": 9')


def test_validate_accepts_the_shipped_scenario():
    result = pipeclimb("validate", FOUR_SECTION)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("document, stderr", [
    (edited('"dt_s"', '"dt_sec"').encode(), "sim.dt_sec"),
    (b"\xff\xfe{\x00}\x00", "not UTF-8"),
    (b"[1, 2]\n", "expected an object, got array"),
    (edited('"nps": "6"', '"nps": [6]').encode(), "pipe.nps"),
    (b"[" * 200_000, "error: malformed scenario"),
    (b'{"pipe": ' + b"1" * 5_000 + b"}\n", "error: malformed scenario"),
], ids=["unknown key", "UTF-16", "array", "nps array", "nested past the recursion limit",
        "5,000-digit integer"])
def test_a_bad_document_exits_1(tmp_path, document, stderr):
    path = tmp_path / "scenario.json"
    path.write_bytes(document)
    result = pipeclimb("validate", path)
    assert result.returncode == 1
    assert stderr in result.stderr
    assert "Traceback" not in result.stderr


def test_an_unknown_record_format_exits_1(tmp_path):
    result = pipeclimb("run", FOUR_SECTION, "--out", tmp_path / "xml", "--format", "xml")
    assert result.returncode == 1
    assert "invalid choice: 'xml'" in result.stderr


@pytest.mark.parametrize("document, stderr", [
    (TILT, "module A tilts 0.430 deg"), (COMPRESSION, "module A needs 9.500 mm"),
], ids=["tilt", "compression"])
def test_a_run_over_a_limit_exits_2(tmp_path, document, stderr):
    path = tmp_path / "scenario.json"
    path.write_text(document, encoding="utf-8")
    result = pipeclimb("run", path, "--out", tmp_path / "out")
    assert result.returncode == 2
    assert stderr in result.stderr


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The files of a CSV run, a JSON run, a sweep, and a sweep whose entries
    fail, each written by its own process that exits as expected."""
    folder = tmp_path_factory.mktemp("console")
    tilt = folder / "tilt.json"
    tilt.write_text(TILT, encoding="utf-8")
    for argv, code in [
        (("run", FOUR_SECTION, "--out", folder / "run"), 0),
        (("run", FOUR_SECTION, "--out", folder / "run-json", "--format", "json"), 0),
        (("sweep", FOUR_SECTION, "--theta", "0,120", "--out", folder / "sweep.json"), 0),
        (("sweep", tilt, "--theta", "0,120", "--out", folder / "tilt-sweep.json"), 2),
    ]:
        result = pipeclimb(*argv)
        assert result.returncode == code, result.stderr
    return folder


def test_json_records_hold_one_object_per_csv_row(outputs):
    csv_rows = (outputs / "run" / "records.csv").read_text().count("\n") - 1
    json_rows = json.loads((outputs / "run-json" / "records.json").read_text())
    assert len(json_rows) == csv_rows == 4528
    assert all(type(row) is dict for row in json_rows)


def test_a_failed_sweep_entry_carries_its_error(outputs):
    text = (outputs / "tilt-sweep.json").read_text(encoding="utf-8")
    assert '"error": "' in text
    assert all(entry["summary"] is None for entry in json.loads(text))


@pytest.mark.parametrize("name", ["run/summary.json", "sweep.json", "tilt-sweep.json"])
def test_summary_files_are_laid_out_as_json_dumps_indent_1(outputs, name):
    text = (outputs / name).read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=1) + "\n"


@pytest.mark.xfail(strict=True, reason="src imports numpy (D11)")
def test_a_run_needs_nothing_from_site_packages(tmp_path):
    # -S leaves site-packages off the path, so only the stdlib and src import.
    result = pipeclimb("run", "scenarios/four_section.json", "--out", tmp_path,
                       python_flags=("-S",))
    assert result.returncode == 0, result.stderr
