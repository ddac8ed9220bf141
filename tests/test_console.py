"""The console script's contract, each check in a fresh ``python -m
pipeclimber.cli`` process: exit codes, the key path on stderr, and the
layout of the files it writes; and README's library example, in a fresh
``python -S`` process.  ``-W error::RuntimeWarning`` makes a RuntimeWarning
fail the process, as pytest's filterwarnings does in-process.
"""

import json
import os
import re
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


def test_the_readme_library_example_runs_as_written():
    # -S leaves site-packages off the path: the library needs only the
    # standard library and src.
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-S", "-W", "error::RuntimeWarning", "-c", blocks[0]],
                            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr


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
    (edited('"dt_s": 0.01', '"dt_s": 0.01, "dt_s": 0.02').encode(), "duplicate key 'dt_s'"),
], ids=["unknown key", "UTF-16", "array", "nps array", "nested past the recursion limit",
        "5,000-digit integer", "duplicate key"])
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


@pytest.mark.parametrize("args", [
    ("run", FOUR_SECTION, "--out", "{tmp}"),
    ("run", FOUR_SECTION, "--format", "json", "--out", "{tmp}"),
    ("sweep", FOUR_SECTION, "--theta", "0,120,240", "--out", "{tmp}/sweep.json"),
    ("validate", FOUR_SECTION),
    ("dims", 6, 40),
], ids=["run", "run json", "sweep", "validate", "dims"])
def test_a_run_needs_nothing_from_site_packages(tmp_path, args):
    # -S leaves site-packages off the path, so only the stdlib and src import.
    result = pipeclimb(*(str(arg).format(tmp=tmp_path) for arg in args), python_flags=("-S",))
    assert result.returncode == 0, result.stderr


def test_no_command_imports_numpy(tmp_path):
    # In one process: importing the package and running each command through
    # ``main`` leaves numpy out of sys.modules, imported lazily on no path.
    script = """if True:
        import sys
        import pipeclimber, pipeclimber.cli
        scenario, out = sys.argv[1:]
        for argv in (["run", scenario, "--out", out + "/run"],
                     ["run", scenario, "--format", "json", "--out", out + "/json"],
                     ["sweep", scenario, "--theta", "0,120,240", "--out", out + "/sweep.json"]):
            assert pipeclimber.cli.main(argv) == 0, argv
        assert "numpy" not in sys.modules, [name for name in sys.modules if "numpy" in name]
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script, str(FOUR_SECTION), str(tmp_path)],
                            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr


def test_only_a_pipe_size_lookup_imports_importlib_resources(tmp_path):
    # Under -S no site hook imports it first.  A run that gives
    # inner_radius_mm never reads the bundled NPS table, so it leaves
    # importlib.resources (and the zipfile, tempfile and shutil it pulls in)
    # unimported; a run by nps and schedule, and ``dims``, still find the table.
    script = """if True:
        import sys
        import pipeclimber.cli
        straight, four_section, out = sys.argv[1:]
        assert pipeclimber.cli.main(["run", straight, "--out", out + "/straight"]) == 0
        assert "importlib.resources" not in sys.modules
        assert pipeclimber.cli.main(["run", four_section, "--out", out + "/four"]) == 0
        assert pipeclimber.cli.main(["dims", "6", "40"]) == 0
        assert "importlib.resources" in sys.modules
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-S", "-c", script,
                             str(ROOT / "scenarios" / "straight_run.json"), str(FOUR_SECTION),
                             str(tmp_path)],
                            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr
