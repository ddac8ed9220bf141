"""The package's metadata against what the tests run on: the Python version
``pyproject.toml`` claims is the one CI's workflow installs, and a built
package carries the files it reads."""

import os
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

from pipeclimber import cli

ROOT = Path(__file__).resolve().parents[1]


def test_requires_python_is_the_version_ci_tests():
    # The tests call math.cbrt, new in 3.11, and golden.json was recorded
    # under 3.11; CI runs one version, the floor the package claims.
    with open(ROOT / "pyproject.toml", "rb") as handle:
        floor = tomllib.load(handle)["project"]["requires-python"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    tested = re.findall(r'^\s*python-version:\s*"([^"]+)"\s*$', workflow, re.MULTILINE)
    assert len(tested) == 1, tested
    assert floor == f">={tested[0]}"


def test_a_built_package_carries_its_pipe_table(tmp_path, capsys):
    # setuptools' build_py lays out the tree a wheel would hold, offline; an
    # editable install reads the table from src/ and cannot tell.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    built = tmp_path / "lib"
    subprocess.run([sys.executable, "-c", "import setuptools; setuptools.setup()",
                    "build_py", "--build-lib", str(built)],
                   cwd=tmp_path, check=True, capture_output=True)
    # -S and no PYTHONPATH: the package can come from the built tree alone.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    dims = subprocess.run([sys.executable, "-S", "-m", "pipeclimber.cli", "dims", "6", "40"],
                          cwd=built, env=env, capture_output=True, text=True)
    assert cli.main(["dims", "6", "40"]) == 0
    assert (dims.returncode, dims.stdout, dims.stderr) == (0, capsys.readouterr().out, "")
