"""The package's metadata against what the tests run on: the Python version
``pyproject.toml`` claims is the one CI's workflow installs."""

import re
import tomllib
from pathlib import Path

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
