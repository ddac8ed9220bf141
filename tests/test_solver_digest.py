"""``tools/solver_digest.py``, the bit check of the torque solve between two trees."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_solver_digest_is_deterministic():
    # Two fresh processes over the same 600 cases, each solved three ways, print one digest.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(ROOT / "tools" / "solver_digest.py"), "--seed", "5",
               "--count", "200", "--zeros", "200", "--bends", "200"]
    lines = [subprocess.run(command, capture_output=True, text=True, env=env, cwd=ROOT,
                            timeout=120, check=True).stdout for _ in range(2)]
    assert re.fullmatch(r"[0-9a-f]{64} 1800 solves 0 errors\n", lines[0]), lines[0]
    assert lines[1] == lines[0]
