"""Run the CI workflow's steps on this machine, as a runner would run them.

Each ``run:`` block of ``.github/workflows/tests.yml`` runs verbatim, in
order, as a script of ``bash --noprofile --norc -eo pipefail`` (the
workflow's ``shell: bash``), from the repository root, with the step's own
``env:``.  ``RUNNER_TEMP`` and ``GITHUB_STEP_SUMMARY`` point into a
temporary directory, removed at the end.  Unless a ``pipeclimb`` is
installed, one on ``PATH`` runs ``python -m pipeclimber.cli`` with ``src``
on ``PYTHONPATH``.  ``uses:`` steps and Install, which needs the network,
are skipped, each with a line that says so.  Every step's name, exit code
and wall time are printed at the end; the exit code is 1 if any step
failed::

    python tools/ci_local.py

The workflow is read by indentation with the standard library alone, not
by a YAML parser: a step is a ``- `` item under ``steps:``, and its keys
sit two columns in from the dash.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SKIPPED = {"Install": "it installs from the network"}


def _depth(line: str) -> int:
    return len(line) - len(line.lstrip())


def _keys(lines: list[str], indent: int) -> list[tuple[str, str, list[str]]]:
    """Each ``key: value`` at column ``indent`` in ``lines``, with the lines
    under it: every later line that is blank or indented deeper.  Comment
    lines at that column are skipped."""
    keys = []
    for line in lines:
        body = line.strip()
        if body and _depth(line) == indent and not body.startswith("#"):
            key, _, value = body.partition(":")
            keys.append((key, value.strip(), []))
        elif keys and (not body or _depth(line) > indent):
            keys[-1][2].append(line)
    return keys


def steps(workflow: str) -> list[tuple[str, str | None, dict]]:
    """(name, script, env) of each step of the workflow's job, in order.
    The script is the ``run:`` block with its indentation removed, as a
    runner gets it, or None for a ``uses:`` step, which is named by what it
    uses if it has no name."""
    lines = workflow.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "steps:")
    block = list(itertools.takewhile(
        lambda line: not line.strip() or _depth(line) > _depth(lines[start]), lines[start + 1:]))
    dash = next(_depth(line) for line in block if line.lstrip().startswith("- "))
    items = []
    for line in block:
        if _depth(line) == dash and line.lstrip().startswith("- "):
            items.append([" " * (dash + 2) + line.lstrip()[2:]])  # the item's first key
        elif items:
            items[-1].append(line)
    found = []
    for item in items:
        keys = {key: (value, under) for key, value, under in _keys(item, dash + 2)}
        name = keys.get("name", keys.get("uses"))[0]
        script = None
        if "run" in keys:
            value, under = keys["run"]
            script = textwrap.dedent("\n".join(under)).strip("\n") + "\n" if value == "|" else value
        env = {}
        if "env" in keys:
            under = [line for line in keys["env"][1] if line.strip()]
            env = {key: value.strip("\"'") for key, value, _ in _keys(under, _depth(under[0]))}
        found.append((name, script, env))
    return found


def _shim(folder: Path) -> None:
    """Put an executable ``pipeclimb`` in ``folder``: ``python -m
    pipeclimber.cli`` with the repository's ``src`` first on ``PYTHONPATH``."""
    shim = folder / "pipeclimb"
    shim.write_text(f'#!/bin/sh\nPYTHONPATH="{ROOT / "src"}${{PYTHONPATH:+:$PYTHONPATH}}" '
                    f'exec "{sys.executable}" -m pipeclimber.cli "$@"\n', encoding="utf-8")
    shim.chmod(0o755)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    results = []
    with tempfile.TemporaryDirectory(prefix="ci_local-") as tmp:
        tmp = Path(tmp)
        for folder in ("bin", "runner", "scripts"):
            (tmp / folder).mkdir()
        if shutil.which("pipeclimb") is None:
            _shim(tmp / "bin")
        env = dict(os.environ, PATH=f"{tmp / 'bin'}{os.pathsep}{os.environ.get('PATH', '')}",
                   RUNNER_TEMP=str(tmp / "runner"),
                   GITHUB_STEP_SUMMARY=str(tmp / "runner" / "step_summary.md"))
        for number, (name, script, step_env) in enumerate(steps(WORKFLOW.read_text("utf-8"))):
            reason = "a uses: step" if script is None else SKIPPED.get(name)
            if reason:
                print(f"--- skip {name}: {reason}", flush=True)
                results.append((name, None, 0.0))
                continue
            print(f"--- run {name}", flush=True)
            path = tmp / "scripts" / f"step{number}.sh"
            path.write_text(script, encoding="utf-8")
            start = time.perf_counter()
            code = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", str(path)],
                                  cwd=ROOT, env=env | step_env).returncode
            results.append((name, code, time.perf_counter() - start))
    print("\nstep                         exit   seconds")
    for name, code, seconds in results:
        print(f"{name:<28} {'skip' if code is None else code:>5} {seconds:>9.1f}")
    return 1 if any(code for _, code, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())
