"""``tools/ci_local.py``'s reading of the workflow, checked against the file
itself; the steps are not run."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("ci_local", ROOT / "tools" / "ci_local.py")
ci_local = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ci_local)


def test_every_named_run_step_is_found_verbatim():
    # A step the extractor missed would be skipped without a word, so every
    # "- name:" item of the workflow must come back, in order, and each one
    # with a run: key must come back with a script whose every line is one
    # of the workflow's lines, less its indentation (and "run: ", for a
    # one-line script).
    workflow = ci_local.WORKFLOW.read_text(encoding="utf-8")
    lines = workflow.splitlines()
    steps = ci_local.steps(workflow)
    named = re.findall(r"^ *- name: (.+)$", workflow, re.MULTILINE)
    assert [name for name, _, _ in steps if name in named] == named
    runs = len(re.findall(r"^ +run: \S", workflow, re.MULTILINE))
    scripts = {name: script for name, script, _ in steps if script is not None}
    assert len(scripts) == runs and set(scripts) <= set(named)
    assert {"Install", "Tier-1 tests", "Solver digest", "Console script"} <= set(scripts)
    for name, script in scripts.items():
        for line in script.splitlines():
            assert not line or any(row.endswith(line) and re.fullmatch(r" *(run: )?",
                                                                        row[:-len(line)])
                                   for row in lines), (name, line)
    # The heredoc's end marker sits at column 0 once the block is dedented.
    assert "\nEOF\n" in scripts["Console script"]
    assert dict((name, env) for name, _, env in steps)["Console script"] == {
        "PYTHONWARNINGS": "error::RuntimeWarning"}
