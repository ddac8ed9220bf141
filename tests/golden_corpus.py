"""Identity corpus: scenario documents whose CLI outputs must not change.

Each document runs in-process through ``pipeclimb validate``, ``run`` with
CSV records and ``sweep --theta 0,77,200 --out``; the two shipped scenarios
also through ``run --format json``.  One SHA-256 per document and command
covers the exit code, stdout, stderr and every output file, with the
temporary directory replaced by a fixed token.  ``golden.json`` holds the
digests and ``test_cli.py`` checks them.

The documents are the shipped scenarios, the benchmark's generated
networks for seeds 0-9, each of those pushed into the tilt and compression
limits, cut short by ``max_time_s`` and run at ``dt_s`` 0.05 and 0.005,
and documents that probe the float range.  The digests hold for Python
3.11: from 3.12 on ``sum``, which the solver's residual uses, rounds
differently.

Rewrite the digests only after an intended change of output::

    PYTHONPATH=src python tests/golden_corpus.py --write
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import random
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from pipeclimber import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
SHIPPED = ("four_section", "straight_run")
THETAS = "0,77,200"
TOKEN = "<tmp>"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _edit(doc: dict, **sections) -> dict:
    """A deep copy of ``doc`` with each section dict updated."""
    doc = copy.deepcopy(doc)
    for section, values in sections.items():
        doc[section].update(values)
    return doc


def documents() -> dict:
    """Document name -> scenario dict, in a fixed order."""
    bases = {name: json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
             for name in SHIPPED}
    generated_scenario = _workloads().generated_scenario
    for seed in range(10):
        bases[f"generated_{seed}"] = generated_scenario(random.Random(seed))

    docs = {}
    for name, doc in bases.items():
        docs[name] = doc
        docs[f"{name}+tilt"] = _edit(doc, robot={"max_asym_deg": 0.1})
        docs[f"{name}+compression"] = _edit(doc, robot={"max_compression_mm": 9})
        docs[f"{name}+cut"] = _edit(doc, sim={"max_time_s": 0.15 * doc["sim"]["max_time_s"]})
        for dt in (0.05, 0.005):
            docs[f"{name}+dt{dt}"] = _edit(doc, sim={"dt_s": dt})

    four, straight = bases["four_section"], bases["straight_run"]
    docs["four_section+slip_stiffness_1e308"] = _edit(four, sim={"slip_stiffness": 1e308})
    docs["straight_run+arc_length_overflow"] = _edit(
        straight, sim={"input_speed_rad_s": 1e305, "dt_s": 1000, "max_time_s": 1e5})
    docs["four_section+compression_overflow"] = _edit(
        four, robot={"preload_mm": 1e308, "max_compression_mm": 1.5e308},
        sim={"bend_extra_compression_mm": 1e308})
    docs["four_section+track_speed_underflow"] = _edit(
        four, pipe={"segments": [{"kind": "bend", "bend_radius_mm": 100, "sweep_deg": 90}]},
        robot={"sprocket_radius_mm": 1, "orientation_deg": 180},
        sim={"input_speed_rad_s": 5e-324, "max_time_s": 1})
    straights = [{"kind": "straight", "length_mm": length} for length in (100, 1e308, 1e308)]
    for label, segments in {
        "network_sum": straights,
        "network_arc": [*straights[:2],
                        {"kind": "bend", "bend_radius_mm": 1e308, "sweep_deg": 180}],
        "network_centre": [straights[1], {"kind": "bend", "bend_radius_mm": 100, "sweep_deg": 90},
                           {"kind": "bend", "bend_radius_mm": 1e308, "sweep_deg": 1e-10,
                            "roll_deg": 180}],
    }.items():
        docs[f"straight_run+{label}_overflow"] = _edit(straight, pipe={"segments": segments})
    return docs


def _argv(command: str, scenario: str, out: Path) -> list[str]:
    return {
        "validate": ["validate", scenario],
        "run": ["run", scenario, "--out", str(out)],
        "run_json": ["run", scenario, "--out", str(out), "--format", "json"],
        "sweep": ["sweep", scenario, "--theta", THETAS, "--out", str(out / "sweep.json")],
    }[command]


def digest(doc: dict, command: str, workdir: Path) -> str:
    """SHA-256 over one command's exit code, output streams and output files."""
    scenario = workdir / "scenario.json"
    scenario.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    out = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    # A numpy RuntimeWarning raises, as under pytest, rather than print to stderr.
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(_argv(command, str(scenario), out))
    parts = [str(code), stdout.getvalue(), stderr.getvalue()]
    parts = [part.replace(str(workdir), TOKEN).encode("utf-8") for part in parts]
    if out.exists():
        for path in sorted(out.rglob("*")):
            parts += [path.relative_to(out).as_posix().encode("utf-8"), path.read_bytes()]
        shutil.rmtree(out)
    sha = hashlib.sha256()
    for part in parts:
        sha.update(len(part).to_bytes(8, "little"))
        sha.update(part)
    return sha.hexdigest()


def digests(doc: dict, name: str, workdir: Path) -> dict:
    """Command -> digest; only the shipped scenarios write the costly JSON records."""
    commands = ("validate", "run", "sweep") + (("run_json",) if name in SHIPPED else ())
    return {command: digest(doc, command, workdir) for command in commands}


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digests(doc, name, Path(tmp)) for name, doc in documents().items()}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"{len(table)} documents -> {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
