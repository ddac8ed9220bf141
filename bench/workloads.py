"""The benchmark's three workloads: seeded inputs, one op each, output checks.

Importing this module imports ``pipeclimber``, so ``run.py`` imports it
inside the timed set-up.  Every workload is a closed loop with one client:
the next op starts when the previous one has returned.

Constructing a workload generates, parses and validates its inputs.  Then
``op(index)`` runs one operation and ``collect(result)`` reads its outputs
back, untimed, and removes them.  ``check`` returns the list of problems
found in collected outputs (empty when they are correct), ``perturb``
returns a damaged copy that ``check`` must reject, and ``rows`` counts the
records one op simulated.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import pipeclimber
from pipeclimber import cli

SLIP_LIMIT_MM_S = 1e-6
APE_LIMIT_PERCENT = 0.1
FINISH_AGREEMENT = 0.005  # finish times across orientations, relative
SOLVER_REL_TOL = 1e-9  # C1 averaging residual and C2 torque spread

# records.csv of `pipeclimb run scenarios/four_section.json --format csv`,
# recorded at the commit that defined this benchmark.
FOUR_SECTION_RECORDS_SHA256 = (
    "623795f54112ed15afc1108057e9302675e4b99e5a336a5a20ca101573caba67"
)

_SLIP_COLUMNS = ("slipA_mm_s", "slipB_mm_s", "slipC_mm_s")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _quiet_cli(argv) -> int:
    """Call ``pipeclimber.cli.main`` in-process with its output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class CliFourSection:
    """`pipeclimb run` on the shipped four-section scenario, CSV records.

    The main user path: every layer works, stepping dominates.  The seed
    does not change the input; the `_balance` cache is warm after the
    first op, as it is for any caller that runs more than once.
    """

    name = "cli_four_section"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.scenario_path = root / "scenarios" / "four_section.json"
        text = self.scenario_path.read_bytes()
        self.sim_scenario = pipeclimber.parse_scenario(self.scenario_path)
        self.sim_scenario.validate()
        self.inputs_digest = _sha256(text)
        self.out_dir = workdir / "run"
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def op(self, index: int):
        return _quiet_cli(
            ["run", str(self.scenario_path), "--out", str(self.out_dir), "--format", "csv"]
        )

    def collect(self, status):
        records, summary = self.out_dir / "records.csv", self.out_dir / "summary.json"
        out = {
            "status": status,
            "csv": records.read_bytes(),
            "summary": json.loads(summary.read_text(encoding="utf-8")),
        }
        records.unlink()  # so that the next op's check cannot read stale files
        summary.unlink()
        return out

    def check(self, out) -> list[str]:
        problems = []
        if out["status"] != 0:
            problems.append(f"exit code {out['status']}")
        if _sha256(out["csv"]) != FOUR_SECTION_RECORDS_SHA256:
            problems.append("records.csv digest differs from the recorded one")
        rows = list(csv.DictReader(io.StringIO(out["csv"].decode("utf-8"))))
        max_slip = max(abs(float(row[c])) for row in rows for c in _SLIP_COLUMNS)
        if not max_slip < SLIP_LIMIT_MM_S:
            problems.append(f"max |slip| {max_slip} mm/s")
        worst_ape = max(out["summary"]["per_track_ape_percent"])
        if not worst_ape <= APE_LIMIT_PERCENT:
            problems.append(f"worst APE {worst_ape} %")
        return problems

    def perturb(self, out):
        header, first, rest = out["csv"].split(b"\n", 2)
        fields = first.split(b",")
        fields[-7] = b"0.001"  # slipA_mm_s of the first record
        return dict(out, csv=b"\n".join([header, b",".join(fields), rest]))

    def rows(self, out) -> int:
        return out["csv"].count(b"\n") - 1


# Shape of the generated network: alternating straights and bends drawn from
# these ranges.  A draw is kept only when its straights and its bends each
# add up to their target length within LENGTH_TOLERANCE: a bend step costs
# more than a straight one, so fixing both keeps the work per op the same
# for every seed.
SEGMENTS = 12
ORIENTATIONS = 3
STRAIGHT_MM = (100.0, 600.0)
BEND_RADIUS_MM = (150.0, 600.0)
BEND_SWEEP_DEG = (15.0, 180.0)
BEND_ROLL_DEG = (0.0, 360.0)
STRAIGHTS_TOTAL_MM = 2100.0
BENDS_TOTAL_MM = 3900.0
LENGTH_TOLERANCE = 0.02


def generated_segments(rng: random.Random) -> list[dict]:
    """Draw alternating segments until both length totals are on target."""
    while True:
        segments, straights, bends = [], 0.0, 0.0
        for k in range(SEGMENTS):
            if k % 2 == 0:
                length = rng.uniform(*STRAIGHT_MM)
                segments.append({"kind": "straight", "length_mm": length})
                straights += length
            else:
                radius = rng.uniform(*BEND_RADIUS_MM)
                sweep = rng.uniform(*BEND_SWEEP_DEG)
                segments.append(
                    {
                        "kind": "bend",
                        "bend_radius_mm": radius,
                        "sweep_deg": sweep,
                        "roll_deg": rng.uniform(*BEND_ROLL_DEG),
                    }
                )
                bends += radius * math.radians(sweep)
        if (
            abs(straights - STRAIGHTS_TOTAL_MM) <= LENGTH_TOLERANCE * STRAIGHTS_TOTAL_MM
            and abs(bends - BENDS_TOTAL_MM) <= LENGTH_TOLERANCE * BENDS_TOTAL_MM
        ):
            return segments


def generated_scenario(rng: random.Random) -> dict:
    center_speed_mm_s = 2.5 * 20.0  # input speed * sprocket radius
    return {
        "pipe": {"inner_radius_mm": 77.0, "segments": generated_segments(rng)},
        "robot": {
            "h_mm": 50, "sprocket_radius_mm": 20, "orientation_deg": 0,
            "spring_k_n_per_m": 1000, "preload_mm": 8, "max_compression_mm": 16,
            "springs": 12, "mass_kg": 3, "mu": 0.4, "robot_length_mm": 200,
            "max_asym_deg": 10,
        },
        "transmission": {"g1": 1.0, "g2": 1.0, "efficiency": 1.0},
        "sim": {
            "input_speed_rad_s": 2.5, "slip_stiffness": 1.0, "dt_s": 0.05,
            "max_time_s": 3.0 * (STRAIGHTS_TOTAL_MM + BENDS_TOTAL_MM) / center_speed_mm_s,
            "bend_extra_compression_mm": 1.5,
        },
    }


class SweepGenerated:
    """`pipeclimb sweep` over a seeded network at ORIENTATIONS angles.

    Many segments and distinct bend loads per op; no records are written,
    only the sweep summary.  The orientations are k * 360/ORIENTATIONS + phi
    with a fresh phi per op, so every bend equilibrium misses the solver
    cache as in a fresh sweep; finish time does not depend on orientation,
    so the work per op stays constant.
    """

    name = "sweep_generated"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed
        text = json.dumps(generated_scenario(random.Random(seed)), indent=1) + "\n"
        workdir.mkdir(parents=True, exist_ok=True)
        self.scenario_path = workdir / "generated.json"
        self.scenario_path.write_text(text, encoding="utf-8")
        if _quiet_cli(["validate", str(self.scenario_path)]) != 0:
            raise RuntimeError("generated scenario fails `pipeclimb validate`")
        self.sim_scenario = pipeclimber.parse_scenario(self.scenario_path)
        self.dt_s = self.sim_scenario.dt_s
        self.inputs_digest = _sha256(text.encode("utf-8"))
        self.out_path = workdir / "sweep.json"

    def thetas(self, index: int) -> list[float]:
        step = 360.0 / ORIENTATIONS
        phi = random.Random(f"phi-{self.seed}-{index}").uniform(0.0, step)
        return [k * step + phi for k in range(ORIENTATIONS)]

    def op(self, index: int):
        theta = ",".join(repr(t) for t in self.thetas(index))
        return _quiet_cli(
            ["sweep", str(self.scenario_path), "--theta", theta, "--out", str(self.out_path)]
        )

    def collect(self, status):
        entries = json.loads(self.out_path.read_text(encoding="utf-8"))
        self.out_path.unlink()  # so that the next op's check cannot read a stale file
        return {"status": status, "entries": entries}

    def check(self, out) -> list[str]:
        problems = []
        if out["status"] != 0:
            problems.append(f"exit code {out['status']}")
        entries = out["entries"]
        if len(entries) != ORIENTATIONS:
            problems.append(f"{len(entries)} sweep entries, expected {ORIENTATIONS}")
        summaries = [e["summary"] for e in entries if e["error"] is None and e["summary"]]
        if len(summaries) != len(entries):
            problems.append("a sweep entry failed")
        if not summaries:
            return problems
        for s in summaries:
            if not s["max_abs_slip"] < SLIP_LIMIT_MM_S:
                problems.append(f"max |slip| {s['max_abs_slip']} mm/s")
            if not max(s["per_track_ape_percent"]) <= APE_LIMIT_PERCENT:
                problems.append(f"worst APE {max(s['per_track_ape_percent'])} %")
        finish = [s["finish_time"] for s in summaries]
        if not max(finish) <= (1.0 + FINISH_AGREEMENT) * min(finish):
            problems.append(f"finish times disagree: {min(finish)}..{max(finish)} s")
        return problems

    def perturb(self, out):
        entries = json.loads(json.dumps(out["entries"]))
        entries[-1]["summary"]["finish_time"] *= 1.0 + 2.0 * FINISH_AGREEMENT
        return dict(out, entries=entries)

    def rows(self, out) -> int:
        return sum(
            round(e["summary"]["finish_time"] / self.dt_s)
            for e in out["entries"] if e["summary"]
        )


CASES_PER_OP = 1000


def random_case(rng):
    """One solver case, drawn from the ranges of the C1 acceptance generator."""
    loads = tuple(
        pipeclimber.LinearLoad(
            stiffness=float(rng.uniform(0.1, 10.0)),
            wheel_radius=float(rng.uniform(0.5, 2.0)),
            target_speed=float(rng.uniform(-50.0, 50.0)),
            offset=float(rng.uniform(-5.0, 5.0)),
        )
        for _ in range(3)
    )
    config = pipeclimber.TransmissionConfig(
        ring_ratio=float(rng.uniform(0.3, 3.0)),
        output_ratio=float(rng.uniform(0.3, 3.0)),
    )
    input_speed = float(rng.uniform(-20.0, 20.0))
    return loads, config, input_speed


class SolverRandom:
    """CASES_PER_OP `balance_state` calls on seeded random load cases.

    The differential does almost all the work and nothing is cached; the
    scenario workloads run at most a few dozen solves per op, so a solver
    change shows here and nowhere else.
    """

    name = "solver_random"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.sim_scenario = None
        rng = np.random.default_rng(seed)
        self.cases = [random_case(rng) for _ in range(CASES_PER_OP)]
        self.inputs_digest = _sha256(repr(self.cases).encode("utf-8"))

    def op(self, index: int):
        balance_state = pipeclimber.balance_state
        return [balance_state(speed, loads, config) for loads, config, speed in self.cases]

    def collect(self, states):
        return {"states": [(s.output_speeds, s.output_torques[0]) for s in states]}

    def check(self, out) -> list[str]:
        states = out["states"]
        if len(states) != len(self.cases):
            return [f"{len(states)} states for {len(self.cases)} cases"]
        worst_mean = worst_spread = 0.0
        for (loads, config, speed), (speeds, torque) in zip(self.cases, states):
            target = config.overall_ratio * speed
            worst_mean = max(worst_mean, abs(sum(speeds) / 3.0 - target) / max(1.0, abs(target)))
            torques = [load.torque(w) for load, w in zip(loads, speeds)]
            worst_spread = max(
                worst_spread, (max(torques) - min(torques)) / max(1.0, abs(torque))
            )
        problems = []
        if not worst_mean <= SOLVER_REL_TOL:
            problems.append(f"averaging residual {worst_mean}")
        if not worst_spread <= SOLVER_REL_TOL:
            problems.append(f"torque spread {worst_spread}")
        return problems

    def perturb(self, out):
        states = list(out["states"])
        speeds, torque = states[0]
        states[0] = ((speeds[0] + 1e-6 * max(1.0, abs(speeds[0])),) + speeds[1:], torque)
        return {"states": states}

    def rows(self, out) -> int:
        return len(out["states"])


WORKLOADS = {w.name: w for w in (CliFourSection, SweepGenerated, SolverRandom)}
