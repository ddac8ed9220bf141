"""One SHA-256 digest over many torque-balance solves, to compare two trees bit for bit.

Solves three sets of cases with ``balance_state`` and hashes the ``float.hex`` of
every field of every ``TransmissionState``, or the name of the error a solve
raises:

* ``--count`` C1 cases on ``--seed``, drawn by ``tests/test_acceptance.random_case``;
* the first ``--zeros`` of the 8,192 signed-zero cases: three unit loads whose
  target speeds and offsets are each one of 0.0, -0.0, 1.0 and -1.0, at input
  speed 0.0 and -0.0;
* ``--bends`` bend-shaped cases on the same seed: the speeds a bend requires of
  the tracks, with one stiffness, sprocket radius and offset for all three.

Each case is solved three ways: as ``LinearLoad``s, which the solve walks from
their fields, and as a ``LinearLoad`` subclass and as loads that only have
``torque`` and ``inverse``, which it bisects through their methods, so every case
checks the walk against the bracketed search.  The ``pipeclimber`` imported is the
first on the path, so a run with ``PYTHONPATH`` at another tree's ``src``
digests that tree's solver::

    PYTHONPATH=src python tools/solver_digest.py --seed 20261021 --count 200000
    PYTHONPATH=/path/to/other/src python tools/solver_digest.py --seed 20261021 --count 200000
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))

from pipeclimber import LinearLoad, RobotParams, TransmissionConfig, balance_state  # noqa: E402
from pipeclimber import PipeClimberError, required_track_speeds  # noqa: E402
from test_acceptance import random_case  # noqa: E402

UNIT = TransmissionConfig()
SIGNS = (0.0, -0.0, 1.0, -1.0)


class SubclassLoad(LinearLoad):
    """A ``LinearLoad`` subclass that overrides nothing: the solve bisects it through its
    methods, on the same curve as the walk."""


class MethodLoad:
    """A ``LinearLoad``'s curve behind its methods only: the solve bisects."""

    def __init__(self, *fields):
        load = LinearLoad(*fields)
        self.torque, self.inverse = load.torque, load.inverse


def c1_cases(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        loads, config, input_speed = random_case(rng)
        yield [(l.stiffness, l.wheel_radius, l.target_speed, l.offset) for l in loads], \
            config, input_speed


def signed_zero_cases():
    for targets in itertools.product(SIGNS, repeat=3):
        for offsets in itertools.product(SIGNS, repeat=3):
            for input_speed in (0.0, -0.0):
                yield [(1.0, 1.0, t, o) for t, o in zip(targets, offsets)], UNIT, input_speed


def bend_cases(seed: int, count: int):
    rng = np.random.default_rng([seed, 1])
    for _ in range(count):
        radius, orientation = rng.uniform(150.0, 1000.0), rng.uniform(0.0, 360.0)
        stiffness = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.01, 100.0))
        offset = 0.0 if rng.random() < 0.5 else float(rng.uniform(-5.0, 5.0))
        input_speed = float(rng.uniform(0.5, 5.0))
        robot = RobotParams(50.0, 20.0, float(orientation), 1000.0, 8.0, 3.0, 0.4, 200.0)
        required = required_track_speeds(1.0 / float(radius), 20.0 * input_speed, robot)
        yield [(stiffness, 20.0, float(v), offset) for v in required], UNIT, input_speed


def digest(seed: int, count: int, zeros: int, bends: int) -> tuple[str, int, int]:
    """The hex digest, the number of solves and the number of errors."""
    sha = hashlib.sha256()
    solves = errors = 0
    cases = itertools.chain(c1_cases(seed, count), itertools.islice(signed_zero_cases(), zeros),
                            bend_cases(seed, bends))
    for fields, config, input_speed in cases:
        for load_type in (LinearLoad, SubclassLoad, MethodLoad):
            solves += 1
            try:
                state = balance_state(input_speed, [load_type(*f) for f in fields], config)
            except PipeClimberError as err:
                errors += 1
                sha.update(type(err).__name__.encode())
            else:
                for field in state:
                    for value in field if isinstance(field, tuple) else (field,):
                        sha.update(float(value).hex().encode())
            sha.update(b";")
    return sha.hexdigest(), solves, errors


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=1000, help="C1 cases")
    parser.add_argument("--zeros", type=int, default=8192, help="signed-zero cases")
    parser.add_argument("--bends", type=int, default=9000, help="bend-shaped cases")
    args = parser.parse_args(argv)
    hexdigest, solves, errors = digest(args.seed, args.count, args.zeros, args.bends)
    print(f"{hexdigest} {solves} solves {errors} errors")


if __name__ == "__main__":
    main()
