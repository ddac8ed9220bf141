"""Command-line front end.

Subcommands: run a scenario, sweep it over module orientations, validate a
scenario file, look up pipe dimensions.  Exit codes: 0 success, 1 usage
error or scenario parse/validation problem, 2 simulation limit or solver
failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .dimensions import pipe_dimensions, pipe_inner_radius
from .errors import ConfigError, IoError, MaxTimeExceeded, SimulationError, ValidationError
from .scenario_io import emit_records, parse_scenario, write_summary, write_sweep
from .scenario_io import summary_to_dict  # noqa: F401 (bench/tracing.py wraps cli.summary_to_dict)
from .simulator import run as run_scenario
from .simulator import sweep_orientation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIMULATION = 2
EXIT_IO = 3


def _print_summary(summary) -> None:
    print(f"finished in {summary.finish_time:.2f} s, "
          f"travelled {summary.final_s:.1f} mm "
          f"(reported distance {summary.total_distance_mm:.1f} mm)")
    print(f"max |slip| {summary.max_abs_slip:.3e} mm/s, "
          f"max compression {summary.max_compression:.2f} mm")
    print("segment  kind      entry->exit [s]   mean track speeds [mm/s]        APE [%]")
    for seg in summary.segments:
        speeds = " ".join(f"{v:8.3f}" for v in seg.mean_track_speeds)
        apes = " ".join(f"{e:.2e}" for e in seg.ape_percent)
        print(f"{seg.index:7d}  {seg.kind:8s} {seg.entry_time:7.2f} {seg.exit_time:7.2f}   "
              f"{speeds}  {apes}")


def _cmd_run(args) -> int:
    scenario = parse_scenario(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / f"records.{args.format}"
    try:
        records, summary = run_scenario(scenario)
    except MaxTimeExceeded as exc:
        # Keep the partial results inspectable, then fail.
        emit_records(exc.records, args.format, records_path)
        raise
    emit_records(records, args.format, records_path)
    write_summary(summary, out_dir / "summary.json")
    _print_summary(summary)
    print(f"records -> {records_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = parse_scenario(args.scenario)
    try:
        thetas = [float(part) for part in args.theta.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"must be comma-separated numbers, got {args.theta!r}",
                              "--theta") from None
    if not thetas:
        raise ValidationError(f"must list at least one orientation, got {args.theta!r}",
                              "--theta")
    try:
        entries = sweep_orientation(scenario, thetas)
    except ValidationError as exc:  # only the orientations are new to the scenario
        raise ValidationError(exc.reason, "--theta") from None
    failed = False
    print("theta [deg]   finish [s]   max |slip| [mm/s]   worst APE [%]")
    for entry in entries:
        if entry.ok:
            s = entry.summary
            print(f"{entry.orientation_deg:11.1f}   {s.finish_time:10.2f}   "
                  f"{s.max_abs_slip:17.3e}   {max(s.per_track_ape_percent):.3e}")
        else:
            failed = True
            print(f"{entry.orientation_deg:11.1f}   failed: {entry.error}")
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_sweep(entries, out_path)
        print(f"sweep -> {out_path}")
    return EXIT_SIMULATION if failed else EXIT_OK


def _cmd_validate(args) -> int:
    scenario = parse_scenario(args.scenario)
    print(f"{args.scenario}: OK "
          f"({len(scenario.network.segments)} segments, "
          f"{scenario.network.total_length:.1f} mm)")
    return EXIT_OK


def _cmd_dims(args) -> int:
    od, wall = pipe_dimensions(args.nps, args.schedule)
    radius = pipe_inner_radius(args.nps, args.schedule)
    print(f"NPS {args.nps} schedule {args.schedule}: "
          f"OD {od:.3f} mm, wall {wall:.3f} mm, "
          f"ID {2 * radius:.3f} mm, inner radius {radius:.4f} mm")
    return EXIT_OK


@functools.cache  # one argparse tree per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipeclimb",
        description="Quasi-static simulator for a differential-driven in-pipe climbing robot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write records + summary")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario at several module orientations")
    p_sweep.add_argument("scenario", help="scenario JSON file")
    p_sweep.add_argument("--theta", required=True, help="comma-separated orientations in degrees")
    p_sweep.add_argument("--out", default=None, help="optional JSON output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file and exit")
    p_val.add_argument("scenario", help="scenario JSON file")
    p_val.set_defaults(func=_cmd_validate)

    p_dims = sub.add_parser("dims", help="look up pipe dimensions by NPS and schedule")
    p_dims.add_argument("nps")
    p_dims.add_argument("schedule")
    p_dims.set_defaults(func=_cmd_dims)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error, or the help
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (IoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
