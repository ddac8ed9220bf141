"""In-pipe climbing robot simulator.

A quasi-static model of a three-track pipe climbing robot driven by a
single-input, three-output open differential.  The differential averages
output speeds and equalizes output torques, which lets the tracks settle on
the exact speeds pipe bends demand, without slip and without any steering
control.  The package provides the gear-train solver, pipe-network
geometry, the robot's spring/traction model, the traversal simulator, and a
scenario-file CLI.
"""

from .differential import (
    LinearLoad,
    TorqueBalance,
    TransmissionConfig,
    TransmissionState,
    balance_state,
    internal_state,
    power_balance,
    solve_torque_balance,
)
from .dimensions import pipe_dimensions, pipe_inner_diameter, pipe_inner_radius
from .errors import (
    AsymmetryLimit,
    BadSegment,
    CompressionLimit,
    ConfigError,
    EmptyNetwork,
    InconsistentOutputs,
    IoError,
    MaxTimeExceeded,
    NoBracket,
    NonMonotoneLoad,
    OutOfRange,
    ParseError,
    PipeClimberError,
    SimulationError,
    UnknownSize,
    ValidationError,
)
from .geometry import Bend, CenterlinePose, PipeNetwork, Straight, build_network, pose_at
from .robot import (
    RobotParams,
    asymmetry_deg,
    required_track_speeds,
    spring_compression,
    track_path_radius,
    traction_force,
    tractive_effort_and_torque,
)
from .scenario_io import (
    CSV_COLUMNS,
    emit_records,
    parse_scenario,
    scenario_from_dict,
    summary_to_dict,
    write_summary,
    write_sweep,
)
from .simulator import (
    Piece,
    Records,
    Scenario,
    SimRecord,
    SimSummary,
    SegmentStats,
    SweepEntry,
    ape,
    run,
    step,
    sweep_orientation,
)

__version__ = "0.1.0"
