"""Exception hierarchy shared by all pipeclimber modules.

Three families matter for the CLI exit codes: configuration problems
(bad scenario files, unknown pipe sizes), simulation problems (physical
limits or solver failures hit while running), and plain I/O failures.
"""

import math


class PipeClimberError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PipeClimberError):
    """Scenario/definition problems detectable before a simulation runs."""


class ParseError(ConfigError):
    """Scenario file is not well-formed (carries a line number when known)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class ValidationError(ConfigError, ValueError):
    """A value violates an invariant.

    ``path`` names the offending value: a dataclass field name when a
    validator raises, the document key path once the scenario parser has
    re-raised it.
    """

    def __init__(self, reason, path=None):
        super().__init__(reason if path is None else f"{path}: {reason}")
        self.reason = reason
        self.path = path


def require(ok: bool, field: str, value, rule: str) -> None:
    """Raise ValidationError at ``field`` unless ``ok``: "must be <rule>"."""
    if not ok:
        raise ValidationError(f"must be {rule}, got {value}", field)


def require_positive(obj, *fields: str) -> None:
    """``require`` each named field of ``obj`` to be finite and > 0."""
    for field in fields:
        value = getattr(obj, field)
        require(0.0 < value < math.inf, field, value, "> 0 and finite")


class UnknownSize(ConfigError):
    """Pipe designator/schedule pair not present in the dimension table."""


class EmptyNetwork(ConfigError):
    """A pipe network needs at least one segment."""


class BadSegment(ConfigError):
    """A segment specification violates its invariants; ``field`` names the
    offending dataclass field of segment ``index``."""

    def __init__(self, reason, index=None, field=None):
        message = reason if field is None else f"{field}: {reason}"
        super().__init__(message if index is None else f"segment {index}: {message}")
        self.reason = reason
        self.index = index
        self.field = field


class SimulationError(PipeClimberError):
    """Physical limit or solver failure encountered while simulating."""


class NonMonotoneLoad(SimulationError):
    """Load curve is not strictly increasing; its inverse is undefined."""


class NoBracket(SimulationError):
    """Root finder could not bracket the common torque."""


class InconsistentOutputs(SimulationError):
    """Output speeds violate the speed-averaging constraint of the gear train."""


class DegenerateBend(SimulationError):
    """Bend radius does not exceed the track contact radius."""


class CompressionLimit(SimulationError):
    """Required spring compression exceeds the per-module maximum."""


class AsymmetryLimit(SimulationError):
    """Module tilt from uneven compression exceeds the allowed angle."""


class OutOfRange(SimulationError):
    """Arc-length query outside the network."""


class ZeroReference(SimulationError):
    """Percentage error against a zero reference value is undefined."""


class EmptySweep(SimulationError):
    """An orientation sweep needs at least one orientation."""


class MaxTimeExceeded(SimulationError):
    """Run hit the time budget before the robot left the network.

    Carries the partial results so callers can still inspect them.
    """

    def __init__(self, message, records=None, summary=None):
        super().__init__(message)
        self.records = records if records is not None else []
        self.summary = summary


class IoError(PipeClimberError):
    """Failed to read or write an artifact (records, summaries, scenarios)."""


class EndOfNetwork(Exception):
    """Signal, not an error: the robot has traversed the whole network."""
