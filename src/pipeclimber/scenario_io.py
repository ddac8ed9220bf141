"""Scenario files in, time series and summaries out.

Scenario files are JSON with four sections (pipe, robot, transmission, sim).
Every physical quantity carries its unit in the key name; values are
converted exactly once, here, at the boundary, where ``SCHEMA`` maps each
key to the record field it fills.  Range rules live in the records'
validators.  Unknown keys are rejected and all validation errors, the
validators' included, name the offending key path.

Record output is CSV (fixed column order, 9 significant digits) or JSON
(one object per row, as ``json.dump(rows, indent=1)`` lays it out), streamed
by one writer from a ``Records`` table's pieces, a chunk of rows at a time.
Run and sweep summaries are JSON as ``json.dumps(payload, indent=1)`` lays
it out, filled into templates.

Every output file is ASCII bytes, written in binary by ``_write`` alone, so
its lines end in LF on every platform.  A chunk of rows is one PEP 461
``bytes %`` of its ``t`` and ``s`` alone, each row's constant text spliced
in after: ``b"%.9g" % x`` is ``format(x, ".9g").encode()`` and ``b"%r" % x``
is ``repr(x).encode()``.  Where a visit's ``t`` and ``s`` lie on a short
decimal grid, its ``dt``, ``s`` and ``ds`` decimals of a few digits, CSV
writes them as ``%d`` of their integer parts with each row's fraction text
in the format: the same bytes at about a third of the cost.
``_grid_chunks`` gives the rule and its proof.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import typing

from .differential import TransmissionConfig
from .dimensions import pipe_inner_radius
from .errors import BadSegment, IoError, ParseError, SimulationError, ValidationError
from .geometry import Bend, Straight, build_network
from .robot import RobotParams
from .simulator import Piece, Records, Scenario, SimRecord

CSV_COLUMNS = (
    "t_s",
    "s_mm",
    "segment",
    "vA_mm_s",
    "vB_mm_s",
    "vC_mm_s",
    "vreqA_mm_s",
    "vreqB_mm_s",
    "vreqC_mm_s",
    "slipA_mm_s",
    "slipB_mm_s",
    "slipC_mm_s",
    "xA_mm",
    "xB_mm",
    "xC_mm",
    "torque_nm",
)

# (JSON key, record field, required) per section, in canonical document
# order.  Absent optional keys take the field's default.
SCHEMA = {
    "robot": (
        ("h_mm", "contact_radius_mm", True),
        ("sprocket_radius_mm", "sprocket_radius_mm", True),
        ("orientation_deg", "orientation_deg", True),
        ("spring_k_n_per_m", "spring_n_per_m", True),
        ("preload_mm", "preload_mm", True),
        ("max_compression_mm", "max_compression_mm", False),
        ("springs", "springs", False),
        ("mass_kg", "mass_kg", True),
        ("mu", "friction", True),
        ("robot_length_mm", "length_mm", True),
        ("max_asym_deg", "max_asym_deg", False),
    ),
    "transmission": (
        ("g1", "ring_ratio", True),
        ("g2", "output_ratio", True),
        ("efficiency", "efficiency", False),
    ),
    "sim": (
        ("input_speed_rad_s", "input_speed_rad_s", True),
        ("slip_stiffness", "slip_stiffness", True),
        ("dt_s", "dt_s", True),
        ("max_time_s", "max_time_s", True),
        ("bend_extra_compression_mm", "bend_extra_compression_mm", False),
    ),
    "straight": (("length_mm", "length", True),),
    "bend": (
        ("bend_radius_mm", "bend_radius", True),
        ("sweep_deg", "sweep_angle", True),
        ("roll_deg", "bend_plane_roll", False),
    ),
}

# Validators name the record field at fault.  Field names are unique
# across sections, so one map takes each back to its key path.
_PATHS = {"inner_radius": "pipe.inner_radius_mm"} | {
    field: f"{section}.{key}" for section in ("robot", "transmission", "sim")
    for key, field, _ in SCHEMA[section]
}
_SEGMENT_KINDS = ("straight", "bend")
_SEGMENT_KEYS = {field: key for kind in _SEGMENT_KINDS for key, field, _ in SCHEMA[kind]}
# Per section, its known keys (a segment's "kind" too) and its required keys.
_KEYS = {
    section: ({key for key, _, _ in rows} | ({"kind"} if section in _SEGMENT_KINDS else set()),
              tuple(key for key, _, required in rows if required))
    for section, rows in SCHEMA.items()
}


_JSON_TYPES = {type(None): "null", bool: "boolean", str: "string", list: "array", dict: "object",
               int: "number", float: "number"}


def _json_type(value) -> str:
    """The JSON name of a parsed value's type, as a scenario's author wrote it."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"expected an object, got {_json_type(obj)}", path)
    return obj


def _check_keys(obj, path: str, known, required) -> dict:
    prefix = f"{path}." if path else ""
    for key in _mapping(obj, path):
        if key not in known:
            raise ValidationError("unknown key", prefix + key)
    for key in required:
        if key not in obj:
            raise ValidationError("missing required key", prefix + key)
    return obj


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"expected a number, got {_json_type(value)}", path)
    # The first test catches integer literals beyond the float range too.
    if abs(value) > sys.float_info.max or not math.isfinite(value):
        raise ValidationError("expected a finite number", path)
    return float(value)


def _fields(obj, path: str, section: str) -> dict:
    """Check keys against a SCHEMA section and read its numbers."""
    obj = _check_keys(obj, path, *_KEYS[section])
    return {field: _number(obj[key], f"{path}.{key}") for key, field, _ in SCHEMA[section]
            if key in obj}


def _segments_from(items) -> list:
    if not isinstance(items, list) or not items:
        raise ValidationError("expected a non-empty array of segments", "pipe.segments")
    segments = []
    for i, item in enumerate(items):
        path = f"pipe.segments[{i}]"
        kind = _mapping(item, path).get("kind")
        if kind not in _SEGMENT_KINDS:
            raise ValidationError(
                f"kind must be 'straight' or 'bend', got {kind!r}", f"{path}.kind"
            )
        fields = _fields(item, path, kind)
        segments.append(Bend(**fields) if kind == "bend" else Straight(**fields))
    return segments


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a parsed scenario document and build the Scenario."""
    sections = ("pipe", "robot", "transmission", "sim")
    root = _check_keys(data, "", sections, sections)
    robot = _fields(root["robot"], "robot", "robot")
    if "springs" in robot:
        if robot["springs"] != int(robot["springs"]):
            raise ValidationError(f"must be an integer, got {robot['springs']}", "robot.springs")
        robot["springs"] = int(robot["springs"])
    transmission = _fields(root["transmission"], "transmission", "transmission")
    sim = _fields(root["sim"], "sim", "sim")

    pipe_keys = ("segments", "inner_radius_mm", "nps", "schedule")
    pipe = _check_keys(root["pipe"], "pipe", pipe_keys, ("segments",))
    if "inner_radius_mm" in pipe:
        if "nps" in pipe or "schedule" in pipe:
            raise ValidationError("give either inner_radius_mm or nps+schedule, not both", "pipe")
        inner_radius = _number(pipe["inner_radius_mm"], "pipe.inner_radius_mm")
    elif "nps" in pipe and "schedule" in pipe:
        for key in ("nps", "schedule"):
            if isinstance(pipe[key], bool) or not isinstance(pipe[key], (str, int, float)):
                raise ValidationError(f"expected a string or a number, got "
                                      f"{_json_type(pipe[key])}", f"pipe.{key}")
        inner_radius = pipe_inner_radius(pipe["nps"], pipe["schedule"])
    else:
        raise ValidationError("needs inner_radius_mm or both nps and schedule", "pipe")
    segments = _segments_from(pipe["segments"])

    try:
        scenario = Scenario(
            network=build_network(segments, inner_radius),
            robot=RobotParams(**robot),
            transmission=TransmissionConfig(**transmission),
            **sim,
        )
        scenario.validate()  # CompressionLimit when the preload alone is over budget
    except BadSegment as exc:
        path = f"pipe.segments[{exc.index}].{_SEGMENT_KEYS[exc.field]}"
        raise ValidationError(exc.reason, path) from None
    except ValidationError as exc:
        raise ValidationError(exc.reason, _PATHS[exc.path]) from None
    return scenario


def parse_scenario(path) -> Scenario:
    """Load and fully validate a scenario file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read scenario {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"malformed scenario {path}: not UTF-8: {exc.reason} at byte "
                         f"{exc.start}", line=exc.object.count(b"\n", 0, exc.start) + 1) from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed scenario {path}: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # a duplicate key, too many digits, too deep
        raise ParseError(f"malformed scenario {path}: {exc}") from exc
    return scenario_from_dict(data)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, or ValueError for a key it gives twice (``json`` keeps the last)."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        duplicate = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"duplicate key {duplicate!r}")
    return data


def _write(path, chunks, what: str = "") -> None:
    """Write ``chunks``, byte strings, to ``path``: the one place an output
    file opens.  OSError becomes IoError, "cannot write {what}{path}: ..."."""
    try:
        with open(path, "wb") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise IoError(f"cannot write {what}{path}: {exc}") from exc


def _write_text(text_of, payload, path) -> None:
    """Write ``text_of(payload)`` plus a newline, as bytes, through ``_write``.

    A non-finite number raises SimulationError before the file is opened:
    standard JSON cannot hold it, and only a run's results can carry one.
    """
    try:
        text = text_of(payload)
    except ValueError as exc:
        raise SimulationError(f"cannot write {path}: {exc}") from None
    _write(path, (text.encode(), b"\n"))


# summary.json and sweep.json are ``json.dumps(payload, indent=1)`` of
# ``summary_to_dict`` payloads, written from %-templates: a SimSummary is an
# object template with a ``%s`` slot per scalar, built once per nesting depth
# and count of segments, and one call of json's C encoder writes every
# scalar, "\n" between them.  JSON escapes a newline inside a string, so the
# "\n"s split the scalars apart.  json's indenting encoder is pure Python: on
# a sweep it takes about twice as long as this.

def _container(items, depth: int, brackets: str) -> str:
    """``json.dumps(..., indent=1)``'s layout of an array or object whose
    items' texts are ``items``, its opening bracket at nesting ``depth``."""
    if not items:
        return brackets
    inner = "\n" + " " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + " " * depth + brackets[1]


@functools.cache
def _template(cls, depth: int, segments: int) -> str:
    """The template of a ``cls`` record, SimSummary or SegmentStats, as its
    ``summary_to_dict`` dict is laid out at nesting ``depth``, a SimSummary
    with ``segments`` segments.  Each field follows its type hint: a
    ``tuple[float, float, float]`` is an array of three slots, a
    ``tuple[SegmentStats, ...]`` an array of records, anything else a slot."""
    items = []
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        if args[-1:] == (Ellipsis,):
            text = _container([_template(args[0], depth + 2, 0)] * segments, depth + 1, "[]")
        elif args:
            text = _container(["%s"] * len(args), depth + 1, "[]")
        else:
            text = "%s"
        items.append(f'"{name}": {text}')
    return _container(items, depth, "{}")


def _scalars(summary, scalars: list) -> None:
    """Put ``summary``'s scalars on ``scalars`` in its template's slot order."""
    for seg in summary.segments:
        scalars += (seg.index, seg.kind, seg.entry_time, seg.exit_time, *seg.mean_track_speeds,
                    *seg.analytic_speeds, *seg.ape_percent)
    scalars += (*summary.per_track_ape_percent, summary.max_abs_slip, summary.max_compression,
                summary.finish_time, summary.final_s, summary.total_distance_mm)


def _fill(template: str, scalars: list) -> str:
    """``template`` with each slot filled by json's text of its scalar; a
    non-finite one raises ValueError, as ``json.dumps(allow_nan=False)``."""
    if not scalars:
        return template
    text = json.dumps(scalars, separators=("\n", ": "), allow_nan=False)
    return template % tuple(text[1:-1].split("\n"))


def _summary_text(summary) -> str:
    scalars = []
    _scalars(summary, scalars)
    return _fill(_template(type(summary), 0, len(summary.segments)), scalars)


def write_summary(summary, path) -> None:
    """Write ``summary.json``: ``json.dumps(summary_to_dict(summary),
    indent=1)`` plus a newline, byte for byte; errors as in ``_write_text``."""
    _write_text(_summary_text, summary, path)


@functools.cache
def _entry_template(summary_type, segments: int) -> str:
    """The template of a sweep entry whose summary has ``segments``
    segments, or is None if ``summary_type`` is."""
    summary = "%s" if summary_type is None else _template(summary_type, 2, segments)
    return _container(('"orientation_deg": %s', f'"summary": {summary}', '"error": %s'), 1, "{}")


def _sweep_text(entries) -> str:
    scalars, items = [], []
    for entry in entries:
        scalars.append(entry.orientation_deg)
        if entry.summary is None:
            scalars.append(None)
            items.append(_entry_template(None, 0))
        else:
            _scalars(entry.summary, scalars)
            items.append(_entry_template(type(entry.summary), len(entry.summary.segments)))
        scalars.append(None if entry.error is None else str(entry.error))
    return _fill(_container(items, 0, "[]"), scalars)


def write_sweep(entries, path) -> None:
    """Write ``sweep.json``: ``json.dumps`` with ``indent=1``, plus a newline,
    of one object per ``SweepEntry`` with its orientation, its summary's
    ``summary_to_dict`` and its error's ``str``, each None as null; errors as
    in ``_write_text``."""
    _write_text(_sweep_text, entries, path)


def _row_parts(record: SimRecord, piece, fmt: str, path) -> tuple:
    """The (prefix, slots, suffix) of each row of a centre segment's run,
    ``piece``: ``t`` and ``s`` are the two slots of a bytes %-format, and the
    constant fields, formatted, make the suffix.  A non-finite value, which
    JSON cannot hold, raises SimulationError in either format."""
    constants = [record.segment_index, *record.track_speeds, *record.required_speeds,
                 *record.slip, *record.compressions, record.common_torque]  # column order
    t_finite, s_finite = piece.finite()
    for name, finite in (("t_s", t_finite), ("s_mm", s_finite),
                         *zip(CSV_COLUMNS[2:], map(math.isfinite, constants))):
        if not finite:
            raise SimulationError(f"cannot write records to {path}: {name} is not finite")
    if fmt == "csv":
        return b"", b"%.9g,%.9g", "".join(
            "," + (str(v) if isinstance(v, int) else format(v, ".9g")) for v in constants).encode()
    return b' {\n  "t_s": ', b'%r,\n  "s_mm": %r', ("".join(
        f',\n  "{name}": {json.dumps(v)}' for name, v in zip(CSV_COLUMNS[2:], constants))
        + "\n }").encode()


# fmt -> (head, separator between rows, end after the rows, end of an empty
# table); a newline leads the first row.  JSON is ``json.dump(rows, indent=1)``.
_LAYOUTS = {
    "csv": (",".join(CSV_COLUMNS).encode(), b"\n", b"\n", b"\n"),
    "json": (b"[", b",\n", b"\n]\n", b"]\n"),
}
# The one chunk size: rows to a chunk, at most about 121 kB of JSON text;
# a visit's last chunk may be shorter.
_CHUNK_ROWS = 256
_STEPS = tuple(map(float, range(_CHUNK_ROWS)))  # row offsets within a chunk, as floats


def _piece_rows(piece: Piece, slots: bytes):
    """The rows of ``piece`` in chunks of ``_CHUNK_ROWS``, each its format,
    ``slots`` once per row with a NUL byte between rows, and a flat list of
    floats, ``t`` and ``s`` interleaved.  ``Piece``'s formula, with row
    numbers as floats, exact below 2**53, so each product is the
    interpreter's float fast path and gives a read's bits."""
    n, dt, s, ds, rows = piece
    for start in range(0, rows, _CHUNK_ROWS):
        ks = _STEPS[:min(_CHUNK_ROWS, rows - start)]
        first, offset = float(n + start), float(start)
        flat = [0.0] * (2 * len(ks))
        flat[::2] = [(first + k) * dt for k in ks]
        flat[1::2] = [s + (offset + k) * ds for k in ks]
        yield (slots + b"\0") * (len(ks) - 1) + slots, flat


def _decimal(x: float):
    """``(m, d)``: ``x`` is the float nearest the decimal ``m / 10**d``, read
    from ``repr(x)``, with no trailing zero in its ``d`` fraction digits;
    None for a repr with a sign or an exponent, inf or nan."""
    whole, dot, fraction = repr(x).partition(".")
    fraction = fraction.rstrip("0")
    if not (dot and whole.isdigit() and (fraction or "0").isdigit()):
        return None
    return int(whole + fraction), len(fraction)


def _grid_column(first: int, step: int, digits: int, rows: int):
    """The fraction texts of a grid column whose row k is the decimal (first
    + k·step) / 10**digits, one per row of its period: a point and the
    digits, trailing zeros dropped, or nothing for an integer.  None where
    the column breaks the grid rule (see ``_grid_chunks``)."""
    scale = 10**digits
    period = scale // math.gcd(step, scale)
    if first + (rows - 1) * step >= 10**9 or period > _CHUNK_ROWS:
        return None
    return [(b".%0*d" % (digits, (first + k * step) % scale)).rstrip(b"0").rstrip(b".")
            for k in range(period)]


def _grid_chunks(piece: Piece):
    """The CSV rows of ``piece`` as ``_piece_rows`` gives them, but with
    ``t`` and ``s`` as the integer parts of their decimals and each row's
    fraction texts in its format; None where the grid rule below fails.

    The rule: ``repr`` writes ``dt``, ``s`` and ``ds`` without a sign or
    an exponent, so each is 0 or from 1e-4 to below 1e16 and is the float
    nearest the decimal it shows.  Row k's ``t`` is then the decimal (n +
    k)·dt and its ``s`` the decimal s + k·ds, each (first + k·step) / 10**d
    for integers first and step, ``s`` over the larger ``d`` of ``s`` and
    ``ds``.  Every such integer is below 10**9, and the fraction texts repeat
    within ``_CHUNK_ROWS`` rows: a column's period is 10**d / gcd(step,
    10**d), and the two periods' lcm is at most ``_CHUNK_ROWS``.  A chunk
    holds a whole number of periods, so every full chunk has one format.

    Why the text is ``%.9g``'s: the float ``fl((n + k)·dt)`` or ``fl(s +
    fl(k·ds))`` is within a few units in the last place of its decimal, for
    each operation rounds once and both terms of ``s`` are non-negative, so
    nothing cancels.  The decimal has at most 9 significant digits, so that
    gap is far inside half a unit of the 9th digit, and ``%.9g`` rounds the
    float to the decimal.  A nonzero value is at least the smallest nonzero
    one of ``dt``, ``s`` and ``ds``, so from 1e-4 to below 1e9, where
    ``%.9g`` writes fixed notation with trailing zeros and a bare point
    dropped: the integer part, ``%d``, then the fraction text.
    """
    n, dt, s, ds, rows = piece
    decimals = _decimal(dt), _decimal(s), _decimal(ds)
    if None in decimals:
        return None
    (m_dt, d_dt), (m_s, d_s), (m_ds, d_ds) = decimals
    d = max(d_s, d_ds)
    columns = ((n * m_dt, m_dt, d_dt), (m_s * 10**(d - d_s), m_ds * 10**(d - d_ds), d))
    t_texts, s_texts = texts = [_grid_column(*column, rows) for column in columns]
    if None in texts:
        return None
    period = math.lcm(len(t_texts), len(s_texts))
    if period > _CHUNK_ROWS:
        return None
    formats = [b"%%d%s,%%d%s" % pair for pair in zip(t_texts * (period // len(t_texts)),
                                                     s_texts * (period // len(s_texts)))]
    return _grid_rows(columns, formats, rows)


def _grid_rows(columns, formats, rows: int):
    """``_grid_chunks``' chunks: ``formats``, one period of rows' formats,
    repeated to the largest chunk of whole periods within ``_CHUNK_ROWS``."""
    period = len(formats)
    size = _CHUNK_ROWS // period * period
    full = b"\0".join(formats * (size // period))
    for start in range(0, rows, size):
        count = min(size, rows - start)
        flat = [0] * (2 * count)
        for i, (first, step, digits) in enumerate(columns):
            first, scale = first + start * step, 10**digits
            flat[i::2] = ([x // scale for x in range(first, first + count * step, step)] if step
                          else [first // scale] * count)
        yield (full if count == size
               else b"\0".join((formats * (count // period + 1))[:count])), flat


def emit_records(records: Records, fmt: str, path) -> None:
    """Write a ``Records`` table to ``path`` as CSV or JSON; OSError becomes
    IoError, and a non-finite value SimulationError before the file opens.

    No column is built: ``_piece_rows`` makes the ``t`` and ``s`` of one
    chunk of a run's rows at a time, with the bits of the table's reads.
    Each chunk is one ``bytes %`` over a format of the rows' ``t`` and ``s``
    slots alone, a NUL byte between rows, then one ``bytes.replace`` puts the
    run's constant text in place of each NUL: a row's suffix, the separator
    and the next row's prefix.  So neither the numbers nor the text ever hold
    more than a chunk, and the text is held about once.  ``b"%.9g" % x`` is
    ``format(x, ".9g").encode()`` and ``b"%r" % x`` is ``repr(x).encode()``,
    json's float text, so the bytes are those of a row-by-row writer.

    In CSV a run whose ``t`` and ``s`` lie on a short decimal grid takes
    ``_grid_chunks`` instead, the same text from ``%d`` of small integers,
    which costs about a third of ``%.9g`` of a float; ``_grid_chunks`` gives
    the rule and why the bytes are the same.  JSON's ``%r`` is the shortest
    repr, not the decimal (``3 * 0.1``), so it always takes ``_piece_rows``.
    """
    if fmt not in _LAYOUTS:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    runs = [(_row_parts(record, piece, fmt, path), piece)
            for record, piece in zip(records.values, records.pieces)]
    head, sep, end, empty_end = _LAYOUTS[fmt]

    def chunks():
        yield head
        lead = b"\n"
        for (prefix, slots, suffix), piece in runs:
            # The constant texts come from str(int), format(v, ".9g"),
            # json.dumps(v) and fixed key names: they hold no NUL and no %.
            # Those that go into the format are escaped anyway.
            joint = suffix + sep + prefix
            prefix, suffix = prefix.replace(b"%", b"%%"), suffix.replace(b"%", b"%%")
            for rows, flat in (fmt == "csv" and _grid_chunks(piece)) or _piece_rows(piece, slots):
                yield ((lead + prefix + rows + suffix) % tuple(flat)).replace(b"\0", joint)
                lead = sep
        yield end if len(records) else empty_end

    _write(path, chunks(), "records to ")


def summary_to_dict(summary) -> dict:
    """Plain-dict view of a SimSummary: its ``_asdict()``, with each of its
    segments' ``_asdict()`` in place of the SegmentStats.  No writer calls it;
    the tests check that ``summary.json`` and ``sweep.json`` hold its
    ``json.dumps(..., indent=1)`` byte for byte."""
    return dict(summary._asdict(), segments=tuple(seg._asdict() for seg in summary.segments))
