"""Nominal pipe size lookup backed by a bundled dimension table.

The table ships with the package (one record per line: designator,
schedule, outer diameter mm, wall thickness mm) so lookups never touch the
network.  Designators accept a few spellings: "6", "NPS 6", 6, "1-1/2",
"1 1/2", "1.5".
"""

from __future__ import annotations

from functools import lru_cache

from .errors import UnknownSize

_TABLE_RESOURCE = "pipe_dimensions.txt"

_FRACTION_ALIASES = {
    "0.5": "1/2",
    "0.75": "3/4",
    "1.25": "1-1/4",
    "1.5": "1-1/2",
    "2.5": "2-1/2",
    "3.5": "3-1/2",
}


def _normalize_designator(designator) -> str:
    text = str(designator).strip().upper()
    if text.startswith("NPS"):
        text = text[3:].strip()
    text = text.replace(" ", "-")
    if text.endswith(".0"):
        text = text[:-2]
    return _FRACTION_ALIASES.get(text, text)


def _normalize_schedule(schedule) -> str:
    text = str(schedule).strip().upper()
    if text.startswith("SCH"):
        text = text[3:].strip()
    if text.endswith(".0"):
        text = text[:-2]
    return text


@lru_cache(maxsize=1)
def _load_table() -> dict:
    # Imported here: it pulls in zipfile, tempfile and shutil, which a run
    # that gives inner_radius_mm never needs.
    from importlib import resources

    table = {}
    text = resources.files(__package__).joinpath("data", _TABLE_RESOURCE).read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        designator, schedule, od, wall = line.split()
        table[(designator.upper(), schedule.upper())] = (float(od), float(wall))
    return table


def pipe_dimensions(designator, schedule) -> tuple[float, float]:
    """(outer diameter mm, wall thickness mm) for a designator/schedule pair."""
    key = (_normalize_designator(designator), _normalize_schedule(schedule))
    try:
        return _load_table()[key]
    except KeyError:
        raise UnknownSize(
            f"no table entry for NPS {key[0]!r} schedule {key[1]!r}"
        ) from None


def pipe_inner_diameter(designator, schedule) -> float:
    """Inner diameter in mm: outer diameter minus two wall thicknesses."""
    od, wall = pipe_dimensions(designator, schedule)
    return od - 2.0 * wall


def pipe_inner_radius(designator, schedule) -> float:
    """Inner radius in mm, the quantity the robot geometry consumes."""
    return pipe_inner_diameter(designator, schedule) / 2.0
