"""Nominal pipe size lookup backed by a bundled dimension table.

The table ships with the package (one record per line: designator,
schedule, outer diameter mm, wall thickness mm) so lookups never touch the
network.  Designators accept a few spellings: "6", "NPS 6", 6, "1-1/2",
"1 1/2", "1.5".

The table is read as a plain file next to this module, not through
``importlib.resources``, whose import brings in ``zipfile``, ``tempfile``
and some twenty more modules that a lookup does not need.  The trade: an
install as a zip archive cannot read the table.  pip and setuptools
install the package unzipped.
"""

from __future__ import annotations

import os
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


def _normalize(value, prefix: str) -> str:
    """``value`` as table text: upper case, without ``prefix`` or a trailing ".0"."""
    text = str(value).strip().upper()
    if text.startswith(prefix):
        text = text[len(prefix):].strip()
    return text[:-2] if text.endswith(".0") else text


@lru_cache(maxsize=1)
def _load_table() -> dict:
    table = {}
    with open(os.path.join(os.path.dirname(__file__), "data", _TABLE_RESOURCE),
              encoding="utf-8") as handle:
        text = handle.read()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        designator, schedule, od, wall = line.split()
        table[(designator.upper(), schedule.upper())] = (float(od), float(wall))
    return table


def pipe_dimensions(designator, schedule) -> tuple[float, float]:
    """(outer diameter mm, wall thickness mm) for a designator/schedule pair."""
    nps = _normalize(designator, "NPS").replace(" ", "-")
    key = (_FRACTION_ALIASES.get(nps, nps), _normalize(schedule, "SCH"))
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
