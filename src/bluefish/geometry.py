"""Partial bounding boxes, translations, and the two axes they live on.

A bounding box here is deliberately partial: every field is optional,
and layout fills them in one dimension at a time. The two axes never
interact. On one axis a box stores a start and an extent (horizontal:
``left`` and ``width``); its centre and end (``centerX``, ``right``)
follow from them,

    right = left + width
    centerX = left + width / 2

and are computed on read, never stored. Relations that place a centre
or end from another frame write a translation instead (see
``Scenegraph.set_dim_in_frame``). Who may write a field, and when, is
the scenegraph's rule (``Scenegraph.decide``).

Field names use the document format's dimension vocabulary (``centerX``
not ``center_x``) so the same spelling works in documents, owner maps,
and dumps.

``path_control_points`` reads SVG path data into the points whose box a
path draws in; the document checks and path layout both use it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

#: Absolute tolerance for geometric comparisons. Values closer than this
#: are the same dimension; disagreements beyond it are conflicts.
TOLERANCE = 1e-6


class Axis(Enum):
    """One of the two independent axes, with its field names as plain data.

    ``position_fields`` are start, center and end (``left``/``centerX``/
    ``right`` horizontally), also available one by one as
    ``start_field``/``center_field``/``end_field``; ``fields`` adds the
    ``extent_field``; ``component`` is the translation component the
    axis moves along, ``transform_field`` its name in owner errors and
    ``write_log`` (``transform.x``), and ``other`` the perpendicular axis. They are set
    once when the class is created, because layout reads them on every
    frame conversion.
    """

    position_fields: tuple[str, str, str]
    start_field: str
    center_field: str
    end_field: str
    extent_field: str
    fields: tuple[str, str, str, str]
    component: str
    transform_field: str
    other: "Axis"

    HORIZONTAL = ("horizontal", ("left", "centerX", "right"), "width", "x")
    VERTICAL = ("vertical", ("top", "centerY", "bottom"), "height", "y")

    def __new__(cls, value: str, position_fields: tuple[str, str, str],
                extent_field: str, component: str) -> "Axis":
        axis = object.__new__(cls)
        axis._value_ = value
        axis.position_fields = position_fields
        axis.start_field, axis.center_field, axis.end_field = position_fields
        axis.extent_field = extent_field
        axis.fields = position_fields + (extent_field,)
        axis.component = component
        axis.transform_field = f"transform.{component}"
        return axis

    def offset(self, field_name: str, extent: float) -> float:
        """How far a start, centre or end field sits from a box's start."""
        if field_name == self.start_field:
            return 0.0
        if field_name == self.center_field:
            return extent / 2.0
        return extent


Axis.HORIZONTAL.other = Axis.VERTICAL
Axis.VERTICAL.other = Axis.HORIZONTAL

_FIELD_AXIS = {f: axis for axis in Axis for f in axis.fields}


def axis_of(field_name: str) -> Axis:
    try:
        return _FIELD_AXIS[field_name]
    except KeyError:
        raise ValueError(f"unknown bbox field {field_name!r}") from None


@dataclass(slots=True)
class PartialBBox:
    """A bounding box storing an optional start and extent per axis."""

    left: float | None = None
    width: float | None = None
    top: float | None = None
    height: float | None = None


@dataclass(slots=True)
class Translate:
    """A translation; either component may be undefined (not yet decided)."""

    x: float | None = None
    y: float | None = None


def bbox_get(bbox: PartialBBox, field_name: str) -> float | None:
    """Return a stored or derived field value, or None if underdetermined.

    A start or extent is returned as stored. A centre or end is derived
    from the start and extent on its axis, and is None while either is.
    """
    axis = axis_of(field_name)
    if field_name == axis.start_field or field_name == axis.extent_field:
        return getattr(bbox, field_name)
    start = getattr(bbox, axis.start_field)
    extent = getattr(bbox, axis.extent_field)
    if start is None or extent is None:
        return None
    return start + axis.offset(field_name, extent)


# --- path data ----------------------------------------------------------------

_NUM = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_ARGS_PER_COMMAND = {
    "M": 2, "L": 2, "T": 2, "H": 1, "V": 1, "C": 6, "S": 4, "Q": 4, "A": 7, "Z": 0,
}


def path_control_points(d: str) -> list[tuple[float, float]]:
    """All on-curve and control points of an SVG path string.

    The control polygon bounds the curve for line and Bezier segments;
    arcs contribute their endpoints only. Raises ValueError on malformed
    data.
    """
    tokens = re.findall(r"[MmLlHhVvCcSsQqTtAaZz]|" + _NUM.pattern, d)
    if not tokens:
        raise ValueError("empty path data")
    points: list[tuple[float, float]] = []
    cur = (0.0, 0.0)
    start = (0.0, 0.0)
    i = 0
    command: str | None = None
    while i < len(tokens):
        tok = tokens[i]
        if tok.isalpha():
            command = tok
            i += 1
            if command.upper() == "Z":
                cur = start
                continue
        elif command is None:
            raise ValueError("path data must begin with a command")
        elif command.upper() == "Z":
            raise ValueError("coordinates after close command")
        elif command.upper() == "M":
            command = "L" if command == "M" else "l"  # implicit lineto after moveto
        assert command is not None
        upper = command.upper()
        rel = command.islower()
        n = _ARGS_PER_COMMAND[upper]
        if n == 0:
            continue
        args = tokens[i:i + n]
        if len(args) < n or any(a.isalpha() for a in args):
            raise ValueError(f"command {command!r} needs {n} numbers")
        vals = [float(a) for a in args]
        i += n
        ox, oy = cur if rel else (0.0, 0.0)
        if upper == "H":
            cur = (ox + vals[0] if rel else vals[0], cur[1])
            points.append(cur)
        elif upper == "V":
            cur = (cur[0], oy + vals[0] if rel else vals[0])
            points.append(cur)
        elif upper == "A":
            cur = (ox + vals[5], oy + vals[6])
            points.append(cur)
        else:
            for j in range(0, n, 2):
                pt = (ox + vals[j], oy + vals[j + 1])
                points.append(pt)
            cur = points[-1]
            if upper == "M":
                start = cur
    return points
