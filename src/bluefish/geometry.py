"""The two axes a box lives on, and the points SVG path data draws through.

The axes never interact. On one axis a box has a start and an extent
(horizontal: ``left`` and ``width``), and its centre and end
(``centerX``, ``right``) sit at ``Axis.offset`` from the start:

    right = left + width
    centerX = left + width / 2

``Axis`` names these fields as plain data. Which of them a node stores,
and who may write them, is the scenegraph's business (``LayoutNode``
and ``Scenegraph.decide``); this module holds no box of its own.

Field names use the document format's dimension vocabulary (``centerX``
not ``center_x``) so the same spelling works in documents, owner maps,
and dumps.

``path_control_points`` reads SVG path data into the points whose box a
path draws in. Validation reads each path prop once, and registration
each path default, into ``PathData``, which keeps only that box; path
layout takes the box from there.
"""

from __future__ import annotations

import re
from enum import Enum

#: Absolute tolerance for geometric comparisons. Values closer than this
#: are the same dimension; disagreements beyond it are conflicts.
TOLERANCE = 1e-6


class Axis(Enum):
    """One of the two independent axes, with its field names as plain data.

    ``position_fields`` are start, center and end (``left``/``centerX``/
    ``right`` horizontally), also available one by one as
    ``start_field``/``center_field``/``end_field``; ``fields`` adds the
    ``extent_field``; ``translation`` is the node field that stores the
    translation component the axis moves along (``tx``),
    ``transform_field`` its name in owner maps, errors and ``write_log``
    (``transform.x``), and ``other`` the perpendicular axis.
    They are set once when the class is created, because layout reads
    them on every frame conversion, and a plain attribute read costs a
    fraction of a member lookup or an Enum-keyed dict lookup.
    """

    position_fields: tuple[str, str, str]
    start_field: str
    center_field: str
    end_field: str
    extent_field: str
    fields: tuple[str, str, str, str]
    translation: str
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
        axis.translation = f"t{component}"
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
#: Both axes, horizontal first, for loops that visit each.
AXES = (Axis.HORIZONTAL, Axis.VERTICAL)

_FIELD_AXIS = {f: axis for axis in Axis for f in axis.fields}


def axis_of(field_name: str) -> Axis:
    try:
        return _FIELD_AXIS[field_name]
    except KeyError:
        raise ValueError(f"unknown bbox field {field_name!r}") from None


# --- path data ----------------------------------------------------------------

_NUM = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
_COMMANDS = "MmLlHhVvCcSsQqTtAaZz"
#: A command letter, a number, or else the first character that is neither
#: nor a separator (space, tab, LF, CR, comma), taken with the rest of the
#: data so that it is the last token.
_TOKEN = re.compile(rf"[{_COMMANDS}]|{_NUM.pattern}|[^ \t\n\r,].*", re.DOTALL)
_ARGS_PER_COMMAND = {
    "M": 2, "L": 2, "T": 2, "H": 1, "V": 1, "C": 6, "S": 4, "Q": 4, "A": 7, "Z": 0,
}


def path_control_points(d: str) -> list[tuple[float, float]]:
    """All on-curve and control points of an SVG path string.

    The control polygon bounds the curve for line and Bezier segments;
    arcs contribute their endpoints only. Raises ValueError on malformed
    data, such as a character that is no command letter, number or
    separator.
    """
    tokens = _TOKEN.findall(d)
    if not tokens:
        raise ValueError("empty path data")
    stray = tokens[-1]
    if stray[0] not in _COMMANDS and _NUM.fullmatch(stray) is None:
        raise ValueError(f"unexpected {stray[0]!r}")
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


class PathData(str):
    """Path data that validation read: the document's string, carrying its box.

    It equals the string it was made from, so paint and a custom kind's
    layout see the document's data; ``box`` is ``(left, top, right,
    bottom)``, the least and greatest coordinates of the points
    ``path_control_points`` returned for it.
    """

    box: tuple[float, float, float, float]

    @classmethod
    def read(cls, d: str) -> "PathData":
        """``d`` with its box; raises ValueError as ``path_control_points`` does, or for data with no point."""
        points = path_control_points(d)
        if not points:  # such as a lone "Z", which has no box
            raise ValueError("no point to draw")
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        data = cls(d)
        data.box = (min(xs), min(ys), max(xs), max(ys))
        return data
