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

Path data is checked and read apart. ``PATH_DATA`` is one grammar of
what the reader accepts: validation matches each path prop against it,
and reads the data only to say why it does not match. ``path_box``
reads the points a path draws through and returns their box. Path data
stays the document's string: path layout reads its box, and
registration checks each path default.
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

_SEPARATORS = r" \t\n\r,"
#: A number, its quantifiers possessive: it takes the longest run it can
#: and never gives part of it back, so no pattern it is part of can split
#: ``123`` or ``1.5`` into two numbers. ``re`` reads possessive quantifiers
#: from Python 3.11 on, the floor ``pyproject.toml`` declares.
_NUM = re.compile(r"[-+]?+(?:[0-9]++(?:\.[0-9]*+)?+|\.[0-9]++)(?:[eE][-+]?+[0-9]++)?+")
_COMMANDS = "MmLlHhVvCcSsQqTtAaZz"
#: After any separators, a command letter, a number, or else the first
#: character that is neither, taken with the rest of the data so that it
#: is the last token.
_TOKEN = re.compile(rf"[{_SEPARATORS}]*+([{_COMMANDS}]|{_NUM.pattern}|[^{_SEPARATORS}].*)", re.DOTALL)
_ARGS_PER_COMMAND = {
    "M": 2, "L": 2, "T": 2, "H": 1, "V": 1, "C": 6, "S": 4, "Q": 4, "A": 7, "Z": 0,
}
#: Each command letter -> (its upper case, whether it is relative, how many numbers it takes).
_COMMAND = {letter: (upper, letter != upper, n)
            for upper, n in _ARGS_PER_COMMAND.items() for letter in (upper, upper.lower())}
_LETTERS = frozenset(_COMMANDS)


def _path_data_grammar() -> re.Pattern:
    """What ``_coordinates`` reads without error, and draws at least one point from.

    A number never gives back part of its run, so the grammar splits
    ``1.5.5`` or ``1-2`` where the tokenizer does and nowhere else; each
    drawing command takes one or more counted runs of its numbers, a
    close takes none, and a lookahead asks for one drawing command, since
    a close alone draws no point.
    """
    sep = f"[{_SEPARATORS}]*+"
    number = sep + _NUM.pattern
    letters: dict[int, str] = {}
    for upper, n in _ARGS_PER_COMMAND.items():
        letters[n] = letters.get(n, "") + upper + upper.lower()
    commands = "|".join(f"[{group}]" if n == 0 else f"[{group}](?:(?:{number}){{{n}}})++"
                        for n, group in letters.items())
    drawing = "".join(group for n, group in letters.items() if n)
    return re.compile(f"(?=[^{drawing}]*+[{drawing}])(?:{sep}(?:{commands}))++{sep}")


#: ``PATH_DATA.fullmatch(d)`` is a match exactly when ``path_box(d)``
#: returns, so checking data costs one match and reading it is left to
#: layout.
PATH_DATA = _path_data_grammar()


def _coordinates(d: str) -> tuple[list[float], list[float]]:
    """The x and the y coordinates of the on-curve and control points of SVG path data, in order.

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
    xs: list[float] = []
    ys: list[float] = []
    x = y = start_x = start_y = 0.0
    i, count = 0, len(tokens)
    command = None
    while i < count:
        tok = tokens[i]
        if tok in _LETTERS:
            command = tok
            upper, rel, n = _COMMAND[tok]
            i += 1
            if n == 0:
                x, y = start_x, start_y
                continue
        elif command is None:
            raise ValueError("path data must begin with a command")
        elif n == 0:
            raise ValueError("coordinates after close command")
        elif upper == "M":  # implicit lineto after moveto
            command, upper = "l" if rel else "L", "L"
        args = tokens[i:i + n]
        if len(args) < n or not _LETTERS.isdisjoint(args):
            raise ValueError(f"command {command!r} needs {n} numbers")
        i += n
        ox, oy = (x, y) if rel else (0.0, 0.0)
        if upper == "H":
            x = ox + float(args[0]) if rel else float(args[0])
        elif upper == "V":
            y = oy + float(args[0]) if rel else float(args[0])
        else:
            vals = list(map(float, args))
            if upper == "A":
                x = ox + vals[5]
                y = oy + vals[6]
            else:
                for j in range(0, n - 2, 2):
                    xs.append(ox + vals[j])
                    ys.append(oy + vals[j + 1])
                x = ox + vals[n - 2]
                y = oy + vals[n - 1]
                if upper == "M":
                    start_x, start_y = x, y
        xs.append(x)
        ys.append(y)
    return xs, ys


def path_box(d: str) -> tuple[float, float, float, float]:
    """``(left, top, right, bottom)``: the least and greatest coordinates ``d`` draws through.

    Raises ValueError as ``_coordinates`` does, or for data with no point,
    such as a lone ``Z``.
    """
    xs, ys = _coordinates(d)
    if not xs:
        raise ValueError("no point to draw")
    return (min(xs), min(ys), max(xs), max(ys))
