"""Box derivation on one axis: centres and ends derive from a start and an extent."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bluefish import Scenegraph, standard_registry
from bluefish.geometry import PATH_DATA, Axis, PathData, axis_of
from bluefish.scenegraph import LayoutNode

from oracles import X_FIELDS, Y_FIELDS, solve_axis

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
extents = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _node(**fields: float) -> tuple[Scenegraph, LayoutNode]:
    """A lone node whose own box stores ``fields``."""
    g = Scenegraph(standard_registry())
    node = g.create_node("rect", None)
    for name, value in fields.items():
        g.decide(node, name, value, node)
    return g, node


def _own_box(g: Scenegraph, node: LayoutNode, axis: Axis) -> dict[str, float | None]:
    return dict(zip(axis.fields, g.bbox_in_frame(node, node, axis, *axis.fields)))


# --- derivation -------------------------------------------------------------------


def test_right_derives_from_left_and_width():
    g, node = _node(left=10.0, width=20.0)
    assert _own_box(g, node, Axis.HORIZONTAL)["right"] == 30.0


def test_single_field_underdetermines_the_axis():
    g, node = _node(left=5.0)
    box = _own_box(g, node, Axis.HORIZONTAL)
    assert box["left"] == 5.0
    assert box["right"] is None
    assert box["width"] is None


def test_axes_never_interact():
    g, node = _node(left=0.0, width=10.0)
    box = _own_box(g, node, Axis.VERTICAL)
    assert box["top"] is None
    assert box["height"] is None


def test_derived_values_are_not_stored():
    g, node = _node(left=10.0, width=20.0)
    box = _own_box(g, node, Axis.HORIZONTAL)
    assert box["centerX"] == 20.0
    assert box["right"] == 30.0
    assert (node.left, node.width, node.top, node.height) == (10.0, 20.0, None, None)
    assert not hasattr(node, "centerX")
    assert g.write_log == [(node.id, "left", node.id), (node.id, "width", node.id)]


def test_a_frame_read_gives_the_fields_named_in_that_order():
    g, node = _node(left=10.0, width=20.0)
    assert g.bbox_in_frame(node, node, Axis.HORIZONTAL, "width", "right", "left") == [20.0, 30.0, 10.0]
    with pytest.raises(ValueError):
        g.bbox_in_frame(node, node, Axis.HORIZONTAL, "top")


def test_unknown_field_rejected():
    with pytest.raises(ValueError):
        axis_of("diagonal")


@given(start=finite, extent=extents, fields=st.sampled_from((X_FIELDS, Y_FIELDS)))
def test_derivations_match_the_pairwise_solver(start, extent, fields):
    start_f, _, _, extent_f = fields
    known = {start_f: start, extent_f: extent}
    g, node = _node(**known)
    box = _own_box(g, node, axis_of(start_f))
    expected = solve_axis(known, "x" if fields == X_FIELDS else "y")
    for f in fields:
        assert math.isclose(box[f], expected[f], rel_tol=1e-9, abs_tol=1e-9)


# --- path data --------------------------------------------------------------------

# The reader as it was before it kept flat coordinate lists: the judge of
# the boxes and the messages the tightened reader must give.
_NUM = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
_COMMANDS = "MmLlHhVvCcSsQqTtAaZz"
_TOKEN = re.compile(rf"[{_COMMANDS}]|{_NUM.pattern}|[^ \t\n\r,].*", re.DOTALL)
_ARGS_PER_COMMAND = {"M": 2, "L": 2, "T": 2, "H": 1, "V": 1, "C": 6, "S": 4, "Q": 4, "A": 7, "Z": 0}


def _reference_box(d: str) -> tuple[float, float, float, float]:
    tokens = _TOKEN.findall(d)
    if not tokens:
        raise ValueError("empty path data")
    stray = tokens[-1]
    if stray[0] not in _COMMANDS and _NUM.fullmatch(stray) is None:
        raise ValueError(f"unexpected {stray[0]!r}")
    points: list[tuple[float, float]] = []
    cur = start = (0.0, 0.0)
    i = 0
    command = None
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
            command = "L" if command == "M" else "l"
        upper, rel = command.upper(), command.islower()
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
                points.append((ox + vals[j], oy + vals[j + 1]))
            cur = points[-1]
            if upper == "M":
                start = cur
    if not points:
        raise ValueError("no point to draw")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (min(xs), min(ys), max(xs), max(ys))


def _outcome(read, d: str) -> tuple[str, ...]:
    """What reading ``d`` gives: its box, each number's repr keeping a zero's sign, or the error."""
    try:
        return tuple(map(repr, read(d)))
    except ValueError as exc:
        return ("error", str(exc))


_SEPARATORS = " \t\n\r,"
# characters a path may hold, and some it may not: a no-break space and
# an Arabic-Indic digit look like a separator and a digit, and are neither
_PATH_CHARACTERS = _COMMANDS + "0123456789+-.eE" + _SEPARATORS + "#x\u00a0\u0663"
_NUMBERS = ("0", "7", "12", "-2.5", ".5", "3.", "1e3", "-.5E-2", "+4", "-0", "1.5.5", "1-2", "1e", ".", "-")


@st.composite
def _commands(draw) -> str:
    """Commands with about the right count of numbers each, glued by separators or by nothing."""
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        letter = draw(st.sampled_from(_COMMANDS))
        n = _ARGS_PER_COMMAND[letter.upper()]
        count = draw(st.sampled_from((n, n, 2 * n, n + 1, max(n - 1, 0), 1)))
        parts.append(letter)
        parts.extend(draw(st.sampled_from(_NUMBERS)) for _ in range(count))
    glue = draw(st.lists(st.sampled_from(("", " ", ",", "\n", " , ")),
                         min_size=len(parts), max_size=len(parts)))
    text = "".join(g + p for g, p in zip(glue, parts)) + draw(st.sampled_from(("", " ", "#", "e")))
    return text


_PATH_TEXTS = st.one_of(st.text(_PATH_CHARACTERS, max_size=30), _commands())


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(d=_PATH_TEXTS)
# numbers after a close, a command one number short, and digits that
# split in two would make a count
@example(d="M 0 0 Z 5")
@example(d="M 0 0 Q 1 2 3")
@example(d="M 123")
def test_the_grammar_accepts_exactly_what_the_reader_reads(d):
    read = _outcome(lambda text: PathData.read(text).box, d)
    assert (PATH_DATA.fullmatch(d) is not None) == (read[0] != "error"), read


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(d=_PATH_TEXTS)
@example(d="H-0 V-0")  # an absolute H or V keeps a zero's sign, as the reference does
def test_the_reader_gives_the_reference_box_or_message(d):
    assert _outcome(lambda text: PathData.read(text).box, d) == _outcome(_reference_box, d)
