"""Box derivation on one axis: centres and ends derive from a start and an extent."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bluefish import Scenegraph, standard_registry
from bluefish.geometry import Axis, axis_of
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
