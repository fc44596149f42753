"""Compound scenegraph: refs, lazy transforms, frames, and finalize."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bluefish import Axis, Scenegraph
from bluefish.errors import (
    DimensionConflict,
    DisconnectedNodes,
    RefToRef,
    SelfReference,
    UndefinedExtentError,
    UnknownNode,
    UnknownParent,
    UnsizedNodes,
)


def _rect(g: Scenegraph, parent: str | None, w: float, h: float) -> str:
    nid = g.create_node("rect", parent)
    for field, value in (("left", 0.0), ("top", 0.0), ("width", w), ("height", h)):
        g.set_dim_in_frame(nid, nid, field, value, nid)
    return nid


# --- construction ------------------------------------------------------------------


def test_ids_are_sequential_and_children_keep_order():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = g.create_node("rect", root)
    b = g.create_node("rect", root)
    assert (root, a, b) == ("n0", "n1", "n2")
    assert g.nodes[root].children == [a, b]
    assert g.root == root


def test_unknown_parent_rejected():
    g = Scenegraph()
    with pytest.raises(UnknownParent):
        g.create_node("rect", "n99")


def test_ref_resolves_to_its_referent():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = _rect(g, root, 10, 10)
    stack = g.create_node("stackV", root)
    ref = g.create_ref(stack, a)
    assert g.target_of(ref) == a
    assert g.target_of(a) == a


def test_ref_to_unknown_node_rejected():
    g = Scenegraph()
    root = g.create_node("group", None)
    with pytest.raises(UnknownNode):
        g.create_ref(root, "n42")


def test_ref_to_ref_rejected():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = _rect(g, root, 10, 10)
    stack = g.create_node("stackV", root)
    ref = g.create_ref(stack, a)
    with pytest.raises(RefToRef):
        g.create_ref(stack, ref)


def test_ref_to_own_ancestor_rejected():
    g = Scenegraph()
    root = g.create_node("group", None)
    stack = g.create_node("stackV", root)
    with pytest.raises(SelfReference):
        g.create_ref(stack, stack)
    with pytest.raises(SelfReference):
        g.create_ref(stack, root)


# --- write semantics ---------------------------------------------------------------


def test_own_frame_write_defines_the_local_box_only():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 20.0)
    node = g.nodes[a]
    assert node.bbox.left == 0.0 and node.bbox.width == 10.0
    assert node.transform.x is None
    assert not g.is_fixed(a, Axis.HORIZONTAL)


def test_cross_frame_write_moves_without_reshaping():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 20.0)
    g.set_dim_in_frame(a, root, "left", 25.0, root)
    node = g.nodes[a]
    assert node.transform.x == 25.0
    assert node.transform_owners["x"] == root
    assert node.bbox.left == 0.0  # the local box is untouched
    assert g.is_fixed(a, Axis.HORIZONTAL)
    assert not g.is_fixed(a, Axis.VERTICAL)


def test_cross_frame_write_derives_local_position_from_extent():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = g.create_node("rect", root)
    g.set_dim_in_frame(a, a, "width", 10.0, a)
    g.set_dim_in_frame(a, root, "centerX", 0.0, root)
    assert g.nodes[a].transform.x == -5.0


def test_start_write_needs_no_extent():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = g.create_node("rect", root)
    g.set_dim_in_frame(a, root, "left", 7.0, root)
    assert g.nodes[a].transform.x == 7.0


def test_center_write_with_no_extent_is_underivable():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = g.create_node("rect", root)
    with pytest.raises(UndefinedExtentError):
        g.set_dim_in_frame(a, root, "centerX", 0.0, root)


def test_stored_position_with_underivable_field_is_an_error():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = g.create_node("path", root)
    g.set_dim_in_frame(a, a, "left", 3.0, a)  # position but no width
    with pytest.raises(UndefinedExtentError):
        g.set_dim_in_frame(a, root, "centerX", 10.0, root)


def test_double_placement_conflicts_with_both_owners():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    first = g.create_node("align", root)
    second = g.create_node("align", root)
    g.set_dim_in_frame(a, root, "top", 0.0, first)
    with pytest.raises(DimensionConflict) as excinfo:
        g.set_dim_in_frame(a, root, "top", 30.0, second)
    assert excinfo.value.existing_owner == first
    assert excinfo.value.writer == second


def test_same_writer_same_value_is_idempotent():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    g.set_dim_in_frame(a, root, "top", 12.0, root)
    g.set_dim_in_frame(a, root, "top", 12.0, root)
    assert g.nodes[a].transform.y == 12.0


def test_writes_are_logged():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    before = len(g.write_log)
    g.set_dim_in_frame(a, root, "left", 1.0, root)
    assert len(g.write_log) == before + 1


# --- lazy materialization ----------------------------------------------------------


def test_read_through_frames_materializes_undecided_transforms():
    g = Scenegraph()
    root = g.create_node("group", None)
    inner = g.create_node("group", root)
    a = _rect(g, inner, 10.0, 10.0)
    requester = g.create_node("align", root)
    box = g.bbox_in_frame(a, root, Axis.HORIZONTAL, requester)
    assert box["left"] == 0.0
    assert g.nodes[inner].transform.x == 0.0
    assert g.nodes[inner].transform_owners["x"] == requester
    assert g.nodes[a].transform_owners["x"] == requester


def test_materialize_keeps_decided_values():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    g.set_dim_in_frame(a, root, "left", 40.0, root)
    assert g.materialize(a, Axis.HORIZONTAL, "n99") == 40.0
    assert g.nodes[a].transform_owners["x"] == root


def test_write_into_a_sibling_frame_composes_both_legs():
    g = Scenegraph()
    root = g.create_node("group", None)
    g1 = g.create_node("group", root)
    g2 = g.create_node("group", root)
    a = _rect(g, g1, 10.0, 10.0)
    g.set_dim_in_frame(a, g2, "left", 40.0, root)
    box = g.bbox_in_frame(a, g2, Axis.HORIZONTAL, root)
    assert box["left"] == 40.0
    # both legs got pinned on the way
    assert g.nodes[g1].transform.x == 0.0
    assert g.nodes[g2].transform.x == 0.0


@given(depth=st.integers(min_value=1, max_value=4),
       value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_frame_coherence_after_a_write(depth, value):
    g = Scenegraph()
    root = g.create_node("group", None)
    parent = root
    for _ in range(depth):
        parent = g.create_node("group", parent)
    a = _rect(g, parent, 10.0, 10.0)
    g.set_dim_in_frame(a, root, "left", value, root)
    box = g.bbox_in_frame(a, root, Axis.HORIZONTAL, root)
    assert box["left"] == pytest.approx(value, abs=1e-9)


def test_read_from_a_deeper_frame_subtracts_the_frame_leg():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    outer = g.create_node("group", root)
    inner = g.create_node("group", outer)
    g.set_dim_in_frame(a, root, "left", 30.0, root)
    g.set_dim_in_frame(outer, root, "left", 5.0, root)
    box = g.bbox_in_frame(a, inner, Axis.HORIZONTAL, "n99")
    assert box["left"] == 25.0
    assert g.nodes[inner].transform_owners["x"] == "n99"  # frame leg pinned
    assert g.nodes[root].transform.x is None  # the lca's own translation is untouched


def test_frames_of_parentless_nodes_are_disconnected():
    g = Scenegraph()
    a = _rect(g, None, 10.0, 10.0)
    b = _rect(g, None, 10.0, 10.0)
    with pytest.raises(DisconnectedNodes):
        g.bbox_in_frame(a, b, Axis.HORIZONTAL, a)


# --- finalize and resolve ----------------------------------------------------------


def test_finalize_defaults_transforms_to_zero_owned_by_root():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    g.set_dim_in_frame(root, root, "width", 10.0, root)
    g.set_dim_in_frame(root, root, "height", 10.0, root)
    g.finalize()
    assert g.nodes[a].transform.x == 0.0
    assert g.nodes[a].transform_owners["x"] == root


def test_finalize_reports_unsized_nodes():
    g = Scenegraph()
    root = g.create_node("group", None)
    a = g.create_node("rect", root)  # never sized
    g.set_dim_in_frame(root, root, "width", 1.0, root)
    g.set_dim_in_frame(root, root, "height", 1.0, root)
    with pytest.raises(UnsizedNodes) as excinfo:
        g.finalize()
    assert a in excinfo.value.node_ids


def test_resolve_accumulates_origins_down_the_tree():
    g = Scenegraph()
    root = g.create_node("group", None)
    inner = g.create_node("group", root)
    a = _rect(g, inner, 10.0, 10.0)
    g.set_dim_in_frame(inner, root, "left", 5.0, root)
    g.set_dim_in_frame(inner, root, "top", 0.0, root)
    g.set_dim_in_frame(a, inner, "left", 2.0, inner)
    g.set_dim_in_frame(a, inner, "top", 0.0, inner)
    for nid in (root, inner):
        g.set_dim_in_frame(nid, nid, "width", 20.0, nid)
        g.set_dim_in_frame(nid, nid, "height", 20.0, nid)
    g.finalize()
    scene = g.resolve()
    assert scene[a].x == 7.0
    assert scene[a].content_box() == (7.0, 0.0, 10.0, 10.0)
    assert scene.order[0] == root
