"""Mark sizing and the standard relations, pinned to hand-computed values."""

from __future__ import annotations

import json

import pytest

from bluefish import Scenegraph
from bluefish.docformat import parse_document, resolve_names, validate
from bluefish.engine import LayoutRuntime, build_scenegraph, layout_document, standard_registry
from bluefish.errors import DimensionConflict
from bluefish.geometry import Axis, path_control_points
from bluefish.relations import _clip_segment, measure_text
from bluefish.scenegraph import LayoutNode

from conftest import compile_doc, compile_fixture, errors_of


# --- text metrics ------------------------------------------------------------------


@pytest.mark.parametrize("content,size,expected", [
    ("", 16, (0.0, 19.2)),
    ("ab", 10, (12.0, 12.0)),
    ("Mercury", 16, (67.2, 19.2)),
])
def test_text_metrics_are_deterministic(content, size, expected):
    assert measure_text(content, size) == pytest.approx(expected)


def test_text_metrics_reject_nonpositive_sizes():
    with pytest.raises(ValueError):
        measure_text("x", 0)


# --- path data ---------------------------------------------------------------------


@pytest.mark.parametrize("d,expected", [
    ("M 0 20 C 10 0 30 40 40 20 L 60 20",
     [(0, 20), (10, 0), (30, 40), (40, 20), (60, 20)]),
    ("m 10 10 l 5 0", [(10, 10), (15, 10)]),
    ("M 0 0 H 10 V 5", [(0, 0), (10, 0), (10, 5)]),
    ("M 0 0 10 10", [(0, 0), (10, 10)]),  # implicit lineto after moveto
    ("M 5 5 L 10 10 Z l 1 0", [(5, 5), (10, 10), (6, 5)]),  # close rewinds
    ("M 0 0 A 5 5 0 0 1 10 10", [(0, 0), (10, 10)]),  # arc endpoints only
    ("M 1e1 2.5e-1", [(10.0, 0.25)]),
])
def test_control_points(d, expected):
    assert path_control_points(d) == [pytest.approx(p) for p in expected]


@pytest.mark.parametrize("d", ["", "10 10", "M 5", "M 0 0 Z 5", "M 0 Q"])
def test_malformed_path_data_is_rejected(d):
    with pytest.raises(ValueError):
        path_control_points(d)


# --- mark layout -------------------------------------------------------------------


def _single_mark_box(root: dict) -> tuple[float, float, float, float]:
    scene, diags = compile_doc({"bluefish": 1, "root": root})
    assert errors_of(diags) == []
    (mark,) = scene.marks()
    return mark.content_box()


def test_rect_box_matches_its_props():
    box = _single_mark_box({"kind": "rect", "props": {"width": 10, "height": 20}})
    assert box == (0.0, 0.0, 10.0, 20.0)


def test_circle_box_is_the_diameter_square():
    box = _single_mark_box({"kind": "circle", "props": {"r": 15}})
    assert box == (0.0, 0.0, 30.0, 30.0)


def test_ellipse_box_spans_both_radii():
    box = _single_mark_box({"kind": "ellipse", "props": {"rx": 10, "ry": 5}})
    assert box == (0.0, 0.0, 20.0, 10.0)


def test_text_box_uses_the_metrics():
    box = _single_mark_box({"kind": "text", "props": {"content": "Mercury", "fontSize": 16}})
    assert box == pytest.approx((0.0, 0.0, 67.2, 19.2))


def test_path_box_is_the_control_polygon():
    # content keeps its drawn coordinates; the box need not start at 0
    box = _single_mark_box({"kind": "path", "props": {"d": "M 10 20 L 30 25"}})
    assert box == (10.0, 20.0, 20.0, 5.0)


# --- stacks ------------------------------------------------------------------------


def _marks_of(root: dict):
    scene, diags = compile_doc({"bluefish": 1, "root": root})
    assert errors_of(diags) == []
    assert scene is not None
    return scene, [m.content_box() for m in scene.marks()]


_TALL = {"kind": "rect", "props": {"width": 10, "height": 20}}
_WIDE = {"kind": "rect", "props": {"width": 30, "height": 10}}


def test_stack_v_centers_and_spaces():
    scene, boxes = _marks_of({"kind": "stackV", "props": {"spacing": 30},
                              "children": [dict(_TALL), dict(_WIDE)]})
    assert boxes == [(-5.0, 0.0, 10.0, 20.0), (-15.0, 50.0, 30.0, 10.0)]
    assert scene.nodes[scene.root].content_box() == (-15.0, 0.0, 30.0, 60.0)


def test_stack_h_centers_and_spaces():
    scene, boxes = _marks_of({"kind": "stackH", "props": {"spacing": 5},
                              "children": [dict(_TALL), dict(_WIDE)]})
    assert boxes == [(0.0, -10.0, 10.0, 20.0), (15.0, -5.0, 30.0, 10.0)]
    assert scene.nodes[scene.root].content_box() == (0.0, -10.0, 45.0, 20.0)


def test_stack_edge_alignments():
    _, left = _marks_of({"kind": "stackV", "props": {"alignment": "left"},
                         "children": [dict(_TALL), dict(_WIDE)]})
    assert [b[0] for b in left] == [0.0, 0.0]
    _, right = _marks_of({"kind": "stackV", "props": {"alignment": "right"},
                          "children": [dict(_TALL), dict(_WIDE)]})
    assert [b[0] for b in right] == [-10.0, -30.0]


def _layout_write_log(root: dict) -> tuple[list[tuple[str, str, tuple[str, ...]]], list]:
    """The diagnostics and write_log of one document's layout, kept when layout aborts."""
    registry = standard_registry()
    tree = parse_document(json.dumps({"bluefish": 1, "root": root}))
    assert validate(tree, registry) == []
    refs, diags = resolve_names(tree)
    assert diags == []
    graph = build_scenegraph(tree, refs, registry)
    _, diags = layout_document(graph)
    return [(d.code, d.message, d.node_paths) for d in diags], graph.write_log


_OWN_BOX_LOG = [(f"n{i}", f, f"n{i}") for i in (1, 2) for f in ("left", "top", "width", "height")]


@pytest.mark.parametrize("root, diagnostic, log", [
    pytest.param(
        {"kind": "stackV", "children": [
            {"kind": "rect", "props": {"width": 10, "height": 1e308}},
            {"kind": "rect", "props": {"width": 10, "height": 1e308}}]},
        ("BF016", "geometry overflows the float range: 'height' of stackV would be inf", ("stackV",)),
        [*_OWN_BOX_LOG, ("n1", "transform.x", "n0"), ("n2", "transform.x", "n0"),
         ("n1", "transform.y", "n0"), ("n2", "transform.y", "n0"), ("n0", "top", "n0")],
        id="stackV"),
    pytest.param(
        {"kind": "stackH", "children": [
            {"kind": "rect", "props": {"width": 1e308, "height": 10}},
            {"kind": "rect", "props": {"width": 1e308, "height": 10}}]},
        ("BF016", "geometry overflows the float range: 'width' of stackH would be inf", ("stackH",)),
        [*_OWN_BOX_LOG, ("n1", "transform.y", "n0"), ("n2", "transform.y", "n0"),
         ("n1", "transform.x", "n0"), ("n2", "transform.x", "n0"), ("n0", "left", "n0")],
        id="stackH"),
    pytest.param(
        {"kind": "distribute", "props": {"direction": "vertical", "spacing": 1e308}, "children": [
            {"kind": "rect", "props": {"width": 10, "height": 10}},
            {"kind": "rect", "props": {"width": 10, "height": 1e308}}]},
        ("BF016", "geometry overflows the float range: 'height' of distribute would be inf",
         ("distribute",)),
        [*_OWN_BOX_LOG, ("n1", "transform.y", "n0"), ("n2", "transform.y", "n0"),
         ("n0", "top", "n0")],
        id="distribute"),
])
def test_a_relation_whose_own_box_overflows_is_one_bf016(root, diagnostic, log):
    # the relation decides its own box one field at a time: the fields
    # before the overflowing one are logged, and nothing after it
    diagnostics, write_log = _layout_write_log(root)
    assert diagnostics == [diagnostic]
    assert write_log == log


_ROOT_TRANSLATION_LOG = [("n0", "transform.x", "n0"), ("n0", "transform.y", "n0")]
_MARK_LOG = [*(("n0", f, "n0") for f in ("left", "top", "width", "height")), *_ROOT_TRANSLATION_LOG]


@pytest.mark.parametrize("mark", [
    {"kind": "rect", "props": {"width": 10, "height": 20}},
    {"kind": "circle", "props": {"r": 5}},
    {"kind": "ellipse", "props": {"rx": 3, "ry": 4}},
    {"kind": "text", "props": {"content": "hi"}},
    {"kind": "path", "props": {"d": "M 2 3 L 12 -4"}},
], ids=lambda mark: mark["kind"])
def test_a_mark_decides_its_own_box_in_order(mark):
    assert _layout_write_log(mark) == ([], _MARK_LOG)


def test_a_group_defaults_and_spans_one_axis_at_a_time():
    # the union's frame reads default each unplaced child's translation,
    # owned by the group, just before the group decides its box on that axis
    rect = {"kind": "rect", "props": {"width": 10, "height": 20}}
    assert _layout_write_log({"kind": "group", "children": [rect, dict(rect)]}) == ([], [
        *_OWN_BOX_LOG,
        ("n1", "transform.x", "n0"), ("n2", "transform.x", "n0"), ("n0", "left", "n0"), ("n0", "width", "n0"),
        ("n1", "transform.y", "n0"), ("n2", "transform.y", "n0"), ("n0", "top", "n0"), ("n0", "height", "n0"),
        *_ROOT_TRANSLATION_LOG])


@pytest.mark.parametrize("kind", ["rect", "circle"])
def test_a_background_mark_decides_only_its_start(kind):
    # the mark has no size props: it decides left and top, and the
    # background decides its size and translation
    diagnostics, write_log = _layout_write_log({
        "kind": "background", "props": {"background": {"kind": kind}},
        "children": [{"kind": "rect", "props": {"width": 10, "height": 20}}]})
    assert diagnostics == []
    assert write_log == [
        ("n1", "left", "n1"), ("n1", "top", "n1"),
        ("n2", "left", "n2"), ("n2", "top", "n2"), ("n2", "width", "n2"), ("n2", "height", "n2"),
        ("n2", "transform.x", "n0"), ("n1", "width", "n0"), ("n1", "transform.x", "n0"),
        ("n0", "left", "n0"), ("n0", "width", "n0"),
        ("n2", "transform.y", "n0"), ("n1", "height", "n0"), ("n1", "transform.y", "n0"),
        ("n0", "top", "n0"), ("n0", "height", "n0"), *_ROOT_TRANSLATION_LOG]


# --- align and distribute ----------------------------------------------------------


def test_align_moves_targets_onto_the_guideline():
    _, boxes = _marks_of({
        "kind": "group",
        "children": [
            dict(_TALL, name="a"),
            dict(_WIDE, name="b"),
            {"kind": "align", "props": {"alignment": "centerX"},
             "children": [{"kind": "ref", "select": "a"}, {"kind": "ref", "select": "b"}]},
        ],
    })
    assert [b[0] for b in boxes] == [-5.0, -15.0]
    assert [b[1] for b in boxes] == [0.0, 0.0]  # untouched axis stays put


def _fresh(kinds=()):
    del kinds
    registry = standard_registry()
    graph = Scenegraph(registry)
    return LayoutRuntime(graph=graph, registry=registry), graph


def _node(rt: LayoutRuntime, kind: str, parent: LayoutNode | None, **props) -> LayoutNode:
    spec = rt.registry.kinds[kind]
    paint = dict(spec.default_props)
    for key, value in props.items():
        paint[key] = float(value) if isinstance(value, (int, float)) else value
    return rt.graph.create_node(kind, parent, paint_props=paint)


def test_align_adopts_a_fixed_participant():
    rt, g = _fresh()
    root = _node(rt, "group", None)
    a = _node(rt, "rect", root, width=10, height=10)
    b = _node(rt, "rect", root, width=30, height=10)
    align = _node(rt, "align", root, alignment="left")
    g.create_ref(align, a)
    g.create_ref(align, b)
    rt.layout_node(a.id)
    rt.layout_node(b.id)
    g.set_dim_in_frame(a, root, "left", 100.0)
    rt.layout_node(align.id)
    assert g.bbox_in_frame(b, root, Axis.HORIZONTAL, "left") == [100.0]


def test_distribute_fills_backward_from_a_fixed_participant():
    rt, g = _fresh()
    root = _node(rt, "group", None)
    a = _node(rt, "rect", root, width=20, height=20)
    b = _node(rt, "rect", root, width=20, height=10)
    dist = _node(rt, "distribute", root, direction="vertical", spacing=30)
    g.create_ref(dist, a)
    g.create_ref(dist, b)
    rt.layout_node(a.id)
    rt.layout_node(b.id)
    g.set_dim_in_frame(b, root, "top", 100.0)
    rt.layout_node(dist.id)
    # slot for b starts at 20 + 30, so the whole run shifts up to meet it
    assert g.bbox_in_frame(a, root, Axis.VERTICAL, "top") == [50.0]
    assert dist.top == 50.0
    assert dist.height == 60.0


@pytest.mark.parametrize("kind,props,implied", [
    ("distribute", {"direction": "vertical", "spacing": 30}, 50.0),  # b's slot is 20 + 30
    ("align", {"alignment": "top"}, 0.0),  # b's top is a's
], ids=["distribute", "align"])
def test_relation_rejects_a_disagreeing_second_anchor(kind, props, implied):
    rt, g = _fresh()
    root = _node(rt, "group", None)
    a = _node(rt, "rect", root, width=20, height=20)
    b = _node(rt, "rect", root, width=20, height=10)
    relation = _node(rt, kind, root, **props)
    g.create_ref(relation, a)
    g.create_ref(relation, b)
    rt.layout_node(a.id)
    rt.layout_node(b.id)
    g.set_dim_in_frame(a, root, "top", 0.0)
    g.set_dim_in_frame(b, root, "top", 100.0)
    with pytest.raises(DimensionConflict) as excinfo:
        rt.layout_node(relation.id)
    conflict = excinfo.value
    assert (conflict.node, conflict.existing_owner, conflict.writer) == (b.id, root.id, relation.id)
    assert (conflict.existing_value, conflict.value) == (100.0, implied)


# --- background --------------------------------------------------------------------


def test_background_pads_and_sizes_its_mark():
    scene, diags = compile_fixture("background_explicit_mark")
    assert errors_of(diags) == []
    mark, circle = scene.marks()
    assert mark.kind == "rect"
    assert mark.content_box() == (0.0, 0.0, 46.0, 46.0)
    assert circle.content_box() == (8.0, 8.0, 30.0, 30.0)
    assert scene.nodes[scene.root].content_box() == (0.0, 0.0, 46.0, 46.0)


def test_background_default_mark_is_an_outlined_rect():
    scene, diags = compile_doc({"bluefish": 1, "root": {
        "kind": "background",
        "children": [{"kind": "circle", "props": {"r": 15}}],
    }})
    assert errors_of(diags) == []
    mark = scene.marks()[0]
    assert mark.kind == "rect"
    assert mark.paint_props["fill"] == "none"
    assert mark.paint_props["stroke"] == "black"
    assert mark.content_box() == (0.0, 0.0, 50.0, 50.0)  # default padding 10


# --- connectors --------------------------------------------------------------------


def _connector_scene(kind: str, props: dict):
    return compile_doc({"bluefish": 1, "root": {
        "kind": "group",
        "children": [
            {"kind": "distribute", "props": {"direction": "horizontal", "spacing": 30},
             "children": [
                 {"kind": "rect", "name": "a", "props": {"width": 10, "height": 10}},
                 {"kind": "rect", "name": "b", "props": {"width": 10, "height": 10}},
             ]},
            {"kind": "align", "props": {"alignment": "top"},
             "children": [{"kind": "ref", "select": "a"}, {"kind": "ref", "select": "b"}]},
            {"kind": kind, "props": props,
             "children": [{"kind": "ref", "select": "a"}, {"kind": "ref", "select": "b"}]},
        ],
    }})


def _by_kind(scene, kind: str):
    (node,) = [n for n in scene.nodes.values() if n.kind == kind]
    return node


def test_line_clips_to_the_box_edges():
    scene, diags = _connector_scene("line", {})
    assert errors_of(diags) == []
    line = _by_kind(scene, "line")
    assert line.segment == pytest.approx((10.0, 5.0, 40.0, 5.0))
    assert line.paint_props == scene.registry.kinds["line"].default_props  # no arrow flag


def test_arrow_insets_by_the_gap():
    scene, diags = _connector_scene("arrow", {"gap": 5})
    assert errors_of(diags) == []
    arrow = _by_kind(scene, "arrow")
    assert arrow.segment == pytest.approx((15.0, 5.0, 35.0, 5.0))
    assert arrow.paint_props == {**scene.registry.kinds["arrow"].default_props, "gap": 5.0}


def test_overlapping_endpoints_warn_and_draw_nothing():
    scene, diags = compile_doc({"bluefish": 1, "root": {
        "kind": "group",
        "children": [
            {"kind": "rect", "name": "a", "props": {"width": 10, "height": 10}},
            {"kind": "rect", "name": "b", "props": {"width": 20, "height": 20}},
            {"kind": "align", "props": {"alignment": "center"},
             "children": [{"kind": "ref", "select": "a"}, {"kind": "ref", "select": "b"}]},
            {"kind": "line",
             "children": [{"kind": "ref", "select": "a"}, {"kind": "ref", "select": "b"}]},
        ],
    }})
    assert scene is not None
    assert errors_of(diags) == []
    assert [d.code for d in diags] == ["BF008"]
    assert _by_kind(scene, "line").segment is None


def test_clip_handles_diagonals():
    seg = _clip_segment((5.0, 5.0), (10.0, 10.0), (35.0, 45.0), (10.0, 10.0), 0.0)
    assert seg == pytest.approx((8.75, 10.0, 31.25, 40.0))


def test_clip_gives_up_when_the_gap_eats_the_segment():
    assert _clip_segment((0.0, 0.0), (10.0, 10.0), (12.0, 0.0), (10.0, 10.0), 20.0) is None


def test_connector_needs_sized_endpoints():
    scene, diags = compile_doc({"bluefish": 1, "root": {
        "kind": "group",
        "children": [
            {"kind": "group", "name": "a"},
            {"kind": "rect", "name": "b", "props": {"width": 10, "height": 10}},
            {"kind": "line",
             "children": [{"kind": "ref", "select": "a"}, {"kind": "ref", "select": "b"}]},
        ],
    }})
    assert scene is None
    assert [d.code for d in errors_of(diags)] == ["BF012"]
