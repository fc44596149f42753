"""Pipeline behavior: single-pass layout, composites, and failure reporting."""

from __future__ import annotations

import dataclasses
import json

import pytest

from bluefish import dump_scene, paint
from bluefish.docformat import Element, parse_document, resolve_names, walk
from bluefish.engine import Registry, compile_source, expand_tree, standard_registry
from bluefish.errors import DuplicateKind
from bluefish.relations import ElementKindSpec, layout_group, layout_rect
from bluefish.scenegraph import LayoutNode

from conftest import compile_doc, compile_fixture, errors_of, node_named, stack_chain


def test_layout_runs_exactly_once_per_node():
    scene, diags = compile_fixture("planets")
    assert errors_of(diags) == []
    layout_nodes = {nid for nid, n in scene.nodes.items() if n.kind != "ref"}
    assert set(scene.layout_calls) == layout_nodes
    assert set(scene.layout_calls.values()) == {1}


def _write_log(fixture: str) -> list[tuple[str, str, str]]:
    scene, diags = compile_fixture(fixture)
    assert scene is not None and diags == []
    return scene.write_log


def _own_box(nid: str, *fields: str) -> list[tuple[str, str, str]]:
    return [(nid, f, nid) for f in fields]


def test_write_order_through_refs_is_pinned():
    # rects a (n1) and b (n2) size themselves; the stackV (n3) first pins
    # its own frame leg, then moves both referents; finalize defaults the
    # root's own translation (n0 is the root, so it owns the defaults)
    assert _write_log("ref_stack") == [
        *_own_box("n1", "left", "top", "width", "height"),
        *_own_box("n2", "left", "top", "width", "height"),
        ("n3", "transform.x", "n3"),
        ("n1", "transform.x", "n3"),
        ("n2", "transform.x", "n3"),
        ("n3", "transform.y", "n3"),
        ("n1", "transform.y", "n3"),
        ("n2", "transform.y", "n3"),
        *_own_box("n3", "top", "height", "left", "width"),
        *_own_box("n0", "left", "width", "top", "height"),
        ("n0", "transform.x", "n0"),
        ("n0", "transform.y", "n0"),
    ]


def test_write_order_of_connectors_is_pinned():
    # the stackH (n1) owns its rects' translations, cross axis first; each
    # connector (n5 arrow, n8 line) materializes the legs between its
    # frame and its referents before sizing itself
    assert _write_log("connectors") == [
        *_own_box("n2", "left", "top", "width", "height"),
        *_own_box("n3", "left", "top", "width", "height"),
        *_own_box("n4", "left", "top", "width", "height"),
        ("n2", "transform.y", "n1"),
        ("n3", "transform.y", "n1"),
        ("n4", "transform.y", "n1"),
        ("n2", "transform.x", "n1"),
        ("n3", "transform.x", "n1"),
        ("n4", "transform.x", "n1"),
        *_own_box("n1", "left", "width", "top", "height"),
        ("n1", "transform.x", "n5"),
        ("n5", "transform.x", "n5"),
        ("n1", "transform.y", "n5"),
        ("n5", "transform.y", "n5"),
        *_own_box("n5", "left", "width", "top", "height"),
        ("n8", "transform.x", "n8"),
        ("n8", "transform.y", "n8"),
        *_own_box("n8", "left", "width", "top", "height"),
        *_own_box("n0", "left", "width", "top", "height"),
        ("n0", "transform.x", "n0"),
        ("n0", "transform.y", "n0"),
    ]


def test_refs_share_nodes_instead_of_copying():
    scene, diags = compile_fixture("ref_stack")
    assert errors_of(diags) == []
    # two rects, two refs: still only two rect nodes in the scene
    assert sum(1 for n in scene.nodes.values() if n.kind == "rect") == 2
    assert sum(1 for n in scene.nodes.values() if n.kind == "ref") == 2


def test_empty_group_has_no_size():
    scene, diags = compile_doc({"bluefish": 1, "root": {"kind": "group"}})
    assert scene is None
    assert [d.code for d in errors_of(diags)] == ["BF004"]
    assert "no derivable extent" in diags[0].message


def test_ref_to_enclosing_relation_is_rejected():
    scene, diags = compile_doc({"bluefish": 1, "root": {
        "kind": "group",
        "children": [{
            "kind": "stackV", "name": "s",
            "children": [
                {"kind": "rect", "props": {"width": 5, "height": 5}},
                {"kind": "ref", "select": "s"},
            ],
        }],
    }})
    assert scene is None
    (diag,) = errors_of(diags)
    # the message names the ref's parent; the ref and its referent are the at lines
    assert diag.render() == (
        "error[BF009]: ref under 'group/stackV[0]:s' points at 'group/stackV[0]:s', "
        "which would make the relation contain itself\n"
        "  at group/stackV[0]:s/ref[1]\n"
        "  at group/stackV[0]:s")


def test_custom_layouts_receive_node_records():
    seen = []

    def layout_probe(rt, node, props):
        seen.append((node, [rt.graph.target_of(c) for c in node.children]))
        layout_group(rt, node, props)

    registry = standard_registry()
    registry.register(ElementKindSpec(kind="probe", min_children=1, layout=layout_probe))
    scene, diags = compile_doc({"bluefish": 1, "root": {
        "kind": "group",
        "children": [
            {"kind": "rect", "name": "a", "props": {"width": 5, "height": 5}},
            {"kind": "probe", "children": [
                {"kind": "circle", "name": "c", "props": {"r": 2}},
                {"kind": "ref", "select": "a"},
            ]},
        ],
    }}, registry=registry)
    assert errors_of(diags) == []
    ((node, targets),) = seen
    assert isinstance(node, LayoutNode) and node.kind == "probe"
    assert node is scene.nodes[node.id]
    # a child is its own target; a ref's target is its referent's record
    assert targets[0] is node_named(scene, "c")
    assert targets[1] is node_named(scene, "a")


def test_custom_marks_are_painted_and_dumped_with_the_compiling_registry():
    def paint_star(node, fmt, esc, markers):
        return f'<star size="{fmt(node.width)}"/>'

    registry = standard_registry()
    registry.register(ElementKindSpec(
        kind="star", is_mark=True, required_props=("width", "height"),
        layout=layout_rect, paint=paint_star))
    scene, diags = compile_doc({"bluefish": 1, "root": {
        "kind": "stackH",
        "children": [
            {"kind": "rect", "props": {"width": 4, "height": 4}},
            {"kind": "star", "props": {"width": 6, "height": 6}},
        ],
    }}, registry=registry)
    assert errors_of(diags) == []
    assert b'<star size="6"/>' in paint(scene)
    assert [m.kind for m in scene.marks()] == ["rect", "star"]
    assert [g["kind"] for g in json.loads(dump_scene(scene))["geometry"]] == ["rect", "star"]


def _background_doc(holder: str, curve: str, mark: dict | None) -> dict:
    props: dict = {"padding": 3} if mark is None else {"padding": 3, "background": mark}
    return {"bluefish": 1, "root": {
        "kind": holder, "props": props,
        "children": [{"kind": "stackH", "props": {"spacing": 2}, "children": [
            {"kind": "rect", "props": {"width": 4, "height": 6}},
            {"kind": curve, "props": {"d": "M 0 0 L 10 5 Q 12 8 3 9"}},
        ]}],
    }}


@pytest.mark.parametrize("mark", [None, {"kind": "ellipse", "props": {"fill": "gold"}}],
                         ids=["default-mark", "explicit-mark"])
def test_renamed_standard_kinds_behave_like_the_originals(mark):
    # what a kind does is in its spec, so a copy under another name does
    # the same: a frame sizes its mark, a curve's data is checked
    registry = standard_registry()
    registry.register(dataclasses.replace(registry.kinds["background"], kind="frame"))
    registry.register(dataclasses.replace(registry.kinds["path"], kind="curve"))
    original, diags = compile_doc(_background_doc("background", "path", mark))
    assert diags == []
    renamed, diags = compile_doc(_background_doc("frame", "curve", mark), registry=registry)
    assert diags == []
    assert paint(renamed) == paint(original)

    bad = {"d": "M 0 Q"}
    _, path_diags = compile_doc({"bluefish": 1, "root": {"kind": "path", "props": bad}})
    _, curve_diags = compile_doc({"bluefish": 1, "root": {"kind": "curve", "props": bad}},
                                 registry=registry)
    assert [(d.code, d.message) for d in curve_diags] == [(d.code, d.message) for d in path_diags]
    assert [d.code for d in path_diags] == ["BF007"]
    assert [d.node_paths for d in curve_diags] == [("curve",)]


def test_a_custom_mark_sized_by_its_holder_can_be_a_background_mark():
    def paint_diamond(node, fmt, esc, markers):
        x, y, w, h = node.local_left, node.local_top, node.width, node.height
        corners = [(x + w / 2, y), (x + w, y + h / 2), (x + w / 2, y + h), (x, y + h / 2)]
        return '<polygon points="%s"/>' % " ".join(f"{fmt(a)},{fmt(b)}" for a, b in corners)

    registry = standard_registry()
    registry.register(ElementKindSpec(
        kind="diamond", is_mark=True, required_props=("width", "height"),
        layout=layout_rect, paint=paint_diamond))
    scene, diags = compile_doc({"bluefish": 1, "root": {
        "kind": "background", "props": {"padding": 2, "background": {"kind": "diamond"}},
        "children": [{"kind": "rect", "props": {"width": 4, "height": 2}}],
    }}, registry=registry)
    assert diags == []
    assert b'<polygon points="4,0 8,3 4,6 0,3"/>' in paint(scene)
    geometry = json.loads(dump_scene(scene))["geometry"]
    assert geometry[0] == {"kind": "diamond", "x": 0, "y": 0, "width": 8, "height": 6}
    assert [g["kind"] for g in geometry] == ["diamond", "rect"]

    # the kinds a background may size are read from the registry
    _, diags = compile_doc({"bluefish": 1, "root": {
        "kind": "background", "props": {"background": {"kind": "text", "props": {"content": "x"}}},
        "children": [{"kind": "rect", "props": {"width": 4, "height": 2}}],
    }}, registry=registry)
    assert [(d.code, d.message, d.node_paths) for d in diags] == [(
        "BF007", "background mark must be one of circle, diamond, ellipse, rect; got 'text'",
        ("background.props.background",))]


# --- registry and composites --------------------------------------------------------


def test_duplicate_kind_is_rejected_without_override():
    registry = Registry()
    spec = ElementKindSpec(kind="widget")
    registry.register(spec)
    with pytest.raises(DuplicateKind):
        registry.register(ElementKindSpec(kind="widget", is_mark=True))
    assert registry.kinds["widget"] is spec


def _planet_registry() -> Registry:
    def expand_planet(props: dict, children: list) -> Element:
        assert not children
        return Element(kind="circle", props={"r": props.get("r", 10.0), "fill": "goldenrod"})

    registry = standard_registry()
    registry.register(ElementKindSpec(
        kind="planet",
        optional_props={"r": 10.0},
        prop_types={"r": "number"},
        expand=expand_planet,
    ))
    return registry


def test_composite_kinds_expand_before_layout():
    doc = {"bluefish": 1, "root": {
        "kind": "stackH", "props": {"spacing": 10},
        "children": [
            {"kind": "planet", "name": "p", "props": {"r": 15}},
            {"kind": "planet"},
        ],
    }}
    scene, diags = compile_doc(doc, registry=_planet_registry())
    assert errors_of(diags) == []
    planet = node_named(scene, "p")  # the outer name survives expansion
    assert planet.kind == "circle"
    assert planet.content_box()[2:] == (30.0, 30.0)
    assert planet.paint_props["fill"] == "goldenrod"


def test_composites_may_expand_to_composites():
    def expand_moon(props: dict, children: list) -> Element:
        return Element(kind="planet", props={"r": 5.0})

    registry = _planet_registry()
    registry.register(ElementKindSpec(kind="moon", expand=expand_moon))
    scene, diags = compile_doc({"bluefish": 1, "root": {"kind": "moon"}},
                               registry=registry)
    assert errors_of(diags) == []
    assert scene.marks()[0].kind == "circle"


def test_runaway_expansion_is_cut_off():
    def expand_loop(props: dict, children: list) -> Element:
        return Element(kind="loop")

    registry = standard_registry()
    registry.register(ElementKindSpec(kind="loop", expand=expand_loop))
    scene, diags = compile_doc({"bluefish": 1, "root": {"kind": "loop"}},
                               registry=registry)
    assert scene is None
    (diag,) = errors_of(diags)
    assert diag.code == "BF007"
    assert "without terminating" in diag.message


def test_scopes_follow_each_placement_of_a_shared_element():
    def expand_twins(props: dict, children: list) -> Element:
        box = Element(kind="rect", name="box", props={"width": 10.0, "height": 10.0})
        cell = Element(kind="group", name="cell", children=[box])
        return Element(kind="stackH", props={"spacing": 20.0}, children=[
            Element(kind="group", name="a", children=[cell]),
            Element(kind="group", name="b", children=[cell]),
        ])

    registry = standard_registry()
    registry.register(ElementKindSpec(kind="twins", expand=expand_twins))
    doc = {"bluefish": 1, "root": {
        "kind": "group",
        "children": [
            {"kind": "twins"},
            {"kind": "arrow", "children": [
                {"kind": "ref", "select": ["a", "cell", "box"]},
                {"kind": "ref", "select": ["b", "cell", "box"]},
            ]},
        ],
    }}
    tree = expand_tree(parse_document(json.dumps(doc)), registry)
    table, diags = resolve_names(tree)
    assert diags == []
    paths = [path for _, path, _ in walk(tree)]
    assert [paths[i] for i in table.values()] == [
        "group/stackH[0]/group[0]:a/group[0]:cell/rect[0]:box",
        "group/stackH[0]/group[1]:b/group[0]:cell/rect[0]:box",
    ]
    scene, diags = compile_doc(doc, registry=registry)
    assert errors_of(diags) == []
    boxes = [m.content_box() for m in scene.marks()]
    assert boxes == [(0.0, -5.0, 10.0, 10.0), (30.0, -5.0, 10.0, 10.0)]


def test_documents_nested_hundreds_deep_compile():
    scene, diags = compile_source(stack_chain(400))
    assert diags == []
    assert paint(scene).startswith(b"<svg ")
    assert [n["kind"] for n in json.loads(dump_scene(scene))["geometry"]] == ["rect"]


def test_documents_nested_too_deeply_are_one_schema_error():
    scene, diags = compile_source(stack_chain(5000))
    assert scene is None
    (diag,) = diags
    assert diag.code == "BF007"
    assert diag.message == "document nests too deeply (at document)"


def _tall_rect(height: float) -> dict:
    return {"kind": "rect", "props": {"width": 1, "height": height}}


@pytest.mark.parametrize("root, field, path", [
    # the stack's extent sums to inf
    ({"kind": "stackV", "children": [_tall_rect(1e308), _tall_rect(1e308)]}, "height", "stackV"),
    # the path's box spans more than the float range
    ({"kind": "path", "props": {"d": "M -1e308 0 L 1e308 0"}}, "width", "path"),
    # the third rect's slot, a translation, overflows before the extent does
    ({"kind": "stackV", "children": [_tall_rect(1e308)] * 3}, "transform.y", "stackV/rect[2]"),
])
def test_geometry_overflowing_the_float_range_is_one_diagnostic(root, field, path):
    scene, diags = compile_doc({"bluefish": 1, "root": root})
    assert scene is None
    (diag,) = diags
    assert (diag.code, diag.node_paths) == ("BF016", (path,))
    assert f"{field!r} of {path} would be inf" in diag.message


def test_static_problems_are_batched_before_layout():
    scene, diags = compile_doc({"bluefish": 1, "root": {
        "kind": "group",
        "children": [
            {"kind": "rect", "props": {"width": 5}},  # missing height
            {"kind": "stackV"},  # missing children
            {"kind": "ref", "select": "nowhere"},
        ],
    }})
    assert scene is None
    assert sorted(d.code for d in errors_of(diags)) == ["BF002", "BF007", "BF007"]
