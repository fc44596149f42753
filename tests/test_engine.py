"""Pipeline behavior: single-pass layout, composites, and failure reporting."""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from bluefish import dump_scene, paint
from bluefish.docformat import MAX_DEPTH, Element, _walk_path, parse_document, preorder, resolve_names
from bluefish.engine import Registry, compile_source, expand_tree, standard_registry
from bluefish.errors import DuplicateKind, InvalidKindSpec
from bluefish.relations import ElementKindSpec, layout_group, layout_rect, standard_kind_specs
from bluefish.scenegraph import LayoutNode

from conftest import call_at_depth, compile_doc, compile_fixture, errors_of, node_named, stack_chain


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
    # connector (n5 arrow, n8 line) reads its referents' boxes, which
    # defaults the legs between its frame and them, before sizing itself
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


def test_path_data_reaches_layout_and_paint_as_the_document_spells_it():
    d = "M10,20 l 5e1 -3.0 Q 1 2 3 4z"
    seen = []

    def layout_tick(rt, node, props):
        seen.append(props["d"])
        layout_rect(rt, node, {"width": 1.0, "height": 1.0})

    registry = standard_registry()
    registry.register(ElementKindSpec(
        kind="tick", is_mark=True, required_props=("d",), prop_types={"d": "path"},
        layout=layout_tick, paint=registry.kinds["path"].paint))
    scene, diags = compile_doc({"bluefish": 1, "root": {"kind": "stackH", "children": [
        {"kind": "path", "props": {"d": d}}, {"kind": "tick", "props": {"d": d}},
    ]}}, registry=registry)
    assert errors_of(diags) == []
    assert seen == [d] and isinstance(seen[0], str)
    assert paint(scene).count(f' d="{d}"'.encode()) == 2


def _tick_with_default(registry: Registry, d: str) -> ElementKindSpec:
    return dataclasses.replace(registry.kinds["path"], kind="tick", required_props=(),
                               optional_props={**registry.kinds["path"].optional_props, "d": d})


def test_a_path_default_is_read_when_registered():
    registry = standard_registry()
    for default, detail in [("M 1 2 #", "unexpected '#'"), ("Z", "no point to draw")]:
        with pytest.raises(InvalidKindSpec) as excinfo:
            registry.register(_tick_with_default(registry, default))
        assert str(excinfo.value) == f"element kind 'tick': default of path prop 'd': {detail}"
        assert "tick" not in registry.kinds
    registry.register(_tick_with_default(registry, "M 1 2 L 3 7"))
    scene, diags = compile_doc({"bluefish": 1, "root": {"kind": "tick"}}, registry=registry)
    assert errors_of(diags) == []
    assert scene.marks()[0].content_box() == (1.0, 2.0, 2.0, 5.0)


def test_a_custom_mark_sized_by_its_holder_can_be_a_background_mark():
    def paint_diamond(node, fmt, esc, markers):
        x, y, w, h = node.content_box()
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


# one template every expansion returns: int props, a prop mark, path data and child lists
_TEMPLATE = Element("stackV", props={"spacing": 2}, children=[
    Element("rect", props={"width": 3, "height": 4}),
    Element("path", props={"d": "M 0 0 L 4 2"}),
    Element("background", props={"background": Element("rect", props={"fill": "red"})},
            children=[Element("rect", props={"width": 5, "height": 1})]),
])


def _shape(el: Element) -> tuple:
    """The element's kind and name, each container's identity, and each value with its type, all the way down."""
    props = tuple((key, type(value), _shape(value) if isinstance(value, Element) else value)
                  for key, value in el.props.items())
    return (id(el), el.kind, el.name, id(el.props), props, id(el.children),
            tuple(_shape(child) for child in el.children))


def test_an_expansion_is_read_and_never_changed():
    # an element keeps the containers it is handed, so expansion hands it
    # copies: numbers, prop marks, path data and children are converted
    # in the copies, and compiling the same template twice gives the same bytes
    registry = standard_registry()
    registry.register(ElementKindSpec(kind="tmpl", expand=lambda props, children: _TEMPLATE))
    equal, shape = copy.deepcopy(_TEMPLATE), _shape(_TEMPLATE)
    doc = {"bluefish": 1, "root": {"kind": "group", "children": [{"kind": "tmpl", "name": "t"}, {"kind": "tmpl"}]}}
    outputs = []
    for _ in range(2):
        scene, diags = compile_doc(doc, registry=registry)
        assert diags == []
        outputs.append((paint(scene), dump_scene(scene)))
        assert _TEMPLATE == equal
        assert _shape(_TEMPLATE) == shape
    assert outputs[0] == outputs[1]


def _compile_comp(expansion: Element) -> tuple:
    """Compile a group whose second child is a composite expanding to ``expansion``."""
    registry = standard_registry()
    registry.register(ElementKindSpec(kind="comp", expand=lambda props, children: expansion))
    return compile_doc({"bluefish": 1, "root": {"kind": "group", "children": [
        {"kind": "rect", "name": "ab", "props": {"width": 5, "height": 5}},
        {"kind": "comp"},
    ]}}, registry=registry)


@pytest.mark.parametrize("expansion, expected", [
    (Element("group", children=["x"]),
     "element must be an Element, got str (at root.children[1].children[0])"),
    (Element("text", props={"content": "a\x00b"}),
     "SVG cannot carry '\\x00' in a string (at root.children[1].props.content)"),
    (Element("group", children=[Element("text", props={"content": "a\x00b"})]),
     "SVG cannot carry '\\x00' in a string (at root.children[1].children[0].props.content)"),
    (Element("rect", name=5, props={"width": 1.0, "height": 1.0}),
     "'name' must be a non-empty string (at root.children[1])"),
    (Element("rect", props={"width": True, "height": 1.0}),
     "prop values must be numbers, strings, or elements (at root.children[1].props.width)"),
    (Element("background", props={"background": {"kind": "rect"}}, children=[]),
     "element must be an Element, got dict (at root.children[1].props.background)"),
    (Element("rect", props=None), "'props' must be an object (at root.children[1])"),
    (Element("rect", props=[("width", 1.0), ("height", 1.0)]), "'props' must be an object (at root.children[1])"),
    (Element("group", children=None), "'children' must be a list (at root.children[1])"),
    (Element("group", children=(Element("rect"),)), "'children' must be a list (at root.children[1])"),
    (Element("background", props={"padding": 1.0, "background": Element("rect", props=None)},
             children=[Element("rect", props={"width": 1.0, "height": 1.0})]),
     "'props' must be an object (at root.children[1].props.background)"),
])
def test_an_expansion_is_checked_as_a_parsed_element_is(expansion, expected):
    scene, diags = _compile_comp(expansion)
    assert scene is None
    assert [(d.code, d.message) for d in diags] == [("BF007", expected)]


def test_an_expansion_reads_a_bare_string_select_as_one_name():
    scene, diags = _compile_comp(Element("ref", select="ab"))
    assert diags == []
    assert len(scene.marks()) == 1


def test_an_expansion_may_give_a_number_as_an_int():
    scene, diags = _compile_comp(Element("rect", name="r", props={"width": 2, "height": 3}))
    assert diags == []
    assert node_named(scene, "r").content_box()[2:] == (2.0, 3.0)


@pytest.mark.parametrize("facts, detail", [
    ({"prop_types": {"width": "numbr"}},
     "prop 'width' has type 'numbr', not one of number, string, path, element"),
    ({"prop_types": {"widht": "number"}}, "prop_types names undeclared prop(s) 'widht'"),
    ({"enum_props": {"mode": ("a", "b")}}, "enum_props names undeclared prop(s) 'mode'"),
    ({"nonnegative_props": frozenset({"widht"})}, "nonnegative_props names undeclared prop(s) 'widht'"),
    ({"positive_props": frozenset({"size"})}, "positive_props names undeclared prop(s) 'size'"),
])
def test_a_spec_whose_facts_disagree_is_refused_when_registered(facts, detail):
    registry = standard_registry()
    spec = ElementKindSpec(kind="tile", is_mark=True, required_props=("width",),
                           optional_props={"height": 1.0}, layout=layout_rect, **facts)
    with pytest.raises(InvalidKindSpec) as excinfo:
        registry.register(spec)
    assert str(excinfo.value) == f"element kind 'tile': {detail}"
    assert "tile" not in registry.kinds


def test_every_standard_spec_registers():
    registry = Registry()
    for spec in standard_kind_specs():
        registry.register(spec)
    assert list(registry.kinds) == list(standard_registry().kinds)


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
    order = preorder(tree)
    assert [_walk_path(order, i) for i in table.values()] == [
        "group/stackH[0]/group[0]:a/group[0]:cell/rect[0]:box",
        "group/stackH[0]/group[1]:b/group[0]:cell/rect[0]:box",
    ]
    scene, diags = compile_doc(doc, registry=registry)
    assert errors_of(diags) == []
    boxes = [m.content_box() for m in scene.marks()]
    assert boxes == [(0.0, -5.0, 10.0, 10.0), (30.0, -5.0, 10.0, 10.0)]


def test_documents_nested_hundreds_deep_compile():
    scene, diags = compile_source(stack_chain(256))
    assert diags == []
    assert paint(scene).startswith(b"<svg ")
    assert [n["kind"] for n in json.loads(dump_scene(scene))["geometry"]] == ["rect"]


@pytest.mark.parametrize("frames", [0, 400, 900],
                         ids=["from the test", "from 400 frames deep", "from 900 frames deep"])
def test_the_nesting_limit_does_not_depend_on_the_callers_stack(frames):
    # the root is at depth 1, so stack_chain(n) nests n elements deep
    assert MAX_DEPTH == 256
    scene, diags = call_at_depth(frames, lambda: compile_source(stack_chain(MAX_DEPTH)))
    assert scene is not None and diags == []
    scene, diags = call_at_depth(frames, lambda: compile_source(stack_chain(MAX_DEPTH + 1)))
    assert scene is None
    (diag,) = diags
    assert (diag.code, diag.message, diag.node_paths) == (
        "BF007", "document nests too deeply (at document)", ("document",))


def _tower_registry() -> Registry:
    def expand_tower(props: dict, children: list) -> Element:
        # built by a loop, so the expansion itself never recurses
        el = Element(kind="rect", props={"width": 4.0, "height": 3.0})
        for _ in range(int(props["n"])):
            el = Element(kind="group", children=[el])
        return el

    registry = standard_registry()
    registry.register(ElementKindSpec(kind="tower", expand=expand_tower))
    return registry


@pytest.mark.parametrize("frames", [0, 900], ids=["from the test", "from 900 frames deep"])
def test_expansions_obey_the_nesting_limit(frames):
    # a tower at the root expands to n groups around a rect, n + 1 deep
    registry = _tower_registry()

    def compile_tower(n: int):
        doc = {"bluefish": 1, "root": {"kind": "tower", "props": {"n": n}}}
        return call_at_depth(frames, lambda: compile_source(json.dumps(doc), registry))

    scene, diags = compile_tower(MAX_DEPTH - 1)
    assert scene is not None and diags == []
    assert len(scene.nodes) == MAX_DEPTH
    for n in (MAX_DEPTH, 2000):
        scene, diags = compile_tower(n)
        assert scene is None
        assert [(d.code, d.message, d.node_paths) for d in diags] == [
            ("BF007", "document nests too deeply (at document)", ("document",))]


def _groups_around_a_background(levels: int) -> bytes:
    """``levels - 1`` nested groups around a background, whose mark and child sit one deeper."""
    inner = ('{"kind": "background", "props": {"background": {"kind": "rect"}},'
             ' "children": [{"kind": "rect", "props": {"width": 1, "height": 1}}]}')
    root = '{"kind": "group", "children": [' * (levels - 1) + inner + "]}" * (levels - 1)
    return ('{"bluefish": 1, "root": ' + root + "}").encode("utf-8")


def test_a_prop_mark_sits_one_level_deeper_than_its_holder():
    scene, diags = compile_source(_groups_around_a_background(MAX_DEPTH - 1))
    assert scene is not None and diags == []
    scene, diags = compile_source(_groups_around_a_background(MAX_DEPTH))
    assert scene is None
    assert [(d.code, d.message) for d in diags] == [("BF007", "document nests too deeply (at document)")]


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
