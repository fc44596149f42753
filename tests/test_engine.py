"""Pipeline behavior: single-pass layout, composites, and failure reporting."""

from __future__ import annotations

import json

import pytest

from bluefish import dump_scene, paint
from bluefish.docformat import Element, parse_document, resolve_names
from bluefish.engine import (
    Registry,
    compile_source,
    expand_tree,
    register_element_kind,
    standard_registry,
)
from bluefish.errors import DuplicateKind
from bluefish.relations import ElementKindSpec

from conftest import compile_doc, compile_fixture, errors_of, stack_chain


def test_layout_runs_exactly_once_per_node():
    scene, diags = compile_fixture("planets")
    assert errors_of(diags) == []
    layout_nodes = {n for n in scene.order if scene[n].kind != "ref"}
    assert set(scene.layout_calls) == layout_nodes
    assert set(scene.layout_calls.values()) == {1}


def test_refs_share_nodes_instead_of_copying():
    scene, diags = compile_fixture("ref_stack")
    assert errors_of(diags) == []
    # two rects, two refs: still only two rect nodes in the scene
    assert sum(1 for n in scene.order if scene[n].kind == "rect") == 2
    assert sum(1 for n in scene.order if scene[n].kind == "ref") == 2


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
    assert diag.code == "BF009"
    assert all("stackV" in path for path in diag.node_paths)


# --- registry and composites --------------------------------------------------------


def test_duplicate_kind_is_rejected_without_override():
    registry = Registry()
    spec = ElementKindSpec(kind="widget")
    registry.register(spec)
    with pytest.raises(DuplicateKind):
        registry.register(spec)
    replacement = ElementKindSpec(kind="widget", is_mark=True)
    registry.register(replacement, override=True)
    assert registry.kinds["widget"] is replacement


def _planet_registry() -> Registry:
    def expand_planet(props: dict, children: list) -> Element:
        assert not children
        return Element(kind="circle", props={"r": props.get("r", 10.0), "fill": "goldenrod"})

    registry = standard_registry()
    return register_element_kind(registry, ElementKindSpec(
        kind="planet",
        optional_props={"r": 10.0},
        prop_types={"r": "number"},
        expand=expand_planet,
    ))


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
    planet = scene.by_name("p")  # the outer name survives expansion
    assert planet.kind == "circle"
    assert planet.content_box()[2:] == (30.0, 30.0)
    assert planet.paint_props["fill"] == "goldenrod"


def test_composites_may_expand_to_composites():
    def expand_moon(props: dict, children: list) -> Element:
        return Element(kind="planet", props={"r": 5.0})

    registry = _planet_registry()
    register_element_kind(registry, ElementKindSpec(kind="moon", expand=expand_moon))
    scene, diags = compile_doc({"bluefish": 1, "root": {"kind": "moon"}},
                               registry=registry)
    assert errors_of(diags) == []
    assert scene.marks()[0].kind == "circle"


def test_runaway_expansion_is_cut_off():
    def expand_loop(props: dict, children: list) -> Element:
        return Element(kind="loop")

    registry = standard_registry()
    register_element_kind(registry, ElementKindSpec(kind="loop", expand=expand_loop))
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
    register_element_kind(registry, ElementKindSpec(kind="twins", expand=expand_twins))
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
    assert [table.paths[i] for i in table.refs.values()] == [
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
    assert b'"kind": "rect"' in dump_scene(scene)


def test_documents_nested_too_deeply_are_one_schema_error():
    scene, diags = compile_source(stack_chain(5000))
    assert scene is None
    (diag,) = diags
    assert diag.code == "BF007"
    assert diag.message == "document nests too deeply (at document)"


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
