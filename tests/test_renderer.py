"""SVG serialization and the canonical scene dump."""

from __future__ import annotations

import json
import sys

from bluefish import compile_source, dump_scene, paint, parse_document, print_document
from bluefish.renderer import esc, fmt_num

from conftest import compile_doc, compile_fixture, errors_of

GOLDEN_RECT = (
    b'<svg viewBox="0 0 10 20" xmlns="http://www.w3.org/2000/svg">\n'
    b'  <rect fill="black" height="20" width="10" x="0" y="0"/>\n'
    b"</svg>\n"
)


def _scene(root: dict):
    scene, diags = compile_doc({"bluefish": 1, "root": root})
    assert errors_of(diags) == []
    return scene


# --- number and text formatting ----------------------------------------------------


def test_numbers_round_half_even_to_two_digits():
    cases = {
        12.345: "12.34",
        0.125: "0.12",
        0.135: "0.14",
        -7.125: "-7.12",
        3.0: "3",
        2.50: "2.5",
        1e-9: "0",
        -0.0001: "0",
        -0.0: "0",
        -5.0: "-5",
        1e30: "1" + "0" * 30,
        -sys.float_info.max: "-17976931348623157" + "0" * 292,
    }
    for value, expected in cases.items():
        assert fmt_num(value) == expected, value


def test_markup_characters_are_escaped():
    assert esc('a<b & "c">') == "a&lt;b &amp; &quot;c&quot;&gt;"


# --- svg ------------------------------------------------------------------------


def test_single_rect_golden_bytes():
    scene = _scene({"kind": "rect", "props": {"width": 10, "height": 20}})
    assert paint(scene) == GOLDEN_RECT


def test_painting_twice_is_byte_identical():
    scene, diags = compile_fixture("connectors")
    assert errors_of(diags) == []
    assert paint(scene) == paint(scene)


def test_identity_translations_are_elided():
    scene = _scene({"kind": "rect", "props": {"width": 10, "height": 20}})
    assert b"<g transform" not in paint(scene)


def test_stack_translations_appear_in_groups():
    scene = _scene({"kind": "stackV", "props": {"spacing": 30}, "children": [
        {"kind": "rect", "props": {"width": 10, "height": 20}},
        {"kind": "rect", "props": {"width": 30, "height": 10}},
    ]})
    svg = paint(scene)
    # the root shift pins the content box to the viewBox origin
    assert b'<g transform="translate(15 0)">' in svg
    assert b'<g transform="translate(-15 50)">' in svg
    assert svg.startswith(b'<svg viewBox="0 0 30 60"')


def test_document_size_rounds_up():
    scene = _scene({"kind": "rect", "props": {"width": 10.004, "height": 20}})
    svg = paint(scene)
    assert svg.startswith(b'<svg viewBox="0 0 10.01 20"')
    assert b'width="10"' in svg  # attribute formatting still rounds to nearest


def test_text_markup():
    scene = _scene({"kind": "text", "props": {"content": 'a<b & "c"'}})
    assert (
        b'<text dominant-baseline="text-before-edge" fill="black"'
        b' font-family="sans-serif" font-size="16" x="0" y="0">'
        b"a&lt;b &amp; &quot;c&quot;</text>"
    ) in paint(scene)


def test_rounded_corners_only_when_requested():
    scene, diags = compile_fixture("background_explicit_mark")
    assert errors_of(diags) == []
    svg = paint(scene)
    assert b'rx="4"' in svg
    plain = paint(_scene({"kind": "rect", "props": {"width": 5, "height": 5}}))
    assert b"rx=" not in plain


def test_refs_emit_no_markup():
    scene, diags = compile_fixture("ref_stack")
    assert errors_of(diags) == []
    assert paint(scene).count(b"<rect") == 2


def test_connector_markup_and_markers():
    scene, diags = compile_fixture("connectors")
    assert errors_of(diags) == []
    svg = paint(scene)
    assert svg.count(b"<marker") == 1
    assert b'id="arrowhead-0"' in svg
    assert b'marker-end="url(#arrowhead-0)"' in svg
    assert b'stroke-dasharray="5"' in svg
    assert b'<path d="M 0 0 L 4 2 L 0 4 Z" fill="black"/>' in svg


def test_degenerate_connector_paints_nothing():
    scene, diags = compile_doc({"bluefish": 1, "root": {
        "kind": "group",
        "children": [
            {"kind": "rect", "name": "a", "props": {"width": 10, "height": 10}},
            {"kind": "rect", "name": "b", "props": {"width": 20, "height": 20}},
            {"kind": "align", "props": {"alignment": "center"},
             "children": [{"kind": "ref", "select": "a"}, {"kind": "ref", "select": "b"}]},
            {"kind": "arrow",
             "children": [{"kind": "ref", "select": "a"}, {"kind": "ref", "select": "b"}]},
        ],
    }})
    assert [d.code for d in diags] == ["BF008"]
    svg = paint(scene)
    assert b"<defs>" not in svg
    assert b"marker-end" not in svg


# --- scene dump ----------------------------------------------------------------


def test_dump_geometry_lists_marks_in_paint_order():
    scene = _scene({"kind": "stackV", "children": [
        {"kind": "rect", "props": {"width": 10, "height": 20}},
        {"kind": "rect", "props": {"width": 30, "height": 10}},
    ]})
    dump = json.loads(dump_scene(scene))
    assert dump["geometry"] == [
        {"kind": "rect", "x": -5, "y": 0, "width": 10, "height": 20},
        {"kind": "rect", "x": -15, "y": 20, "width": 30, "height": 10},
    ]
    assert dump["root"] == "n0"


def test_dump_records_refs_as_edges():
    scene, diags = compile_fixture("ref_stack")
    assert errors_of(diags) == []
    dump = json.loads(dump_scene(scene))
    refs = [n for n in dump["nodes"] if n["kind"] == "ref"]
    layout_ids = {n["id"] for n in dump["nodes"] if n["kind"] != "ref"}
    assert len(refs) == 2
    assert all(set(r) == {"id", "kind", "refId"} for r in refs)
    assert all(r["refId"] in layout_ids for r in refs)


def test_dump_names_every_owner():
    scene = _scene({"kind": "stackV", "children": [
        {"kind": "rect", "props": {"width": 10, "height": 20}},
    ]})
    dump = json.loads(dump_scene(scene))
    for node in dump["nodes"]:
        assert set(node["transformOwners"]) == {"x", "y"}
        assert set(node["bboxOwners"]) <= {
            "left", "top", "width", "height", "centerX", "centerY", "right", "bottom"}


def test_canonical_printing_preserves_the_dump():
    raw = (json.dumps({"bluefish": 1, "root": {
        "kind": "stackH", "props": {"spacing": 12.0},
        "children": [
            {"kind": "circle", "name": "c", "props": {"r": 9}},
            {"kind": "text", "props": {"content": "hi"}},
        ],
    }})).encode("utf-8")
    direct, diags = compile_source(raw)
    assert errors_of(diags) == []
    reprinted, diags2 = compile_source(print_document(parse_document(raw)))
    assert errors_of(diags2) == []
    assert dump_scene(direct) == dump_scene(reprinted)
    assert paint(direct) == paint(reprinted)
