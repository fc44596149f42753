"""SVG serialization and the canonical scene dump."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math
import random
import re
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bluefish import (
    Element,
    compile_source,
    dump_scene,
    expand_tree,
    paint,
    parse_document,
    standard_registry,
)
from bluefish.docformat import preorder
from bluefish.relations import (
    ElementKindSpec,
    layout_rect,
    paint_arrow,
    paint_circle,
    paint_ellipse,
    paint_path,
    paint_rect,
    paint_text,
)
from bluefish.scenegraph import Scenegraph
from bluefish.renderer import esc, fmt_num

from conftest import FIXTURES, call_at_depth, compile_doc, compile_fixture, errors_of, stack_chain
from generators import random_ref_free_doc, random_stack_triplet, sample_documents

GOLDEN_RECT = (
    b'<svg viewBox="0 0 10 20" xmlns="http://www.w3.org/2000/svg">\n'
    b'<rect fill="black" height="20" width="10" x="0" y="0"/>\n'
    b"</svg>\n"
)

GOLDEN_RECT_DUMP = (
    b'{"geometry":[{"height":20,"kind":"rect","width":10,"x":0,"y":0}],'
    b'"nodes":[{"bboxOwners":{"height":"n0","left":"n0","top":"n0","width":"n0"},'
    b'"children":[],"height":20,"id":"n0","kind":"rect","transform":{"x":0,"y":0},'
    b'"transformOwners":{"x":"n0","y":"n0"},"width":10,"x":0,"y":0}],"root":"n0"}\n'
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
    assert fmt_num(3) == "3"  # an int a custom layout decided


def _reference_quantize(value: float) -> Decimal:
    """repr(value) rounded half even to two fractional digits, exactly."""
    return Decimal(repr(float(value))).quantize(Decimal("0.01"), ROUND_HALF_EVEN, Context(prec=320))


def _reference_number(value: float) -> int | float:
    """The rounded value as the int or float whose json.dumps spelling the dump must write."""
    q = _reference_quantize(value)
    # a whole value keeps its decimal digits: int(1e30) would be the
    # float's binary value, 1000000000000000019884624838656
    return int(q) if float(q).is_integer() else float(q)


def _reference_cents(value: float) -> tuple[str, str]:
    """The fixed-point text and the JSON spelling of one Decimal quantize of repr(value)."""
    text = format(_reference_quantize(value), "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return ("0" if text == "-0" else text), repr(_reference_number(value))


def _nudged(n: int, ulps: int) -> float:
    value = n / 1000
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


_SIGN = st.sampled_from([1.0, -1.0])


@settings(max_examples=2000)
@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # thousandths: three-digit reprs, among them every exact tie
    st.integers(-10**12, 10**12).map(lambda n: n / 1000),
    # thousandths a few ulps off, just beside a tie or a cents boundary
    st.builds(_nudged, st.integers(-10**12, 10**12), st.integers(-3, 3)),
    # magnitudes on both sides of the 1e13 cut
    st.builds(lambda v, s: s * v, st.floats(1e12, 1e17), _SIGN),
    # what layout computes: text widths, halves of odd cents, centres
    st.builds(lambda size, n: 0.6 * size * n,
              st.integers(1, 400).map(lambda n: n / 4), st.integers(0, 500)),
    st.integers(-10**9, 10**9).map(lambda n: (2 * n + 1) / 100 / 2),
    st.builds(lambda start, extent: start + extent / 2.0,
              st.integers(-10**7, 10**7).map(lambda n: n / 100),
              st.integers(0, 10**7).map(lambda n: n / 100)),
))
@example(0.125)
@example(2.675)
@example(-7.125)
@example(0.005)
@example(1e-9)
@example(1e16)
@example(1e13)
@example(math.nextafter(1e13, 0.0))
@example(math.nextafter(0.125, 1.0))
@example(sys.float_info.max)
@example(-sys.float_info.max)
@example(-0.004)
@example(-0.0)
@example(0.1 + 0.2)
@example(9999999999999.99)
@example(math.nextafter(-1e13, 0.0))
@example(-2.675)
def test_numbers_match_a_decimal_quantize_of_their_repr(value):
    # one rule spells every number: the SVG's fixed point and the dump's JSON
    text, json_text = _reference_cents(value)
    assert text == json_text == fmt_num(value)


def test_markup_characters_are_escaped():
    assert esc('a<b & "c">') == "a&lt;b &amp; &quot;c&quot;&gt;"


# --- svg ------------------------------------------------------------------------


def test_single_rect_golden_bytes():
    scene = _scene({"kind": "rect", "props": {"width": 10, "height": 20}})
    assert paint(scene) == GOLDEN_RECT


def test_painting_does_not_recurse_with_depth():
    scene, diags = compile_source(stack_chain(256))
    assert diags == []
    # a painter recursing once per level would need 256 frames more than
    # the recursion limit of 1000 leaves from here
    svg = call_at_depth(900, lambda: paint(scene))
    assert svg.count(b"<rect") == 1


def test_svg_lines_carry_no_indentation():
    scene, diags = compile_fixture("connectors")
    assert errors_of(diags) == []
    lines = paint(scene).decode().splitlines()
    assert lines[1] == "<defs>"
    assert all(line == line.lstrip() for line in lines)


def test_painting_twice_is_byte_identical():
    scene, diags = compile_fixture("connectors")
    assert errors_of(diags) == []
    assert paint(scene) == paint(scene)


COMPILING_FIXTURES = sorted(
    p.stem for p in FIXTURES.glob("*.json") if p.stem != "conflict_two_aligns")


@pytest.mark.parametrize("fixture", COMPILING_FIXTURES)
def test_painting_only_reads_the_scene(fixture):
    scene, diags = compile_fixture(fixture)
    assert errors_of(diags) == []
    props = {nid: copy.deepcopy(dict(node.paint_props)) for nid, node in scene.nodes.items()}
    dump = dump_scene(scene)
    paint(scene)
    assert {nid: dict(node.paint_props) for nid, node in scene.nodes.items()} == props
    assert dump_scene(scene) == dump


@pytest.mark.parametrize("fixture", COMPILING_FIXTURES)
def test_paint_props_are_the_element_props_over_the_spec_defaults(fixture):
    # layout records its decisions on the node, never in paint_props; an
    # element-valued prop's mark is the node right after its holder
    registry = standard_registry()
    data = (FIXTURES / f"{fixture}.json").read_bytes()
    expected: list[dict] = []
    elements, _, _ = preorder(expand_tree(parse_document(data), registry))
    for el in elements:
        props = {} if el.kind == "ref" else {**registry.kinds[el.kind].default_props, **el.props}
        expected.append(props)
        expected.extend({**registry.kinds[v.kind].default_props, **v.props}
                        for v in props.values() if isinstance(v, Element))
    scene, diags = compile_fixture(fixture)
    assert errors_of(diags) == []
    assert [dict(node.paint_props) for node in scene.nodes.values()] == expected


def test_identity_translations_are_elided():
    # a path keeps its data as written and moves by its frame origin
    lone = paint(_scene({"kind": "path", "props": {"d": "M 0 0 L 10 5"}}))
    assert b"transform" not in lone
    stacked = paint(_scene({"kind": "stackV", "children": [
        {"kind": "rect", "props": {"width": 10, "height": 20}},
        {"kind": "path", "props": {"d": "M 0 0 L 10 5"}},
    ]}))
    assert b'<path d="M 0 0 L 10 5" fill="none" stroke="black" stroke-width="1"' \
        b' transform="translate(-5 20)"/>' in stacked


def test_stack_children_paint_at_their_scene_positions():
    scene = _scene({"kind": "stackV", "props": {"spacing": 30}, "children": [
        {"kind": "rect", "props": {"width": 10, "height": 20}},
        {"kind": "rect", "props": {"width": 30, "height": 10}},
    ]})
    # the stack centres its children on x = 0, so its box starts at -15
    assert paint(scene) == (
        b'<svg viewBox="-15 0 30 60" xmlns="http://www.w3.org/2000/svg">\n'
        b'<rect fill="black" height="20" width="10" x="-5" y="0"/>\n'
        b'<rect fill="black" height="10" width="30" x="-15" y="50"/>\n'
        b"</svg>\n")


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


def test_markers_are_numbered_as_arrows_paint():
    def arrow(stroke: str, a: str, b: str) -> dict:
        return {"kind": "arrow", "props": {"stroke": stroke},
                "children": [{"kind": "ref", "select": a}, {"kind": "ref", "select": b}]}

    scene, diags = compile_doc({"bluefish": 1, "root": {"kind": "group", "children": [
        {"kind": "stackH", "props": {"spacing": 30}, "children": [
            {"kind": "rect", "name": n, "props": {"width": 10, "height": 10}} for n in "abc"]},
        arrow("green", "a", "a"),  # degenerate: no segment, so no head
        arrow("red", "a", "b"),
        arrow("blue", "b", "c"),
        arrow("red", "a", "c"),
    ]}})
    assert [d.code for d in diags] == ["BF008"]
    lines = paint(scene).split(b"\n")
    head = b'markerHeight="4" markerUnits="strokeWidth" markerWidth="4" orient="auto"' \
        b' refX="4" refY="2" viewBox="0 0 4 4"><path d="M 0 0 L 4 2 L 0 4 Z"'
    assert lines[1:5] == [
        b"<defs>",
        b'<marker id="arrowhead-0" ' + head + b' fill="red"/></marker>',
        b'<marker id="arrowhead-1" ' + head + b' fill="blue"/></marker>',
        b"</defs>",
    ]
    ends = [line.split(b'marker-end="')[1].split(b'"')[0] for line in lines if b"marker-end" in line]
    assert ends == [b"url(#arrowhead-0)", b"url(#arrowhead-1)", b"url(#arrowhead-0)"]
    assert b"green" not in b"\n".join(lines)


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


def _reference_tag(name: str, attrs: dict, body: str | None = None) -> str:
    """Markup from an attribute dict, sorted: the order the mark writers keep by hand.

    An unset (None) attribute is left out; a float is spelled by
    ``fmt_num``, anything else escaped.
    """
    parts = [name]
    for key in sorted(attrs):
        value = attrs[key]
        if value is not None:
            parts.append(f'{key}="{fmt_num(value) if isinstance(value, float) else esc(str(value))}"')
    open_tag = " ".join(parts)
    return f"<{open_tag}/>" if body is None else f"<{open_tag}>{body}</{name}>"


def _reference_stroke(props) -> dict:
    if props.get("stroke") is None:
        return {}
    return {"stroke": props["stroke"], "stroke-width": props.get("strokeWidth"),
            "stroke-dasharray": props.get("strokeDasharray")}


def _reference_mark(paint_fn, node, markers: dict) -> str:
    """What the standard ``paint_fn`` writes for ``node`` in scene coordinates, built as a dict and sorted."""
    props = node.paint_props
    x, y, w, h = node.content_box()
    fill = {"fill": props.get("fill")}
    if paint_fn is paint_rect:
        return _reference_tag("rect", {"x": x, "y": y, "width": w, "height": h, **fill,
                                       "rx": props.get("rx", 0) or None, **_reference_stroke(props)})
    if paint_fn is paint_circle:
        return _reference_tag("circle", {"cx": x + w / 2.0, "cy": y + h / 2.0, "r": min(w, h) / 2.0,
                                         **fill, **_reference_stroke(props)})
    if paint_fn is paint_ellipse:
        return _reference_tag("ellipse", {"cx": x + w / 2.0, "cy": y + h / 2.0, "rx": w / 2.0,
                                          "ry": h / 2.0, **fill, **_reference_stroke(props)})
    if paint_fn is paint_path:
        shift = f"translate({fmt_num(node.x)} {fmt_num(node.y)})"
        return _reference_tag("path", {"d": props["d"], **fill, **_reference_stroke(props),
                                       "transform": None if shift == "translate(0 0)" else shift})
    if paint_fn is paint_text:
        return _reference_tag("text", {"x": x, "y": y, "dominant-baseline": "text-before-edge", **fill,
                                       "font-family": props.get("fontFamily"),
                                       "font-size": props.get("fontSize")}, esc(props["content"]))
    if node.segment is None:
        return ""
    x1, y1, x2, y2 = node.segment
    x1, y1, x2, y2 = x1 + node.x, y1 + node.y, x2 + node.x, y2 + node.y
    attrs = {"d": f"M {fmt_num(x1)} {fmt_num(y1)} L {fmt_num(x2)} {fmt_num(y2)}", "fill": "none",
             **_reference_stroke(props)}
    if paint_fn is paint_arrow:
        color = str(props.get("stroke") or "black")
        attrs["marker-end"] = f"url(#{markers.setdefault(color, f'arrowhead-{len(markers)}')})"
    return _reference_tag("path", attrs)


def _assert_marks_match_the_reference(scene) -> None:
    kinds = scene.registry.kinds
    markers: dict[str, str] = {}
    reference_markers: dict[str, str] = {}
    for node in scene.nodes.values():
        paint_fn = None if node.is_ref else kinds[node.kind].paint
        if paint_fn is None:
            continue
        assert paint_fn(node, fmt_num, esc, markers) == _reference_mark(paint_fn, node, reference_markers)
    assert markers == reference_markers


_STROKES = [{}, {"stroke": "red"}, {"stroke": "red", "strokeWidth": 2.675},
            {"stroke": "#0a0", "strokeDasharray": "4 2"},
            {"stroke": 'a"<b>&', "strokeWidth": 0.125, "strokeDasharray": "1,1"}]


def _mark_table(registry) -> dict:
    """Every standard mark over fill, stroke and its own style props, plus connectors.

    Each mark keeps the props its kind takes.
    """
    def el(kind: str, props: dict, **rest) -> dict:
        spec = registry.kinds[kind]
        taken = {*spec.required_props, *spec.optional_props}
        return {"kind": kind, "props": {k: v for k, v in props.items() if k in taken}, **rest}

    fills = [{}, {"fill": "none"}, {"fill": "a&b"}]
    marks = []
    for fill, stroke in itertools.product(fills, _STROKES):
        style = {**fill, **stroke}
        marks.extend([
            el("rect", {"width": 10.005, "height": 4, **style}),
            el("rect", {"width": 3, "height": 7.5, "rx": 2.5, **style}),
            el("circle", {"r": 4.125, **style}),
            el("ellipse", {"rx": 3, "ry": 1.335, **style}),
            el("path", {"d": "M 0 0 L 10 5 Q 3 3 1 1", **style}),
        ])
    for font in ({}, {"fontFamily": 'Ser"if & <co>'}, {"fontSize": 12.5}, {"fontFamily": "mono", "fontSize": 7}):
        marks.append(el("text", {"content": "a<b", **font}))
        marks.append(el("text", {"content": "x", "fill": "blue", **font}))
    # a custom mark with a number-typed fill: a float is spelled as a number
    marks.append(el("swatch", {"width": 2, "height": 2, "fill": 1e20}))
    marks.append(el("swatch", {"width": 2, "height": 2}))
    named = [el("rect", {"width": 5 + i, "height": 3}, name=f"m{i}") for i in range(4)]
    connectors = []
    for i, (kind, stroke) in enumerate(itertools.product(("line", "arrow"), _STROKES[1:])):
        connectors.append(el(kind, {"gap": 0.5 * i, **stroke}, children=[
            {"kind": "ref", "select": f"m{i % 4}"}, {"kind": "ref", "select": f"m{(i + 1) % 4}"}]))
    for kind in ("line", "arrow"):  # the second stroke colour and a degenerate one
        connectors.append(el(kind, {"stroke": "green"}, children=[
            {"kind": "ref", "select": "m0"}, {"kind": "ref", "select": "m2"}]))
        connectors.append(el(kind, {}, children=[
            {"kind": "ref", "select": "m1"}, {"kind": "ref", "select": "m1"}]))
    return {"bluefish": 1, "root": {"kind": "group", "children": [
        {"kind": "stackV", "props": {"spacing": 2.5}, "children": marks},
        {"kind": "stackH", "props": {"spacing": 30}, "children": named}, *connectors]}}


def test_marks_write_their_attributes_in_alphabetical_order():
    registry = standard_registry()
    registry.register(ElementKindSpec(
        kind="swatch", required_props=("width", "height"), optional_props={"fill": "teal"},
        is_mark=True, layout=layout_rect, paint=paint_rect))
    scene, diags = compile_doc(_mark_table(registry), registry)
    assert errors_of(diags) == []
    assert {d.code for d in diags} == {"BF008"}
    _assert_marks_match_the_reference(scene)
    svg = paint(scene)
    assert b'fill="100000000000000000000"' in svg and b'fill="teal"' in svg
    assert b'<marker id="arrowhead-1"' in svg


def test_marks_of_generated_documents_match_the_reference():
    for doc in _generated_documents():
        scene, diags = compile_doc(doc)
        assert errors_of(diags) == []
        _assert_marks_match_the_reference(scene)


# --- svg against the dump --------------------------------------------------------

_TAG = re.compile(r"<(\w+)")
_ATTRIBUTE = re.compile(r' ([\w-]+)="([^"]*)"')
_GEOMETRY = re.compile(rb'\{"height":([^,]+),"kind":"(\w+)","width":([^,]+),"x":([^,]+),"y":([^,}]+)\}')
_CHECKED = ("rect", "text", "circle", "ellipse")


def _svg_marks(svg: bytes) -> list[tuple[str, dict[str, str]]]:
    """(tag, attributes) of each painted rect, text, circle and ellipse, in order."""
    marks = []
    for line in svg.decode().splitlines():
        tag = _TAG.match(line)
        if tag and tag.group(1) in _CHECKED:
            marks.append((tag.group(1), dict(_ATTRIBUTE.findall(line.split(">", 1)[0]))))
    return marks


def test_the_svg_spells_the_dump_geometry():
    # read from the two outputs' text, not from the paint functions
    checked = 0
    for name, data in sample_documents():
        scene, _ = compile_source(data)
        if scene is None:
            continue
        svg, dump = paint(scene), dump_scene(scene)
        assert b"<g" not in svg, name
        geometry = [(kind.decode(), *(n.decode() for n in (x, y, width, height)))
                    for height, kind, width, x, y in _GEOMETRY.findall(dump)]
        assert len(geometry) == len(scene.marks()), name
        boxes = [(box, mark.content_box()) for box, mark in zip(geometry, scene.marks())
                 if box[0] in _CHECKED]
        painted = _svg_marks(svg)
        assert [tag for tag, _ in painted] == [box[0] for box, _ in boxes], name
        for (tag, attrs), ((_, x, y, width, height), (left, top, w, h)) in zip(painted, boxes):
            if tag == "rect":
                assert (attrs["x"], attrs["y"], attrs["width"], attrs["height"]) == (x, y, width, height), name
            elif tag == "text":
                assert (attrs["x"], attrs["y"]) == (x, y), name
            else:
                assert (attrs["cx"], attrs["cy"]) == (fmt_num(left + w / 2.0), fmt_num(top + h / 2.0)), name
            checked += 1
    assert checked > 5_000


# --- scene dump ----------------------------------------------------------------


def test_single_rect_dump_golden_bytes():
    scene = _scene({"kind": "rect", "props": {"width": 10, "height": 20}})
    assert dump_scene(scene) == GOLDEN_RECT_DUMP


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


@pytest.mark.parametrize("fixture", COMPILING_FIXTURES)
def test_dump_names_every_owner(fixture):
    scene, diags = compile_fixture(fixture)
    assert errors_of(diags) == []
    dump = json.loads(dump_scene(scene))
    for node in dump["nodes"]:
        if node["kind"] == "ref":
            continue
        assert set(node["transformOwners"]) == {"x", "y"}
        assert set(node["bboxOwners"]) <= {"left", "top", "width", "height"}


def _reference_dump(scene) -> bytes:
    """The dump as a dict tree encoded by json: the form ``dump_scene`` must match byte for byte."""
    nodes: list[dict] = []
    for node in scene.nodes.values():
        if node.is_ref:
            nodes.append({"id": node.id, "kind": "ref", "refId": node.ref_id})
            continue
        entry: dict[str, object] = {
            "id": node.id,
            "kind": node.kind,
            "x": _reference_number(node.x),
            "y": _reference_number(node.y),
            "width": _reference_number(node.width),
            "height": _reference_number(node.height),
            "transform": {"x": _reference_number(node.tx), "y": _reference_number(node.ty)},
            "bboxOwners": {f: o for f, o in node.owners.items() if not f.startswith("transform.")},
            "transformOwners": {f.removeprefix("transform."): o for f, o in node.owners.items()
                                if f.startswith("transform.")},
            "children": node.children,
        }
        if node.name is not None:
            entry["name"] = node.name
        nodes.append(entry)
    geometry = []
    for mark in scene.marks():
        left, top, width, height = mark.content_box()
        geometry.append({"kind": mark.kind, "x": _reference_number(left), "y": _reference_number(top),
                         "width": _reference_number(width), "height": _reference_number(height)})
    doc = {"root": scene.root, "geometry": geometry, "nodes": nodes}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _generated_documents() -> list[dict]:
    rng = random.Random(17)
    docs = [random_ref_free_doc(rng) for _ in range(150)]
    docs.extend(random_stack_triplet(rng)[2] for _ in range(50))  # the form over refs
    return docs


@pytest.mark.parametrize("fixture", COMPILING_FIXTURES)
def test_dump_matches_the_json_encoding_of_fixtures(fixture):
    scene, diags = compile_fixture(fixture)
    assert errors_of(diags) == []
    assert dump_scene(scene) == _reference_dump(scene)


def test_dump_matches_the_json_encoding_of_generated_documents():
    for doc in _generated_documents():
        scene, diags = compile_doc(doc)
        assert errors_of(diags) == []
        assert dump_scene(scene) == _reference_dump(scene)


def test_dump_spells_kinds_and_names_as_json_does():
    odd = 'q"b\\s\x01\u00e9\U0001F600'
    registry = standard_registry()
    registry.register(dataclasses.replace(registry.kinds["rect"], kind="k" + odd))
    scene, diags = compile_doc({"bluefish": 1, "root": {"kind": "group", "name": "n" + odd, "children": [
        {"kind": "k" + odd, "name": odd, "props": {"width": 3, "height": 4}},
    ]}}, registry)
    assert errors_of(diags) == []
    dump = dump_scene(scene)
    assert dump == _reference_dump(scene)
    assert json.loads(dump)["nodes"][1]["name"] == odd


@pytest.mark.parametrize("value", [1e13 + 0.25, 3.5e15, 1e16, 2.5e17, 1e300, -0.0, 2.675, 0.125, -7.125])
def test_dump_spells_numbers_as_json_does(value):
    # a lone childless group with every number the dump writes set to value
    scene = Scenegraph(standard_registry())
    root = scene.create_node("group", None)
    for field_name in ("left", "top", "transform.x", "transform.y"):
        scene.decide(root, field_name, value, root)
    for field_name in ("width", "height"):
        scene.decide(root, field_name, abs(value), root)
    scene.finalize()
    scene.resolve()
    assert root.children == []
    assert dump_scene(scene) == _reference_dump(scene)


def _box_registry(side: float):
    """The standard registry plus a ``box`` mark that decides ``side`` for its width and height."""
    def layout_box(rt, node, props):
        del props
        for field_name, value in (("left", 0), ("top", 0), ("width", side), ("height", side)):
            rt.graph.decide(node, field_name, value, node)

    registry = standard_registry()
    registry.register(ElementKindSpec(
        kind="box", optional_props={"fill": "black"}, is_mark=True, layout=layout_box, paint=paint_rect))
    return registry


# what a custom paint function hands to fmt: equal int and float, signed
# zero, values on both sides of a cent tie, a repeat, a huge one
_PROBED = (8, 8.0, -0.0, 0.0, -0.004, 2.675, -2.675, 2.675, 1e30)


def _paint_probe(node, fmt, esc, markers) -> str:
    return "<desc>%s</desc>" % " ".join(fmt(value) for value in _PROBED)


def test_integer_sizes_paint_and_dump_as_their_floats():
    # the probe's own 8.0 wide box sits in one scene with boxes of side 8 and 8.0
    doc = {"bluefish": 1, "root": {"kind": "stackH", "props": {"spacing": 3}, "children": [
        {"kind": "box"}, {"kind": "background", "children": [{"kind": "box"}]},
        {"kind": "probe", "props": {"width": 8, "height": 1}}]}}
    outputs = []
    for side in (8, 8.0):
        registry = _box_registry(side)
        registry.register(ElementKindSpec(
            kind="probe", required_props=("width", "height"), is_mark=True,
            layout=layout_rect, paint=_paint_probe))
        scene, diags = compile_doc(doc, registry)
        assert errors_of(diags) == []
        outputs.append((paint(scene), dump_scene(scene)))
    assert outputs[0] == outputs[1]
    assert b'width="8"' in outputs[0][0] and b'"width":8,' in outputs[0][1]
    # the fmt a paint function receives spells every number as fmt_num does
    spelled = " ".join(fmt_num(value) for value in _PROBED)
    assert spelled == "8 8 0 0 0 2.68 -2.68 2.68 1" + "0" * 30
    assert f"<desc>{spelled}</desc>".encode() in outputs[0][0]
