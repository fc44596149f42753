"""Document parsing, canonical printing, validation, and name resolution."""

from __future__ import annotations

import json
import sys
from xml.dom import minidom

import pytest

from bluefish import paint
from bluefish.docformat import (
    Element,
    parse_document,
    print_document,
    resolve_names,
    validate,
    walk,
)
from bluefish.engine import compile_source, standard_registry
from bluefish.errors import DocumentSyntaxError, SchemaError

from conftest import errors_of


def _doc(root: dict) -> bytes:
    return json.dumps({"bluefish": 1, "root": root}).encode("utf-8")


_RECT = {"kind": "rect", "props": {"width": 10, "height": 20}}


# --- parse and print ---------------------------------------------------------------


def test_parse_print_parse_is_stable():
    raw = _doc({
        "kind": "group",
        "children": [
            {"kind": "rect", "name": "a", "props": {"width": 10, "height": 20.5}},
            {"kind": "stackV", "props": {"spacing": 3}, "children": [{"kind": "ref", "select": "a"}]},
        ],
    })
    tree = parse_document(raw)
    assert parse_document(print_document(tree)) == tree


def test_print_document_is_canonical():
    shuffled = _doc({"kind": "rect", "props": {"height": 20, "width": 10.0}})
    sorted_props = _doc({"kind": "rect", "props": {"width": 10, "height": 20}})
    assert print_document(parse_document(shuffled)) == print_document(parse_document(sorted_props))
    out = print_document(parse_document(shuffled)).decode("utf-8")
    assert '"width": 10' in out  # integral floats print as ints
    assert out.index('"height"') < out.index('"width"')


def test_numeric_props_become_floats():
    tree = parse_document(_doc(_RECT))
    assert tree.props["width"] == 10.0
    assert isinstance(tree.props["width"], float)


def test_malformed_json_reports_position():
    with pytest.raises(DocumentSyntaxError) as excinfo:
        parse_document(b'{"bluefish": 1,\n "root": }')
    assert excinfo.value.line == 2
    assert excinfo.value.column > 0


@pytest.mark.parametrize("raw, line, column", [
    (b"\xff{}", 1, 1),  # a bad first byte
    (b'{\n\n  "bluefish": 1, "x": "\xff"}', 3, 24),  # after newlines
    (b'{"bluefish": 1, "x": "' + "\u65e5\u672c".encode("utf-8") + b'\xff"}', 1, 25),
])
def test_invalid_utf8_reports_the_position_json_would(raw, line, column):
    # 1-based line and column over the decoded prefix; the third document's
    # bad byte follows two three-byte characters, so bytes and characters differ
    with pytest.raises(DocumentSyntaxError) as excinfo:
        parse_document(raw)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)
    _, diagnostics = compile_source(raw)
    assert [d.render() for d in diagnostics] == [
        f"error[BF006]: invalid JSON at line {line}, column {column}: "
        "document is not valid UTF-8\n  at document"]


@pytest.mark.parametrize("raw", [
    b"[]",
    b'{"root": {"kind": "rect"}}',
    b'{"bluefish": 2, "root": {"kind": "rect"}}',
    b'{"bluefish": 1}',
    b'{"bluefish": 1, "root": {"kind": "rect"}, "extra": 1}',
])
def test_document_shape_is_checked(raw):
    with pytest.raises(SchemaError):
        parse_document(raw)


@pytest.mark.parametrize("root", [
    {"kind": ""},
    {"kind": "rect", "name": ""},
    {"kind": "rect", "props": {"width": True}},
    {"kind": "rect", "props": {"width": None}},
    {"kind": "rect", "props": {"width": [1]}},
    {"kind": "rect", "children": {}},
    {"kind": "rect", "unknown": 1},
    {"kind": "ref", "select": []},
])
def test_element_shape_is_checked(root):
    with pytest.raises(SchemaError):
        parse_document(_doc(root))


def test_schema_errors_carry_the_document_path():
    with pytest.raises(SchemaError) as excinfo:
        parse_document(_doc({"kind": "group", "children": [{"kind": 3}]}))
    assert excinfo.value.path == "root.children[0]"


_RECT_WIDTH = '{"bluefish": 1, "root": {"kind": "rect", "props": {"width": %s, "height": 1}}}'
_TEXT_CONTENT = '{"bluefish": 1, "root": {"kind": "text", "props": {"content": "%s", "fontSize": 12}}}'


@pytest.mark.parametrize("source, prop_path", [
    (_RECT_WIDTH % "NaN", "root.props.width"),
    (_RECT_WIDTH % "Infinity", "root.props.width"),
    (_RECT_WIDTH % "-Infinity", "root.props.width"),
    (_RECT_WIDTH % "1e400", "root.props.width"),
    (_RECT_WIDTH % ("9" * 400), "root.props.width"),
    (_RECT_WIDTH % ("-" + "9" * 400), "root.props.width"),
    ('{"bluefish": 1, "root": {"kind": "group", "children": ['
     '{"kind": "text", "props": {"content": "a", "fontSize": NaN}}]}}',
     "root.children[0].props.fontSize"),
    # strings SVG cannot carry: lone surrogates, C0 controls other than
    # tab, LF and CR, and U+FFFE/U+FFFF
    (_TEXT_CONTENT % "a\\ud800b", "root.props.content"),
    (_TEXT_CONTENT % "\\udc00", "root.props.content"),
    (_TEXT_CONTENT % "\\u0000", "root.props.content"),
    ('{"bluefish": 1, "root": {"kind": "rect", "props": {"width": 1, "height": 1, "fill": "\\u0001"}}}',
     "root.props.fill"),
    ('{"bluefish": 1, "root": {"kind": "path", "props": {"d": "M 0 0 L 1 1\\u000b"}}}', "root.props.d"),
    # a raw U+FFFF, not an escape: valid UTF-8, yet not an XML character
    ((_TEXT_CONTENT % "a\uffffb").encode("utf-8"), "root.props.content"),
    # a str document was never UTF-8 checked, so it can hold a raw lone surrogate
    (_TEXT_CONTENT % "\ud800", "root.props.content"),
])
def test_unrepresentable_prop_values_are_one_schema_error(source, prop_path):
    with pytest.raises(SchemaError) as excinfo:
        parse_document(source)
    assert excinfo.value.path == prop_path
    scene, diagnostics = compile_source(source)
    assert scene is None
    assert [(d.code, d.node_paths) for d in diagnostics] == [("BF007", (prop_path,))]


def test_the_largest_finite_numbers_are_accepted():
    tree = parse_document(_RECT_WIDTH % "1.7976931348623157e308")
    assert tree.props["width"] == sys.float_info.max


def test_tab_newline_and_escaped_astral_text_compile_to_well_formed_svg():
    scene, diagnostics = compile_source(_TEXT_CONTENT % "a\\tb\\nc\\ud83d\\ude00")
    assert diagnostics == []
    text = minidom.parseString(paint(scene)).getElementsByTagName("text")[0]
    assert text.firstChild.data == "a\tb\nc\U0001F600"


def test_select_accepts_string_or_path():
    tree = parse_document(_doc({
        "kind": "group",
        "children": [
            dict(_RECT, name="a"),
            {"kind": "ref", "select": "a"},
            {"kind": "ref", "select": ["outer", "a"]},
        ],
    }))
    assert tree.children[1].select == ["a"]
    assert tree.children[2].select == ["outer", "a"]


def test_walk_paths_use_kind_index_and_name():
    tree = parse_document(_doc({
        "kind": "group",
        "children": [
            {"kind": "stackV", "name": "s", "children": [dict(_RECT)]},
        ],
    }))
    paths = [path for _, path, _ in walk(tree)]
    assert paths == ["group", "group/stackV[0]:s", "group/stackV[0]:s/rect[0]"]


# --- validation --------------------------------------------------------------------


def _validate(root: dict):
    return validate(parse_document(_doc(root)), standard_registry())


def test_valid_document_has_no_diagnostics():
    assert _validate({"kind": "stackV", "children": [dict(_RECT)]}) == []


def test_unknown_kind_is_reported():
    diags = _validate({"kind": "sparkle"})
    assert len(diags) == 1
    assert "UnknownKind" in diags[0].message


def test_missing_required_prop_is_reported():
    diags = _validate({"kind": "rect", "props": {"width": 10}})
    assert any("'height'" in d.message and "MissingProp" in d.message for d in diags)


def test_unknown_prop_is_reported():
    diags = _validate({"kind": "circle", "props": {"r": 5, "radius": 5}})
    assert any("'radius'" in d.message for d in diags)


def _messages(root: dict) -> list[str]:
    return [d.message for d in _validate(root)]


@pytest.mark.parametrize("kind, prop, value, options", [
    ("stackV", "alignment", "top", "left, centerX, right"),
    ("stackH", "alignment", "left", "top, centerY, bottom"),
    ("align", "alignment", "middle",
     "left, centerX, right, top, centerY, bottom, topLeft, topCenter, topRight, "
     "centerLeft, center, centerRight, bottomLeft, bottomCenter, bottomRight"),
    ("distribute", "direction", "diagonal", "vertical, horizontal"),
], ids=["stackV", "stackH", "align", "distribute"])
def test_enum_props_are_checked(kind, prop, value, options):
    messages = _messages({"kind": kind, "props": {prop: value}})
    assert (f"prop {prop!r} of {kind} must be one of {options}; "
            f"got {value!r} (BadEnumValue)") in messages


# Each standard prop's type and sign, written out here rather than read from
# the registry, so that a kind stating one wrongly, or losing one, fails.
_PROP_TYPES = {
    "width": "number", "height": "number", "r": "number", "rx": "number", "ry": "number",
    "strokeWidth": "number", "fontSize": "number", "spacing": "number",
    "padding": "number", "gap": "number",
    "fill": "string", "stroke": "string", "strokeDasharray": "string",
    "fontFamily": "string", "content": "string", "d": "string",
    "alignment": "string", "direction": "string",
    "background": "element",
}
_NONNEGATIVE = {"width", "height", "r", "rx", "ry", "strokeWidth", "padding", "gap"}
_POSITIVE = {"fontSize"}
_KIND_PROPS = [(kind, prop) for kind, spec in standard_registry().kinds.items()
               for prop in (*spec.required_props, *spec.optional_props)]


@pytest.mark.parametrize("kind, prop", _KIND_PROPS)
def test_every_standard_prop_is_type_checked(kind, prop):
    expected = _PROP_TYPES[prop]
    wrong = "x" if expected == "number" else 1.0
    article = "an" if expected == "element" else "a"
    assert _prop_errors(kind, prop, wrong) == [f"prop {prop!r} of {kind} must be {article} {expected}"]


def _prop_errors(kind: str, prop: str, value: object) -> list[str]:
    return [m for m in _messages({"kind": kind, "props": {prop: value}})
            if m.startswith(f"prop {prop!r} of {kind} must be")]


@pytest.mark.parametrize("kind, prop", [
    (kind, prop) for kind, prop in _KIND_PROPS if _PROP_TYPES[prop] == "number"])
def test_negative_extents_are_rejected(kind, prop):
    # spacing is unsigned; zero is an extent, but not a font size
    sign = "positive" if prop in _POSITIVE else "non-negative"
    negative = [f"prop {prop!r} of {kind} must be {sign}"] if prop in _NONNEGATIVE | _POSITIVE else []
    assert _prop_errors(kind, prop, -1.0) == negative
    assert _prop_errors(kind, prop, 0.0) == (negative if prop in _POSITIVE else [])


def test_arity_messages_pluralize():
    (single,) = _validate({"kind": "stackV"})
    assert "requires at least 1 child, got 0" in single.message
    (pair,) = _validate({"kind": "distribute",
                         "props": {"direction": "vertical", "spacing": 4},
                         "children": [dict(_RECT)]})
    assert "requires at least 2 children, got 1" in pair.message
    diags = _validate({"kind": "arrow", "children": [dict(_RECT)]})
    assert any("requires exactly 2 children, got 1" in d.message for d in diags)


def test_marks_cannot_have_children():
    diags = _validate({"kind": "rect", "props": {"width": 1, "height": 1},
                       "children": [dict(_RECT)]})
    assert any("cannot have children" in d.message for d in diags)


def test_select_is_only_valid_on_refs():
    diags = _validate(dict(_RECT, select="a"))
    assert any("'select' is only valid on ref" in d.message for d in diags)


def test_background_mark_prop_is_checked():
    ok = _validate({"kind": "background",
                    "props": {"background": {"kind": "rect", "props": {"fill": "none"}}},
                    "children": [dict(_RECT)]})
    assert ok == []
    for mark in (
        {"kind": "text", "props": {"content": "x"}},  # a string size prop
        {"kind": "path", "props": {"d": "M 0 0 L 4 4"}},  # its data sets its size
        {"kind": "stackV"},  # not a mark
        {"kind": "hexagon"},  # not a kind
    ):
        diags = _validate({"kind": "group", "children": [
            {"kind": "background", "props": {"background": mark}, "children": [dict(_RECT)]}]})
        assert [(d.code, d.message, d.node_paths) for d in diags] == [(
            "BF007", f"background mark must be one of circle, ellipse, rect; got {mark['kind']!r}",
            ("group/background[0].props.background",))]


def test_invalid_path_data_is_reported():
    diags = _validate({"kind": "path", "props": {"d": "M 0 Q"}})
    assert any("invalid path data" in d.message for d in diags)


# --- name resolution ---------------------------------------------------------------


def _resolve(root: dict):
    tree = parse_document(_doc(root))
    return tree, *resolve_names(tree)


def test_ref_resolves_to_the_named_element():
    tree, table, diags = _resolve({
        "kind": "group",
        "children": [
            dict(_RECT, name="a"),
            {"kind": "stackV", "children": [{"kind": "ref", "select": "a"}]},
        ],
    })
    assert diags == []
    order = [el for el, _, _ in walk(tree)]
    (ref_index,) = [i for i, el in enumerate(order) if el.kind == "ref"]
    assert order[table[ref_index]].name == "a"


def test_selector_paths_disambiguate_through_scopes():
    tree, table, diags = _resolve({
        "kind": "group",
        "children": [
            {"kind": "group", "name": "left",
             "children": [dict(_RECT, name="dot")]},
            {"kind": "group", "name": "right",
             "children": [dict(_RECT, name="dot")]},
            {"kind": "align", "props": {"alignment": "top"},
             "children": [{"kind": "ref", "select": ["left", "dot"]}]},
        ],
    })
    assert errors_of(diags) == []
    order = [(el, path) for el, path, _ in walk(tree)]
    (ref_index,) = [i for i, (el, _) in enumerate(order) if el.kind == "ref"]
    assert "left" in order[table[ref_index]][1]


def test_bare_ambiguous_name_is_reported():
    _, _, diags = _resolve({
        "kind": "group",
        "children": [
            {"kind": "group", "name": "left", "children": [dict(_RECT, name="dot")]},
            {"kind": "group", "name": "right", "children": [dict(_RECT, name="dot")]},
            {"kind": "align", "props": {"alignment": "top"},
             "children": [{"kind": "ref", "select": "dot"}]},
        ],
    })
    assert [d.code for d in errors_of(diags)] == ["BF005"]


def test_duplicate_names_in_one_scope_are_reported():
    _, _, diags = _resolve({
        "kind": "group",
        "children": [dict(_RECT, name="a"), dict(_RECT, name="a")],
    })
    assert [d.code for d in errors_of(diags)] == ["BF011"]
    assert len(diags[0].node_paths) == 2


def test_forward_reference_is_reported():
    _, _, diags = _resolve({
        "kind": "group",
        "children": [
            {"kind": "stackV", "children": [{"kind": "ref", "select": "a"}]},
            dict(_RECT, name="a"),
        ],
    })
    assert [d.code for d in errors_of(diags)] == ["BF003"]
    assert "before" in diags[0].message


def test_unresolved_name_is_reported():
    _, _, diags = _resolve({
        "kind": "group",
        "children": [
            dict(_RECT, name="a"),
            {"kind": "stackV", "children": [{"kind": "ref", "select": "b"}]},
        ],
    })
    assert [d.code for d in errors_of(diags)] == ["BF002"]


def test_resolution_reports_every_problem_at_once():
    _, _, diags = _resolve({
        "kind": "group",
        "children": [
            dict(_RECT, name="a"),
            dict(_RECT, name="a"),
            {"kind": "stackV", "children": [
                {"kind": "ref", "select": "missing"},
                {"kind": "ref", "select": "also-missing"},
            ]},
        ],
    })
    assert sorted(d.code for d in errors_of(diags)) == ["BF002", "BF002", "BF011"]
