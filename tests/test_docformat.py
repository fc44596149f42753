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
    preorder,
    resolve_names,
    validate,
    walk_step,
)
from bluefish.engine import build_scenegraph, compile_source, standard_registry
from bluefish.errors import DocumentSyntaxError, SchemaError
from bluefish.relations import ElementKindSpec

from conftest import errors_of


def _doc(root: dict) -> bytes:
    return json.dumps({"bluefish": 1, "root": root}).encode("utf-8")


_RECT = {"kind": "rect", "props": {"width": 10, "height": 20}}


# --- parse ---------------------------------------------------------------------


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


@pytest.mark.parametrize("key, message", [
    ("props", "'props' must be an object"),
    ("children", "'children' must be a list"),
])
def test_a_null_props_or_children_is_one_bf007(key, message):
    # an element keeps the decoder's containers, and only an absent key
    # gets a fresh empty one, so a null is still a wrong shape
    _, diags = compile_source(_doc({"kind": "group", "children": [{"kind": "rect", key: None}]}))
    assert [(d.code, d.message, d.node_paths) for d in diags] == [
        ("BF007", f"{message} (at root.children[0])", ("root.children[0]",))]


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


# The expected strings below are literal, written down from the output of
# an implementation that spelled every element's path as it went, so they
# pin both the spelling and which error comes first.


@pytest.mark.parametrize("source, expected", [
    # the prop mark's own error comes before the holder's later bad prop
    ('{"bluefish":1,"root":{"kind":"background","props":{"background":{"kind":5},'
     '"padding":true},"children":[]}}',
     "element requires a non-empty string 'kind' (at root.props.background)"),
    # a prop mark's bad prop comes before the holder's bad children
    ('{"bluefish":1,"root":{"kind":"group","props":{"background":{"kind":"rect",'
     '"props":{"fill":[1]}}},"children":7}}',
     "prop values must be numbers, strings, or elements (at root.props.background.props.fill)"),
])
def test_the_first_parse_error_is_the_one_a_recursive_reading_meets(source, expected):
    scene, diagnostics = compile_source(source)
    assert scene is None
    assert [(d.code, d.message) for d in diagnostics] == [("BF007", expected)]


def _nested_groups(levels: int, innermost: list) -> dict:
    el = {"kind": "group", "children": innermost}
    for _ in range(levels - 1):
        el = {"kind": "group", "children": [el]}
    return el


def test_a_parse_error_200_levels_deep_names_its_full_path():
    # 198 groups, a background at depth 199 and its mark at depth 200
    mark = {"kind": "rect", "props": {"fill": True}}
    root = _nested_groups(198, [{"kind": "background", "props": {"background": mark},
                                 "children": [dict(_RECT)]}])
    scene, diagnostics = compile_source(_doc(root))
    path = "root" + ".children[0]" * 198 + ".props.background.props.fill"
    assert scene is None
    assert [(d.code, d.message, d.node_paths) for d in diagnostics] == [
        ("BF007", f"prop values must be numbers, strings, or elements (at {path})", (path,))]


def test_validation_and_name_errors_200_levels_deep_name_their_full_paths():
    rect = {"kind": "rect", "props": {"width": 4, "height": 4}}
    root = _nested_groups(198, [
        {"kind": "background", "props": {"background": {"kind": "rect", "props": {"fill": 5}}},
         "children": [dict(rect, name="dup")]},
        dict(rect, name="dup"),
        {"kind": "group", "name": "p", "children": [dict(rect, name="x")]},
        {"kind": "group", "name": "q", "children": [dict(rect, name="x")]},
        {"kind": "stackV", "children": [{"kind": "ref", "select": "x"}]},
    ])
    scene, diagnostics = compile_source(_doc(root))
    deep = "group" + "/group[0]" * 197
    assert scene is None
    assert [(d.code, d.message, d.node_paths) for d in diagnostics] == [
        ("BF007", "prop 'fill' of rect must be a string",
         (f"{deep}/background[0].props.background",)),
        ("BF011", "name 'dup' is already used in this scope (DuplicateNameInScope)",
         (f"{deep}/rect[1]:dup", f"{deep}/background[0]/rect[0]:dup")),
        ("BF005",
         f"name 'x' is ambiguous: matches {deep}/group[2]:p/rect[0]:x, {deep}/group[3]:q/rect[0]:x",
         (f"{deep}/stackV[4]/ref[0]",)),
    ]


def test_an_integer_too_long_for_int_is_one_bf007():
    # json.loads refuses an integer literal longer than the interpreter's
    # int conversion limit with a plain ValueError, not a JSONDecodeError
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever the environment set
    try:
        for digits in (4301, 5000):
            scene, diagnostics = compile_source(_RECT_WIDTH % ("9" * digits))
            assert scene is None
            assert [(d.code, d.message, d.node_paths) for d in diagnostics] == [
                ("BF007", "an integer has more than 4300 digits (at document)", ("document",))]
        # at the limit it is read, and is too large for a float
        _, diagnostics = compile_source(_RECT_WIDTH % ("9" * 4300))
        assert [(d.code, d.message, d.node_paths) for d in diagnostics] == [
            ("BF007", "prop values must be finite numbers (at root.props.width)", ("root.props.width",))]
    finally:
        sys.set_int_max_str_digits(limit)


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


def walk(tree: Element):
    """Yield (element, path, parent_index) in pre-order, each path extending its parent's."""
    paths: list[str] = []
    for el, parent, i in zip(*preorder(tree)):
        segment = walk_step(el, parent, i)
        path = segment if parent is None else f"{paths[parent]}/{segment}"
        paths.append(path)
        yield el, path, parent


def test_walk_paths_use_kind_index_and_name():
    tree = parse_document(_doc({
        "kind": "group",
        "children": [
            {"kind": "stackV", "name": "s", "children": [dict(_RECT)]},
            {"kind": "background", "children": [{"kind": "ref", "select": "s"}]},
        ],
    }))
    paths = [path for _, path, _ in walk(tree)]
    assert paths == ["group", "group/stackV[0]:s", "group/stackV[0]:s/rect[0]",
                     "group/background[1]", "group/background[1]/ref[0]"]
    # the scene spells the same paths from each node's own step; a prop's
    # mark is one step below its holder
    refs, _ = resolve_names(tree)
    graph = build_scenegraph(tree, refs, standard_registry())
    assert [graph.path(nid) for nid in graph.nodes] == [
        *paths[:4], "group/background[1]/rect(background mark)", paths[4]]


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
_NONNEGATIVE = {"width", "height", "r", "rx", "ry", "strokeWidth", "spacing", "padding", "gap"}
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
    # a negative spacing would pack children into less than they cover;
    # zero is an extent or a gap, but not a font size
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


def test_a_named_ref_is_one_error():
    scene, diagnostics = compile_source(_doc({"kind": "group", "children": [
        dict(_RECT, name="a"),
        {"kind": "stackV", "children": [{"kind": "ref", "name": "r", "select": "a"}]}]}))
    assert scene is None
    assert [(d.code, d.message, d.node_paths) for d in diagnostics] == [
        ("BF007", "ref elements cannot be named", ("group/stackV[1]/ref[0]:r",))]


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


@pytest.mark.parametrize("d, stray", [
    ("M 0 0 # L 5 5", "#"),
    ("M 0 0 L 5 5 foo", "f"),
    ("M 1e", "e"),  # an exponent without digits
    ("M--5 3", "-"),  # a doubled sign
    ("M 0\u00a00 L 5 5", "\u00a0"),  # a no-break space is no separator
    ("M \u0663 3", "\u0663"),  # nor is a digit outside ASCII a number
    ("# M 0 0", "#"),
    ("M0,0L5,5", None),
    ("M 0\t0\tL 5 5", None),
    ("M 0 0\nL 5 5\r\n", None),
    ("M 0 0 L 5 5 ", None),
])
def test_path_data_holds_only_commands_numbers_and_separators(d, stray):
    # any other character would be written into the SVG as given, where a
    # user agent stops drawing at it although layout sized the box from
    # every number; so it is one BF007, in d and in any path prop
    registry = standard_registry()
    registry.register(ElementKindSpec(
        kind="tick", is_mark=True, required_props=("d",), prop_types={"d": "path"}))
    for kind in ("path", "tick"):
        diags = validate(parse_document(_doc({"kind": kind, "props": {"d": d}})), registry)
        assert [(diag.code, diag.message, diag.node_paths) for diag in diags] == (
            [] if stray is None else [("BF007", f"invalid path data: unexpected {stray!r}", (kind,))])


def test_path_data_that_draws_no_point_is_one_bf007():
    # it has no box for layout to decide, so validation reports it
    diags = _validate({"kind": "path", "props": {"d": "Z"}})
    assert [(d.code, d.message, d.node_paths) for d in diags] == [
        ("BF007", "invalid path data: no point to draw", ("path",))]


def test_validating_a_tree_twice_gives_the_same_diagnostics():
    # validation only reads the tree: path data stays the document's
    # string, read into a box by the build, so a second run reports
    # every problem again, and only those
    tree = parse_document(_doc({"kind": "group", "children": [
        {"kind": "path", "props": {"d": "M 0 0 L 4 4"}},
        {"kind": "path", "props": {"d": "M 0 Q"}},
        {"kind": "path", "props": {"d": 5}},
        {"kind": "text", "props": {"content": "x", "fontSize": -1}},
    ]}))
    first = validate(tree, standard_registry())
    assert [d.node_paths for d in first] == [("group/path[1]",), ("group/path[2]",), ("group/text[3]",)]
    assert validate(tree, standard_registry()) == first
    d = tree.children[0].props["d"]
    assert d == "M 0 0 L 4 4" and d.__class__ is str


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


def _ambiguous_probe(n: int) -> bytes:
    """n named groups each holding a rect ``a``, then n arrows over two ``ref a`` each."""
    groups = [{"kind": "group", "name": f"g{i}", "children": [dict(_RECT, name="a")]} for i in range(n)]
    arrows = [{"kind": "arrow", "children": [{"kind": "ref", "select": "a"}] * 2}] * n
    return _doc({"kind": "group", "children": groups + arrows})


def test_an_ambiguous_name_names_three_matches_and_counts_the_rest():
    _, diags = compile_source(_ambiguous_probe(4))
    assert [(d.code, d.message, d.node_paths) for d in diags[:1]] == [(
        "BF005", "name 'a' is ambiguous: matches group/group[0]:g0/rect[0]:a, "
                 "group/group[1]:g1/rect[0]:a, group/group[2]:g2/rect[0]:a and 1 more",
        ("group/arrow[4]/ref[0]",))]
    _, diags = compile_source(_ambiguous_probe(3))
    assert diags[0].message == ("name 'a' is ambiguous: matches group/group[0]:g0/rect[0]:a, "
                                "group/group[1]:g1/rect[0]:a, group/group[2]:g2/rect[0]:a")


def test_ambiguous_name_diagnostics_grow_linearly_with_the_document():
    # each BF005 once named every match, so 2,000 groups and 2,000 arrows
    # gave 4,000 diagnostics of 271 MB; now each is a bounded line
    sizes = {}
    for n in (1000, 2000):
        _, diags = compile_source(_ambiguous_probe(n))
        assert len(diags) == 2 * n and {d.code for d in diags} == {"BF005"}
        sizes[n] = sum(len(d.render().encode("utf-8")) for d in diags)
    assert sizes == {1000: 346_000, 2000: 696_000}
    assert max(len(d.render()) for d in diags) < 200


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
