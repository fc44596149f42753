"""Compiling is total: a mutated document yields a scene or known diagnostics.

Each example takes a fixture (they cover every kind but ellipse, plus
refs, connectors and backgrounds) or a random ref-free document, applies
one to three mutations, and may truncate the encoded bytes. Whatever
comes out, ``compile_source`` must not raise, every diagnostic must carry
a code ``bluefish.errors`` defines, a scene must paint and dump, and
``bluefish check`` must exit 0 or 1, and no standard kind's callback
may raise (BF017). Compiling is total over registered kinds too: an
``expand`` that raises anything but a ``SchemaError``, or a ``layout``
that raises anything but the four errors layout reports, is one BF017,
as is a layout that creates a node or raises a layout error naming ids
the graph does not hold; an expansion whose props are not a dict or
whose children are not a list is one BF007; the hostile registry has a layout and an
expand raising each ``BluefishError`` subclass; a layout that stores a
box around ``decide`` leaves it undecided (BF004);
and a paint function that raises makes ``paint`` raise one
``CallbackError``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bluefish import Element, ElementKindSpec, compile_source, dump_scene, errors, paint, standard_registry
from bluefish.cli import main
from bluefish.errors import CallbackError, DimensionConflict, SchemaError
from bluefish.relations import layout_rect

from conftest import FIXTURES, compile_doc
from generators import random_ref_free_doc, random_stack_triplet
from test_diagnostic_codes import CODES

_FIXTURE_DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
_SPECS = standard_registry().kinds
_KINDS = (*_SPECS, "sparkle")
_ALL_PROPS = sorted({prop for spec in _SPECS.values()
                     for prop in (*spec.required_props, *spec.optional_props)})
#: Stands in the encoded document for an integer literal thousands of
#: digits long, which ``json.dumps`` cannot write.
_DIGIT_RUN = "<digit run>"
_VALUES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 2**70, -1.0, 0.0, "x", [1.0], None, True, _DIGIT_RUN)
_NAMES = ("a", "b", "p", "x")


def _elements(doc: dict) -> list[dict]:
    """Every element dict under the root, background marks included."""
    found: list[dict] = []
    stack = [doc["root"]]
    while stack:
        el = stack.pop()
        found.append(el)
        stack.extend(v for v in el.get("props", {}).values() if isinstance(v, dict))
        stack.extend(el.get("children", []))
    return found


def _mutate(doc: dict, data) -> None:
    el = data.draw(st.sampled_from(_elements(doc)))
    op = data.draw(st.sampled_from(("set", "drop prop", "drop child", "kind", "name")))
    props = el.get("props")
    children = el.get("children")
    if op == "set":
        # a prop the kind takes, so the value is what gets checked
        spec = _SPECS.get(el["kind"])
        own = (*spec.required_props, *spec.optional_props) if spec is not None else ()
        prop = data.draw(st.sampled_from(own or _ALL_PROPS))
        el.setdefault("props", {})[prop] = data.draw(st.sampled_from(_VALUES))
    elif op == "drop prop" and props:
        del props[data.draw(st.sampled_from(sorted(props)))]
    elif op == "drop child" and children:
        del children[data.draw(st.integers(0, len(children) - 1))]
    elif op == "kind":
        el["kind"] = data.draw(st.sampled_from(_KINDS))
    elif op == "name":
        el["name"] = data.draw(st.sampled_from(_NAMES))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_compiling_mutated_documents_never_raises(data):
    if data.draw(st.booleans()):
        doc = json.loads(json.dumps(data.draw(st.sampled_from(_FIXTURE_DOCS))))
    else:
        doc = random_ref_free_doc(random.Random(data.draw(st.integers(0, 2**32))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    raw = json.dumps(doc).encode("utf-8")
    digit_run = json.dumps(_DIGIT_RUN).encode("utf-8")
    if digit_run in raw:
        raw = raw.replace(digit_run, b"9" * data.draw(st.sampled_from((4300, 4301, 5000))))
    if data.draw(st.integers(0, 3)) == 3:
        raw = raw[:data.draw(st.integers(0, len(raw)))]

    scene, diags = compile_source(raw)
    codes = {d.code for d in diags}
    assert codes <= set(CODES)
    assert "BF017" not in codes  # no standard kind's callback raises
    if scene is not None:
        paint(scene)
        dump_scene(scene)
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "doc.json"
        source.write_bytes(raw)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["check", str(source)]) in (0, 1)


def _paint_diamond(node, fmt, esc, markers):
    # the README's diamond
    x, y, w, h = node.content_box()
    corners = [(x + w / 2, y), (x + w, y + h / 2), (x + w / 2, y + h), (x, y + h / 2)]
    return '<polygon points="%s"/>' % " ".join(f"{fmt(a)},{fmt(b)}" for a, b in corners)


def _layout_unprepared(rt, node, props):
    layout_rect(rt, node, props)
    return props["weight"]  # declared nowhere: KeyError


def _paint_unprepared(node, fmt, esc, markers):
    return f"<desc>{fmt(node.width / (node.height - node.height))}</desc>"  # ZeroDivisionError


def _expand_unprepared(props, children):
    return children[0]  # IndexError when there are none


def _layout_second_root(rt, node, props):
    layout_rect(rt, node, props)
    rt.graph.create_node("rect", None)  # DisconnectedNodes: the graph has its root


def _layout_schema_error(rt, node, props):
    raise SchemaError("nowhere", "a layout judges no schema")


def _expand_dimension_conflict(props, children):
    raise DimensionConflict("n0", "left", "n0", "n1")


def _layout_spawn(rt, node, props):
    # a decided child of a kind no registry holds, which paint and dump could not spell
    layout_rect(rt, node, props)
    child = rt.graph.create_node("nosuch", node)
    for field in ("left", "top", "width", "height"):
        rt.graph.decide(child, field, 1.0, node)


def _layout_phantom(rt, node, props):
    layout_rect(rt, node, props)
    raise DimensionConflict("n99", "left", "n98", "n97")  # ids the graph does not hold


def _layout_around_decide(rt, node, props):
    # stores a whole box, but owns none of it
    node.left, node.top = 0.0, 0.0
    node.width, node.height = props.get("width", 1.0), props.get("height", 1.0)


# one of each error the package defines, naming only ids a graph always holds
_EVERY_ERROR = (
    errors.BluefishError("a plain package error"),
    errors.DimensionConflict("n0", "left", "n0", "n0"),
    errors.InvalidExtent("width", -1.0, "n0"),
    errors.GeometryOverflow("n0", "left", math.inf),
    errors.DisconnectedNodes("n0"),
    errors.CreatedNodes(("n9",)),
    errors.UndefinedExtentError("n0", "width"),
    errors.UnsizedNodes(("n0",)),
    errors.DocumentSyntaxError(1, 1, "a callback reads no JSON"),
    errors.SchemaError("nowhere", "a callback judges no schema"),
    errors.DuplicateKind("rect"),
    errors.InvalidKindSpec("rect", "a callback registers no kind"),
    errors.CallbackError("rect", "paint", "nowhere", ValueError("an inner fault")),
)
# the errors a layout may raise for the layout pass to report, each with its code
_LAYOUT_CODES = {errors.DimensionConflict: "BF001", errors.UndefinedExtentError: "BF012",
                 errors.InvalidExtent: "BF013", errors.GeometryOverflow: "BF016"}


def _raising(error: Exception):
    """A layout or expand that raises ``error``, afresh each call."""
    def callback(*args):
        raise error.with_traceback(None)
    return callback


def _custom_registry():
    """The README's diamond, composites, and kinds whose callbacks misbehave on purpose.

    Each takes a rect's props, so a rect can become any of them.
    """
    registry = standard_registry()
    rect = registry.kinds["rect"]
    registry.register(dataclasses.replace(rect, kind="diamond", paint=_paint_diamond))
    registry.register(dataclasses.replace(rect, kind="heavy", layout=_layout_unprepared))
    registry.register(dataclasses.replace(rect, kind="smudge", paint=_paint_unprepared))
    registry.register(dataclasses.replace(rect, kind="rooted", layout=_layout_second_root))
    registry.register(dataclasses.replace(rect, kind="strict", layout=_layout_schema_error))
    registry.register(dataclasses.replace(rect, kind="forged", layout=_layout_around_decide))
    registry.register(dataclasses.replace(rect, kind="spawner", layout=_layout_spawn))
    registry.register(dataclasses.replace(rect, kind="phantom", layout=_layout_phantom))
    registry.register(ElementKindSpec(kind="pair", expand=lambda props, children: Element(
        "stackH", children=[Element("rect", props=props), *children])))
    registry.register(ElementKindSpec(kind="first", expand=_expand_unprepared))
    registry.register(ElementKindSpec(kind="clash", expand=_expand_dimension_conflict))
    # an expansion whose containers are not a dict and a list: BF007, as in a document
    registry.register(ElementKindSpec(kind="hollow", expand=lambda props, children: Element(
        "group", props=None, children=(Element("rect", props=props),))))
    for error in _EVERY_ERROR:
        name = type(error).__name__
        registry.register(dataclasses.replace(rect, kind=f"layout_{name}", layout=_raising(error)))
        registry.register(ElementKindSpec(kind=f"expand_{name}", expand=_raising(error)))
    return registry


_CUSTOM = _custom_registry()
_CUSTOM_KINDS = ("diamond", "pair", "heavy", "smudge", "first", "rooted", "strict", "forged", "clash",
                 "spawner", "phantom", "hollow",
                 *(f"{callback}_{type(error).__name__}" for error in _EVERY_ERROR
                   for callback in ("layout", "expand")))
# how each BF017 of the custom kinds begins
_CALLBACK_ERRORS = (
    "layout of kind 'heavy' raised KeyError: 'weight' (at ",
    "expand of kind 'first' raised IndexError: ",
    "layout of kind 'rooted' raised DisconnectedNodes: ",
    "layout of kind 'strict' raised SchemaError: ",
    "expand of kind 'clash' raised DimensionConflict: ",
    "layout of kind 'spawner' raised CreatedNodes: ",
    "layout of kind 'phantom' raised DimensionConflict: ",
    *(f"{callback} of kind '{callback}_{type(error).__name__}' raised {type(error).__name__}: "
      for error in _EVERY_ERROR for callback in ("layout", "expand")),
)
_RECT_DOCS = [doc for doc in _FIXTURE_DOCS if any(el["kind"] == "rect" for el in _elements(doc))]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_registered_callbacks_that_raise_give_only_the_declared_errors(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(_RECT_DOCS))))
    rects = [el for el in _elements(doc) if el["kind"] == "rect"]
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(st.sampled_from(rects))["kind"] = data.draw(st.sampled_from(_CUSTOM_KINDS))
    if data.draw(st.booleans()):
        _mutate(doc, data)

    scene, diags = compile_source(json.dumps(doc).encode("utf-8"), _CUSTOM)
    assert {d.code for d in diags} <= set(CODES)
    for d in diags:
        if d.code == "BF017":
            assert d.message.startswith(_CALLBACK_ERRORS), d.message
    if scene is not None:
        dump_scene(scene)
        try:
            paint(scene)
        except CallbackError as error:
            assert (error.kind, error.callback, error.error_type) == ("smudge", "paint", "ZeroDivisionError")


def _beside_a_rect(kind: str) -> dict:
    return {"bluefish": 1, "root": {"kind": "stackV", "children": [
        {"kind": "rect", "props": {"width": 3, "height": 3}},
        {"kind": kind, "props": {"width": 2, "height": 1}}]}}


@pytest.mark.parametrize("kind, message", [
    ("rooted", "layout of kind 'rooted' raised DisconnectedNodes: the graph already has root 'n0'; "
               "every other node needs a parent (at stackV/rooted[1])"),
    ("strict", "layout of kind 'strict' raised SchemaError: a layout judges no schema (at nowhere) "
               "(at stackV/strict[1])"),
    ("clash", "expand of kind 'clash' raised DimensionConflict: "
              + str(DimensionConflict("n0", "left", "n0", "n1")) + " (at root.children[1])"),
], ids=("rooted", "strict", "clash"))
def test_a_callback_raising_another_stages_error_is_one_bf017(kind, message):
    scene, diags = compile_doc(_beside_a_rect(kind), _CUSTOM)
    assert scene is None
    assert [(d.code, d.message) for d in diags] == [("BF017", message)]


@pytest.mark.parametrize("kind, detail", [
    ("spawner", "CreatedNodes: created node(s) {created}; layout decides boxes and creates no node"),
    ("phantom", "DimensionConflict: " + str(DimensionConflict("n99", "left", "n98", "n97"))),
], ids=("creates a node", "names no node"))
def test_a_layout_that_creates_a_node_or_names_ids_outside_the_graph_is_one_bf017(kind, detail):
    # the graph is built before layout, so what a layout creates or names
    # outside it has no path a diagnostic could print, and nothing to paint
    for doc, path, created in ((_beside_a_rect(kind), f"stackV/{kind}[1]", "n3"),
                               ({"bluefish": 1, "root": {"kind": kind, "props": {
                                   "width": 2, "height": 1}}}, kind, "n1")):
        scene, diags = compile_doc(doc, _CUSTOM)
        assert scene is None
        assert [(d.code, d.message, d.node_paths) for d in diags] == [(
            "BF017", f"layout of kind {kind!r} raised {detail.format(created=created)} (at {path})",
            (path,))]


def test_the_hostile_registry_raises_every_error_the_package_defines():
    defined = [name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.BluefishError)]
    assert sorted(type(error).__name__ for error in _EVERY_ERROR) == sorted(defined)


@pytest.mark.parametrize("error", _EVERY_ERROR, ids=lambda error: type(error).__name__)
def test_a_callback_raising_any_package_error_is_one_diagnostic(error):
    # a layout passes only the four layout errors, and an expand only a
    # SchemaError, to their own codes; every other error is one BF017
    name = type(error).__name__
    for callback, place, code in (
            ("layout", f"stackV/layout_{name}[1]", _LAYOUT_CODES.get(type(error), "BF017")),
            ("expand", "root.children[1]", "BF007" if type(error) is SchemaError else "BF017")):
        kind = f"{callback}_{name}"
        for _ in range(2):  # the same error instance, raised again
            scene, diags = compile_doc(_beside_a_rect(kind), _CUSTOM)
            assert scene is None
            assert [d.code for d in diags] == [code]
            if code == "BF017":
                assert (diags[0].message, diags[0].node_paths) == (
                    f"{callback} of kind {kind!r} raised {name}: {error} (at {place})", (place,))


def test_a_box_a_layout_stores_around_decide_is_undecided():
    # the owner map is the one record of a decision, so finalize finds no extent
    scene, diags = compile_doc(_beside_a_rect("forged"), _CUSTOM)
    assert scene is None
    assert [(d.code, d.node_paths) for d in diags] == [("BF004", ("stackV/forged[1]",))]
    scene, diags = compile_doc({"bluefish": 1, "root": {"kind": "forged", "props": {
        "width": 2, "height": 1}}}, _CUSTOM)
    assert scene is None
    assert [(d.code, d.node_paths) for d in diags] == [("BF004", ("forged",))]


def _paint_ratio(node, fmt, esc, markers):
    return f'<desc>{fmt(node.width / 0.0)}</desc>'


def _paint_schema_error(node, fmt, esc, markers):
    raise SchemaError("nowhere", "paint judges no schema")


def test_a_paint_function_that_raises_is_one_callback_error():
    # a BluefishError is wrapped too: paint reports no error of its own
    for paint_ratio, raised, detail in ((_paint_ratio, ZeroDivisionError, "float division by zero"),
                                        (_paint_schema_error, SchemaError, "paint judges no schema (at nowhere)")):
        registry = standard_registry()
        registry.register(ElementKindSpec(
            kind="ratio", required_props=("width", "height"), is_mark=True,
            layout=layout_rect, paint=paint_ratio))
        scene, diags = compile_doc({"bluefish": 1, "root": {"kind": "stackV", "children": [
            {"kind": "rect", "props": {"width": 3, "height": 3}},
            {"kind": "ratio", "name": "r", "props": {"width": 2, "height": 1}}]}}, registry)
        assert diags == []
        with pytest.raises(CallbackError) as caught:
            paint(scene)
        error = caught.value
        assert (error.kind, error.callback, error.path, error.error_type, error.detail) == (
            "ratio", "paint", "stackV/ratio[1]:r", raised.__name__, detail)
        assert str(error) == f"paint of kind 'ratio' raised {raised.__name__}: {detail} (at stackV/ratio[1]:r)"
        assert isinstance(error.__cause__, raised)


def test_the_standard_kinds_paint_generated_documents():
    # a CallbackError here is a standard paint function that raised
    rng = random.Random(27)
    painted = 0
    for _ in range(100):
        for doc in (random_ref_free_doc(rng), random_stack_triplet(rng)[2]):
            scene, _ = compile_doc(doc)
            if scene is not None:
                paint(scene)
                painted += 1
    assert painted == 200
