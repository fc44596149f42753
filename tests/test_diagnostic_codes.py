"""Every diagnostic code is emitted by some document, or is reserved.

The codes are read from the constants in ``bluefish.errors``, so a new
code fails here until a document below reaches it.
"""

from __future__ import annotations

import json

import pytest

from bluefish import ElementKindSpec, Registry, compile_source, errors, standard_registry

RESERVED = {"BF010", "BF014", "BF015"}  # no longer emitted; codes are never reused

CODES = sorted(value for name, value in vars(errors).items()
               if name.isupper() and isinstance(value, str) and value.startswith("BF"))


def _doc(root: dict) -> bytes:
    return json.dumps({"bluefish": 1, "root": root}).encode("utf-8")


def _rect(name: str | None = None, width: float = 10, height: float = 10) -> dict:
    rect = {"kind": "rect", "props": {"width": width, "height": height}}
    return rect if name is None else dict(rect, name=name)


def _ref(name: str) -> dict:
    return {"kind": "ref", "select": name}


DOCUMENTS = {
    "BF001": _doc({"kind": "group", "children": [
        _rect("a"), _rect("b"),
        {"kind": "stackH", "children": [_ref("a"), _ref("b")]},
        {"kind": "stackV", "children": [_ref("a"), _ref("b")]},
    ]}),
    "BF002": _doc({"kind": "stackV", "children": [_ref("missing")]}),
    "BF003": _doc({"kind": "group", "children": [
        {"kind": "stackV", "children": [_ref("a")]}, _rect("a"),
    ]}),
    "BF004": _doc({"kind": "group"}),
    "BF005": _doc({"kind": "group", "children": [
        {"kind": "group", "name": "l", "children": [_rect("dot")]},
        {"kind": "group", "name": "r", "children": [_rect("dot")]},
        {"kind": "stackV", "children": [_ref("dot")]},
    ]}),
    "BF006": b'{"bluefish": 1, "root": ',
    "BF007": _doc({"kind": "rect", "props": {"width": 10}}),
    "BF008": _doc({"kind": "group", "children": [
        _rect("a"), _rect("b"),
        {"kind": "align", "props": {"alignment": "center"}, "children": [_ref("a"), _ref("b")]},
        {"kind": "line", "children": [_ref("a"), _ref("b")]},
    ]}),
    "BF009": _doc({"kind": "stackV", "name": "s", "children": [_rect(), _ref("s")]}),
    "BF011": _doc({"kind": "group", "children": [_rect("a"), _rect("a")]}),
    "BF012": _doc({"kind": "group", "children": [
        {"kind": "group", "name": "a"}, _rect("b"),
        {"kind": "line", "children": [_ref("a"), _ref("b")]},
    ]}),
    "BF013": _doc({"kind": "stackV", "props": {"spacing": -100}, "children": [_rect(), _rect()]}),
    "BF016": _doc({"kind": "stackV", "children": [_rect(height=1e308), _rect(height=1e308)]}),
}


@pytest.mark.parametrize("code", CODES)
def test_every_code_is_reached_or_reserved(code):
    if code in RESERVED:
        assert code not in DOCUMENTS
        return
    assert code in DOCUMENTS, f"no document reaches {code}"
    _, diags = compile_source(DOCUMENTS[code])
    assert [d.code for d in diags] == [code]


def _bad_expansion() -> Registry:
    registry = standard_registry()
    registry.register(ElementKindSpec(kind="bad", expand=lambda props, children: 3))
    return registry


_SCOPE_A = "group/group[0]:a"


@pytest.mark.parametrize("data, registry, expected", [
    pytest.param(_doc({"kind": "group", "children": [1]}), None, [(
        "BF007", "element must be an object, got int (at root.children[0])", ("root.children[0]",))],
        id="child-not-an-object"),
    pytest.param(_doc({"kind": "group", "props": [1]}), None, [(
        "BF007", "'props' must be an object (at root)", ("root",))],
        id="props-not-an-object"),
    pytest.param(_doc({"kind": "group", "children": [
        {"kind": "group", "name": "a", "children": [_rect("b")]},
        {"kind": "stackV", "children": [{"kind": "ref", "select": ["a", "zz"]}]},
    ]}), None, [(
        "BF002", f"no element named 'zz' inside {_SCOPE_A} (selector 'a/zz')",
        ("group/stackV[1]/ref[0]",))],
        id="path-segment-unresolved"),
    pytest.param(_doc({"kind": "group", "children": [
        {"kind": "group", "name": "a", "children": [_rect("x"), _rect("x")]},
        {"kind": "stackV", "children": [{"kind": "ref", "select": ["a", "x"]}]},
    ]}), None, [
        ("BF011", "name 'x' is already used in this scope (DuplicateNameInScope)",
         (f"{_SCOPE_A}/rect[1]:x", f"{_SCOPE_A}/rect[0]:x")),
        ("BF005", f"name 'x' is ambiguous within scope: {_SCOPE_A}/rect[0]:x, {_SCOPE_A}/rect[1]:x",
         ("group/stackV[1]/ref[0]",)),
    ], id="path-segment-ambiguous"),
    pytest.param(_doc({"kind": "stackV", "children": [{"kind": "group"}]}), None, [(
        "BF012", "stackV/group[0] cannot report 'width' where a relation needs it",
        ("stackV/group[0]",))],
        id="stack-over-an-empty-group"),
    pytest.param(_doc({"kind": "background", "children": [{"kind": "group"}]}), None, [(
        "BF012", "background/group[0] cannot report 'left' where a relation needs it",
        ("background/group[0]",))],
        id="background-over-an-empty-group"),
    pytest.param(_doc({"kind": "bad"}), _bad_expansion(), [(
        "BF007", "expansion of 'bad' must return an element (at bad)", ("bad",))],
        id="expansion-not-an-element"),
])
def test_branch_diagnostics_keep_code_message_and_path(data, registry, expected):
    _, diags = compile_source(data, registry)
    assert [(d.code, d.message, d.node_paths) for d in diags] == expected
