"""Every diagnostic code is emitted by some document, or is reserved.

The codes are read from the constants in ``bluefish.errors``, so a new
code fails here until a document below reaches it.
"""

from __future__ import annotations

import json

import pytest

from bluefish import compile_source, errors

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
