"""Every diagnostic code is emitted by some document, or is reserved.

The codes are read from the constants in ``bluefish.errors``, so a new
code fails here until a document below reaches it.
"""

from __future__ import annotations

import json

import pytest

from bluefish import Element, ElementKindSpec, Registry, compile_source, errors, standard_registry

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


def _layout_bar(rt, node, props):
    # a bar's length is not declared non-negative, so its width can be negative
    for field, value in (("left", 0.0), ("top", 0.0), ("width", props["length"]), ("height", 1.0)):
        rt.graph.decide(node, field, value, node)


def _layout_half(rt, node, props):
    # extents with no start: half a box
    rt.graph.decide(node, "width", 1.0, node)


def _layout_tile(rt, node, props):
    # as a prop's mark, a tile is given without its required props
    _layout_bar(rt, node, {"length": props["width"]})


def _with_kinds() -> Registry:
    """The standard kinds, and custom ones whose layout decides a negative extent, half a box,
    nothing, or reads a prop it may not have."""
    registry = standard_registry()
    registry.register(ElementKindSpec(kind="bar", required_props=("length",), is_mark=True,
                                      layout=_layout_bar))
    registry.register(ElementKindSpec(kind="half", is_mark=True, layout=_layout_half))
    registry.register(ElementKindSpec(kind="blank"))
    registry.register(ElementKindSpec(kind="tile", required_props=("width", "height"), is_mark=True,
                                      layout=_layout_tile))
    return registry


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
    "BF013": _doc({"kind": "stackV", "children": [_rect(), {"kind": "bar", "props": {"length": -80}}]}),
    "BF016": _doc({"kind": "stackV", "children": [_rect(height=1e308), _rect(height=1e308)]}),
    "BF017": _doc({"kind": "background", "props": {"background": {"kind": "tile"}}, "children": [_rect()]}),
}


@pytest.mark.parametrize("code", CODES)
def test_every_code_is_reached_or_reserved(code):
    assert code not in RESERVED, f"a constant in bluefish.errors spells the reserved code {code}"
    assert code in DOCUMENTS, f"no document reaches {code}"
    _, diags = compile_source(DOCUMENTS[code], _with_kinds())
    assert [d.code for d in diags] == [code]


def _broken_composites() -> Registry:
    registry = standard_registry()
    registry.register(ElementKindSpec(kind="bad", expand=lambda props, children: 3))
    registry.register(ElementKindSpec(kind="loop", expand=lambda props, children: Element("loop")))
    registry.register(ElementKindSpec(kind="share", expand=lambda props, children: Element(
        "rect", props={"width": 1 / len(children), "height": 1.0})))
    return registry


_SCOPE_A = "group/group[0]:a"
_SELF = "group/stackV[0]:s"


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
    pytest.param(_doc({"kind": "group", "children": [
        _rect("a"), {"kind": "stackV", "children": [_ref("b")]},
    ]}), None, [("BF002", "no element named 'b' (selector 'b')", ("group/stackV[1]/ref[0]",))],
        id="name-unresolved"),
    pytest.param(_doc({"kind": "group", "children": [
        {"kind": "stackV", "children": [_ref("a")]}, _rect("a"),
    ]}), None, [(
        "BF003", "selector 'a' points forward to group/rect[1]:a; referents must appear before the ref",
        ("group/stackV[0]/ref[0]", "group/rect[1]:a"))],
        id="forward-reference"),
    pytest.param(_doc({"kind": "rect", "props": {"width": 1, "depth": 2}}), None, [
        ("BF007", "rect requires prop 'height' (MissingProp)", ("rect",)),
        ("BF007", "rect does not accept prop 'depth'", ("rect",)),
    ], id="missing-prop-before-unknown-prop"),
    *(pytest.param(_doc({"kind": "background", "props": {"background": mark},
                         "children": [_rect()]}), None, [(
        "BF007", "background mark must be a bare mark element", ("background.props.background",))],
        id=f"background-mark-with-{what}")
      for what, mark in (("name", {"kind": "rect", "name": "m"}),
                         ("children", {"kind": "rect", "children": [_rect()]}),
                         ("select", {"kind": "rect", "select": "m"}))),
    pytest.param(_doc({"kind": "stackV", "children": [{"kind": "group"}]}), None, [(
        "BF012", "stackV/group[0] cannot report 'width' where a relation needs it",
        ("stackV/group[0]",))],
        id="stack-over-an-empty-group"),
    pytest.param(_doc({"kind": "background", "children": [{"kind": "group"}]}), None, [(
        "BF012", "background/group[0] cannot report 'left' where a relation needs it",
        ("background/group[0]",))],
        id="background-over-an-empty-group"),
    pytest.param(_doc({"kind": "bad"}), _broken_composites(), [(
        "BF007", "expansion of 'bad' must return an element (at root)", ("root",))],
        id="expansion-not-an-element"),
    pytest.param(_doc({"kind": "group", "children": [_rect(), {"kind": "bad"}]}),
                 _broken_composites(), [(
        "BF007", "expansion of 'bad' must return an element (at root.children[1])",
        ("root.children[1]",))],
        id="nested-expansion-not-an-element"),
    pytest.param(_doc({"kind": "stackV", "children": [
        {"kind": "group", "children": [{"kind": "loop"}]},
    ]}), _broken_composites(), [(
        "BF007",
        "composite kind 'loop' expands without terminating (at root.children[0].children[0])",
        ("root.children[0].children[0]",))],
        id="nested-expansion-without-end"),
    pytest.param(_doc({"kind": "background", "props": {"background": {"kind": "bad"}},
                       "children": [_rect()]}), _broken_composites(), [(
        "BF007", "expansion of 'bad' must return an element (at root.props.background)",
        ("root.props.background",))],
        id="element-prop-expansion-not-an-element"),
    pytest.param(_doc({"kind": "group", "children": [_rect(), {"kind": "share"}]}),
                 _broken_composites(), [(
        "BF017", "expand of kind 'share' raised ZeroDivisionError: division by zero (at root.children[1])",
        ("root.children[1]",))],
        id="expansion-that-raises"),
    pytest.param(_doc({"kind": "stackV", "children": [
        _rect(), {"kind": "background", "props": {"background": {"kind": "tile"}}, "children": [_rect()]},
    ]}), _with_kinds(), [(
        "BF017", "layout of kind 'tile' raised KeyError: 'width' "
                 "(at stackV/background[1]/tile(background mark))",
        ("stackV/background[1]/tile(background mark)",))],
        id="layout-that-raises"),
    pytest.param(_doc({"kind": "group", "children": [
        {"kind": "stackV", "name": "s", "children": [_rect(), _ref("s"), _ref("s")]},
    ]}), None, [(
        "BF009", f"ref under '{_SELF}' points at '{_SELF}', which would make the relation contain itself",
        (f"{_SELF}/ref[{i}]", _SELF)) for i in (1, 2)],
        id="every-self-reference"),
    pytest.param(_doc({"kind": "group", "children": [
        {"kind": "stackV", "name": "s", "children": [_rect(), _ref("s"), _ref("t")]},
    ]}), None, [
        ("BF009", f"ref under '{_SELF}' points at '{_SELF}', which would make the relation contain itself",
         (f"{_SELF}/ref[1]", _SELF)),
        ("BF002", "no element named 't' (selector 't')", (f"{_SELF}/ref[2]",)),
    ], id="self-reference-beside-an-unresolved-name"),
    pytest.param(_doc({"kind": "stackV", "children": [
        {"kind": "group", "children": [
            {"kind": "align", "name": "a", "props": {"alignment": "top"},
             "children": [_rect(), _rect(width=30, height=5)]},
        ]},
        {"kind": "stackV", "children": [_ref("a"), _rect(width=4, height=4)]},
    ]}), None, [(
        # the inner stack's read through the ref pins its own translation,
        # which the outer stack then places
        "BF001", "conflicting writes to 'top' of stackV/stackV[1]: "
                 "owned by stackV/stackV[1], also written by stackV",
        ("stackV/stackV[1]", "stackV"))],
        id="stack-guideline-over-a-one-axis-align"),
    pytest.param(_doc({"kind": "align", "props": {"alignment": "left"}, "children": [
        {"kind": "group"}, _rect(width=5, height=5),
    ]}), None, [(
        "BF012", "align/group[0] cannot report 'height' where a relation needs it",
        ("align/group[0]",))],
        id="align-over-an-empty-group"),
    pytest.param(_doc({"kind": "group", "children": [
        {"kind": "group"}, _rect(width=5, height=5),
    ]}), None, [(
        "BF012", "group/group[0] cannot report 'width' where a relation needs it",
        ("group/group[0]",))],
        id="group-over-an-empty-group"),
    pytest.param(_doc({"kind": "stackV", "children": [_rect(), {"kind": "half"}]}), _with_kinds(), [(
        "BF012", "stackV/half[1] cannot report 'left' where a relation needs it", ("stackV/half[1]",))],
        id="custom-kind-deciding-an-extent-before-its-start"),
    # the arrow reads r through a ref, which pins k's translation; so the
    # align reads k's guideline through the frame, where a kind with no
    # layout has no box
    pytest.param(_doc({"kind": "group", "children": [
        {"kind": "blank", "name": "k", "children": [_rect("r")]},
        {"kind": "arrow", "children": [_ref("r"), _ref("r")]},
        {"kind": "align", "props": {"alignment": "top"}, "children": [_ref("k"), _rect()]},
    ]}), _with_kinds(), [
        ("BF008", "connector endpoints leave no visible segment", ("group/arrow[1]",)),
        ("BF012", "group/blank[0]:k cannot report 'top' where a relation needs it", ("group/blank[0]:k",))],
        id="align-over-a-ref-to-a-kind-with-no-layout"),
    pytest.param(_doc({"kind": "group", "children": [
        {"kind": "group", "name": "g", "children": [_rect("r")]},
        {"kind": "stackV", "props": {"spacing": 5}, "children": [_ref("r"), _ref("g")]},
    ]}), None, [(
        "BF001", "conflicting writes to 'top' of group/group[0]:g: "
                 "owned by group/stackV[1], also written by group/stackV[1]",
        ("group/stackV[1]", "group/stackV[1]"))],
        id="stack-over-a-mark-and-its-group"),
])
def test_branch_diagnostics_keep_code_message_and_path(data, registry, expected):
    _, diags = compile_source(data, registry)
    assert [(d.code, d.message, d.node_paths) for d in diags] == expected


# One nested document: each element's walk path, in pre-order, and each
# relation that can hold a ref, with its ancestors, its child count and
# its last descendant (after which a ref appended to it comes).
_TREE_PATHS = {
    "r": "group:r",
    "g1": "group:r/group[0]:g1",
    "s": "group:r/group[0]:g1/stackV[0]:s",
    "in": "group:r/group[0]:g1/stackV[0]:s/group[0]:in",
    "a": "group:r/group[0]:g1/stackV[0]:s/group[0]:in/rect[0]:a",
    "g2": "group:r/group[1]:g2",
    "b": "group:r/group[1]:g2/rect[0]:b",
    "c": "group:r/rect[2]:c",
}
_HOLDERS = {"r": ((), 3, "c"), "g1": (("r",), 1, "a"), "s": (("g1", "r"), 1, "a"),
            "in": (("s", "g1", "r"), 1, "a"), "g2": (("r",), 1, "b")}


def _tree(holder: str, referent: str) -> bytes:
    """The nested document with one ref to ``referent`` appended to ``holder``'s children."""
    def ref_in(name: str) -> list:
        return [_ref(referent)] if name == holder else []

    return _doc({"kind": "group", "name": "r", "children": [
        {"kind": "group", "name": "g1", "children": [
            {"kind": "stackV", "name": "s", "children": [
                {"kind": "group", "name": "in", "children": [_rect("a"), *ref_in("in")]},
                *ref_in("s")]},
            *ref_in("g1")]},
        {"kind": "group", "name": "g2", "children": [_rect("b"), *ref_in("g2")]},
        _rect("c"), *ref_in("r")]})


def test_a_ref_to_its_holder_or_an_ancestor_is_bf009_and_no_other_is():
    order = list(_TREE_PATHS)
    judged = 0
    for holder, (ancestors, count, last) in _HOLDERS.items():
        holder_path = _TREE_PATHS[holder]
        for referent in order[:order.index(last) + 1]:
            _, diags = compile_source(_tree(holder, referent))
            if referent == holder or referent in ancestors:
                referent_path = _TREE_PATHS[referent]
                assert [(d.code, d.message, d.node_paths) for d in diags] == [(
                    "BF009", f"ref under {holder_path!r} points at {referent_path!r}, "
                             "which would make the relation contain itself",
                    (f"{holder_path}/ref[{count}]", referent_path))], (holder, referent)
                judged += 1
            else:
                assert "BF009" not in [d.code for d in diags], (holder, referent)
    assert judged == 1 + 2 + 3 + 4 + 2


@pytest.mark.parametrize("root, expected", [
    pytest.param({"kind": "stackV", "children": [
        _rect("a"), {"kind": "stackV", "children": [_ref("a"), _rect()]},
    ]}, [("BF001", ("stackV/stackV[1]", "stackV"))], id="stack-in-a-stack"),
    pytest.param({"kind": "stackV", "children": [
        _rect("a"), {"kind": "align", "props": {"alignment": "top"}, "children": [_ref("a"), _rect()]},
    ]}, [("BF001", ("stackV/align[1]", "stackV"))], id="align-in-a-stack"),
    pytest.param({"kind": "stackV", "children": [
        _rect("a"), {"kind": "group", "children": [{"kind": "arrow", "children": [_ref("a"), _rect("b")]}]},
    ]}, [("BF008", ("stackV/group[1]/arrow[0]",)),
         ("BF001", ("stackV/group[1]/arrow[0]", "stackV"))], id="arrow-to-a-rect-in-a-stack"),
    pytest.param({"kind": "stackV", "children": [
        _rect("a"), {"kind": "group", "children": [
            _rect("b"), {"kind": "arrow", "children": [_ref("a"), _ref("b")]}]},
    ]}, [("BF008", ("stackV/group[1]/arrow[1]",)),
         ("BF001", ("stackV/group[1]/arrow[1]", "stackV"))], id="arrow-to-a-ref-in-a-stack"),
    pytest.param({"kind": "group", "children": [
        {"kind": "stackV", "props": {"spacing": 20}, "children": [_rect("a"), _rect("b")]},
        {"kind": "arrow", "children": [_ref("a"), _ref("b")]},
    ]}, [], id="arrow-after-the-stack"),
])
def test_a_read_through_a_ref_pins_the_frame_an_enclosing_relation_places(root, expected):
    # the README's Limitations entry: a relation reading a ref outside its
    # own subtree owns the translations on the way, so an enclosing
    # relation that places its subtree afterwards conflicts with it
    scene, diags = compile_source(_doc(root))
    assert [(d.code, d.node_paths) for d in diags] == expected
    assert (scene is None) == bool(expected)


def _nested_groups(levels: int, innermost: list) -> dict:
    el = {"kind": "group", "children": innermost}
    for _ in range(levels - 1):
        el = {"kind": "group", "children": [el]}
    return el


_DEEP = "group" + "/group[0]" * 197  # the innermost of 198 nested groups


@pytest.mark.parametrize("innermost, expected", [
    pytest.param([
        _rect("a"), _rect("b"),
        {"kind": "stackH", "children": [_ref("a"), _ref("b")]},
        {"kind": "stackV", "children": [_ref("a"), _ref("b")]},
    ], [("BF001", f"conflicting writes to 'centerX' of {_DEEP}/rect[1]:b: "
                  f"owned by {_DEEP}/stackH[2], also written by {_DEEP}/stackV[3]",
         (f"{_DEEP}/stackH[2]", f"{_DEEP}/stackV[3]"))], id="BF001"),
    pytest.param([
        _rect("a"), _rect("b"),
        {"kind": "align", "props": {"alignment": "center"}, "children": [_ref("a"), _ref("b")]},
        {"kind": "line", "children": [_ref("a"), _ref("b")]},
    ], [("BF008", "connector endpoints leave no visible segment", (f"{_DEEP}/line[3]",))],
        id="BF008"),
    pytest.param([{"kind": "stackV", "name": "s", "children": [_rect(), _ref("s")]}], [(
        "BF009", f"ref under '{_DEEP}/stackV[0]:s' points at '{_DEEP}/stackV[0]:s', "
                 "which would make the relation contain itself",
        (f"{_DEEP}/stackV[0]:s/ref[1]", f"{_DEEP}/stackV[0]:s"))], id="BF009"),
    pytest.param([
        {"kind": "group", "name": "a"}, _rect("b"),
        {"kind": "line", "children": [_ref("a"), _ref("b")]},
    ], [("BF012", f"{_DEEP}/group[0]:a cannot report 'width' where a relation needs it",
         (f"{_DEEP}/group[0]:a",))], id="BF012"),
    pytest.param([{"kind": "bar", "props": {"length": -80}}], [
        ("BF013", "extent 'width' must be non-negative, got -80.0", (f"{_DEEP}/bar[0]",))],
        id="BF013"),
    pytest.param([{"kind": "stackV", "children": [_rect(height=1e308), _rect(height=1e308)]}], [(
        "BF016", f"geometry overflows the float range: 'height' of {_DEEP}/stackV[0] would be inf",
        (f"{_DEEP}/stackV[0]",))], id="BF016"),
    pytest.param([{"kind": "background", "props": {"padding": 1e308}, "children": [_rect()]}], [(
        "BF016", "geometry overflows the float range: "
                 f"'width' of {_DEEP}/background[0]/rect(background mark) would be inf",
        (f"{_DEEP}/background[0]/rect(background mark)",))], id="BF016-background-mark"),
])
def test_scene_diagnostics_200_levels_deep_name_their_full_paths(innermost, expected):
    _, diags = compile_source(_doc(_nested_groups(198, innermost)), _with_kinds())
    assert [(d.code, d.message, d.node_paths) for d in diags] == expected


def test_unsized_nodes_200_levels_deep_name_their_full_paths():
    # a relation reads every child's box, so only nodes no relation reads
    # stay unsized: here a chain of a kind with no layout
    el = {"kind": "blank"}
    for _ in range(199):
        el = {"kind": "blank", "children": [el]}
    _, diags = compile_source(_doc(el), _with_kinds())
    paths = ["blank" + "/blank[0]" * i for i in range(200)]
    assert [(d.code, d.message, d.node_paths) for d in diags] == [
        ("BF004", f"{path} has no derivable extent after layout", (path,)) for path in paths]
