"""Document builders shared by the property and acceptance tests.

Documents come out as plain dicts in the JSON input shape, paired where
needed with the oracle-side description of the same structure, so one
random draw feeds both pipelines. The sized nested-stacks documents and
their timing loop back the linear-time acceptance check.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from bluefish import compile_source, paint

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_V_ALIGNMENTS = ("left", "centerX", "right")
_H_ALIGNMENTS = ("top", "centerY", "bottom")
_ALL_ALIGNMENTS = (
    "topLeft", "top", "topRight", "left", "center", "right",
    "bottomLeft", "bottom", "bottomRight", "centerX", "centerY",
    "centerLeft", "centerRight", "topCenter", "bottomCenter",
)


# --- pure stack trees (engine doc + cursor-oracle tree from one draw) --------------


def random_stack_tree(rng: random.Random, depth: int = 3):
    """A ("rect", w, h) | (kind, alignment, spacing, subtrees) tree."""
    if depth <= 0 or rng.random() < 0.4:
        return ("rect", rng.uniform(1.0, 50.0), rng.uniform(1.0, 50.0))
    kind = rng.choice(("stackV", "stackH"))
    alignment = rng.choice(_V_ALIGNMENTS if kind == "stackV" else _H_ALIGNMENTS)
    spacing = rng.uniform(0.0, 25.0)
    children = [random_stack_tree(rng, depth - 1) for _ in range(rng.randint(1, 5))]
    return (kind, alignment, spacing, children)


def stack_tree_to_doc(tree) -> dict:
    return {"bluefish": 1, "root": _stack_tree_element(tree)}


def _stack_tree_element(tree) -> dict:
    if tree[0] == "rect":
        return {"kind": "rect", "props": {"width": tree[1], "height": tree[2]}}
    kind, alignment, spacing, children = tree
    return {"kind": kind, "props": {"alignment": alignment, "spacing": spacing},
            "children": [_stack_tree_element(c) for c in children]}


# --- equivalent stack spellings ----------------------------------------------------


def random_stack_triplet(rng: random.Random) -> tuple[dict, dict, dict]:
    """One random flat stack written three ways: nested, denested, split.

    Returns (nested, denested, split) documents over the same 2..6 rects
    with one random direction, alignment, and spacing.
    """
    vertical = rng.random() < 0.5
    stack_kind = "stackV" if vertical else "stackH"
    alignment = rng.choice(_V_ALIGNMENTS if vertical else _H_ALIGNMENTS)
    spacing = rng.uniform(0.0, 30.0)
    sizes = [(rng.uniform(1.0, 50.0), rng.uniform(1.0, 50.0))
             for _ in range(rng.randint(2, 6))]

    def rect(i: int, named: bool) -> dict:
        el = {"kind": "rect", "props": {"width": sizes[i][0], "height": sizes[i][1]}}
        if named:
            el["name"] = f"r{i}"
        return el

    refs = [{"kind": "ref", "select": f"r{i}"} for i in range(len(sizes))]
    stack_props = {"alignment": alignment, "spacing": spacing}

    nested = {"bluefish": 1, "root": {
        "kind": stack_kind, "props": stack_props,
        "children": [rect(i, named=False) for i in range(len(sizes))]}}
    denested = {"bluefish": 1, "root": {"kind": "group", "children": [
        *[rect(i, named=True) for i in range(len(sizes))],
        {"kind": stack_kind, "props": stack_props, "children": refs}]}}
    split = {"bluefish": 1, "root": {"kind": "group", "children": [
        *[rect(i, named=True) for i in range(len(sizes))],
        {"kind": "align", "props": {"alignment": alignment}, "children": refs},
        {"kind": "distribute",
         "props": {"direction": "vertical" if vertical else "horizontal",
                   "spacing": spacing},
         "children": [dict(r) for r in refs]}]}}
    return nested, denested, split


# --- ref-free documents -------------------------------------------------------------

# Relations whose own box always has a position on both axes; only these
# may sit directly under a background or connector, which must read full
# child boxes.
_PLACED_RELATIONS = ("stackV", "stackH", "background")
_ALL_RELATIONS = ("stackV", "stackH", "align", "distribute", "group",
                  "background", "line", "arrow")


def _random_mark(rng: random.Random) -> dict:
    kind = rng.choice(("rect", "circle", "ellipse", "text", "path"))
    if kind == "rect":
        return {"kind": "rect",
                "props": {"width": rng.uniform(1.0, 40.0), "height": rng.uniform(1.0, 40.0)}}
    if kind == "circle":
        return {"kind": "circle", "props": {"r": rng.uniform(1.0, 20.0)}}
    if kind == "ellipse":
        return {"kind": "ellipse",
                "props": {"rx": rng.uniform(1.0, 20.0), "ry": rng.uniform(1.0, 20.0)}}
    if kind == "text":
        content = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(1, 8)))
        props: dict = {"content": content}
        if rng.random() < 0.7:
            props["fontSize"] = rng.uniform(8.0, 24.0)
        return {"kind": "text", "props": props}
    points = [(rng.uniform(-30.0, 60.0), rng.uniform(-30.0, 60.0))
              for _ in range(rng.randint(2, 5))]
    d = f"M {points[0][0]} {points[0][1]}" + "".join(
        f" L {x} {y}" for x, y in points[1:])
    return {"kind": "path", "props": {"d": d}}


def random_ref_free_element(rng: random.Random, depth: int = 3,
                            placed_only: bool = False) -> dict:
    if depth <= 0 or rng.random() < 0.35:
        return _random_mark(rng)
    kind = rng.choice(_PLACED_RELATIONS if placed_only else _ALL_RELATIONS)
    make_child = lambda placed=False: random_ref_free_element(rng, depth - 1, placed)
    if kind in ("stackV", "stackH"):
        props = {}
        if rng.random() < 0.8:
            props["spacing"] = rng.uniform(0.0, 25.0)
        if rng.random() < 0.8:
            props["alignment"] = rng.choice(
                _V_ALIGNMENTS if kind == "stackV" else _H_ALIGNMENTS)
        el = {"kind": kind, "children": [make_child() for _ in range(rng.randint(1, 4))]}
        if props:
            el["props"] = props
        return el
    if kind == "align":
        return {"kind": "align", "props": {"alignment": rng.choice(_ALL_ALIGNMENTS)},
                "children": [make_child() for _ in range(rng.randint(1, 4))]}
    if kind == "distribute":
        return {"kind": "distribute",
                "props": {"direction": rng.choice(("vertical", "horizontal")),
                          "spacing": rng.uniform(0.0, 25.0)},
                "children": [make_child() for _ in range(rng.randint(2, 4))]}
    if kind == "group":
        return {"kind": "group",
                "children": [make_child() for _ in range(rng.randint(1, 4))]}
    if kind == "background":
        el = {"kind": "background",
              "children": [make_child(placed=True) for _ in range(rng.randint(1, 3))]}
        if rng.random() < 0.7:
            el["props"] = {"padding": rng.uniform(0.0, 15.0)}
        return el
    return {"kind": kind, "children": [make_child(placed=True), make_child(placed=True)]}


def random_ref_free_doc(rng: random.Random, depth: int = 3) -> dict:
    root = random_ref_free_element(rng, depth)
    return {"bluefish": 1, "root": root}


# --- sized documents for timing ------------------------------------------------------


def generate_nested_stacks(target_nodes: int) -> bytes:
    """A stack of stacks of rects, roughly target_nodes scenegraph nodes.

    Broad and shallow on purpose: node count scales without deep
    nesting, and rect sizes vary so layout does real arithmetic.
    """
    per_row = 16
    rows = max(1, round((target_nodes - 1) / (per_row + 1)))
    children = []
    for i in range(rows):
        rects = [
            {"kind": "rect", "props": {
                "width": 10 + (i * per_row + j) % 7,
                "height": 8 + (i + j) % 5,
            }}
            for j in range(per_row)
        ]
        children.append({"kind": "stackH", "props": {"spacing": 4}, "children": rects})
    doc = {"bluefish": 1, "root": {
        "kind": "stackV", "props": {"spacing": 6, "alignment": "left"},
        "children": children,
    }}
    return json.dumps(doc).encode("utf-8")


def time_nested_stacks(sizes: list[int], reps: int) -> list[tuple[int, float]]:
    """Median wall time of compile+paint per size, as (nodes, ms)."""
    rows = []
    for size in sizes:
        data = generate_nested_stacks(size)
        times = []
        count = 0
        for _ in range(reps):
            started = time.perf_counter()
            scene, diagnostics = compile_source(data)
            assert scene is not None, [d.render() for d in diagnostics]
            paint(scene)
            times.append((time.perf_counter() - started) * 1000.0)
            count = len(scene.nodes)
        rows.append((count, statistics.median(times)))
    return rows
