"""Hand-rolled reference implementations the engine is tested against.

Each oracle recomputes an answer from first principles with none of the
engine's machinery: no scenegraph, no ownership, no lazy transforms.
The axis solver derives every field from every available pair and cross
checks them; the stack oracle is a plain cursor walk (place, advance,
take the max and the sum); the tree walk lays out ref-free documents by
plain recursion. Tests compare engine output against these wholesale so
a regression in the engine cannot hide behind a shared bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field

X_FIELDS = ("left", "centerX", "right", "width")
Y_FIELDS = ("top", "centerY", "bottom", "height")


def solve_axis(known: dict[str, float], axis: str = "x",
               tol: float = 1e-6) -> dict[str, float] | None:
    """Solve one axis of a box from any subset of its four fields.

    Derives (start, extent) independently from every available pair and
    demands the candidates agree within ``tol``. Returns the full field
    dict, None when underdetermined, and raises ValueError when the
    inputs contradict each other.
    """
    start_f, center_f, end_f, extent_f = X_FIELDS if axis == "x" else Y_FIELDS
    s = known.get(start_f)
    c = known.get(center_f)
    e = known.get(end_f)
    x = known.get(extent_f)
    candidates: list[tuple[float, float]] = []
    if s is not None and c is not None:
        candidates.append((s, 2.0 * (c - s)))
    if s is not None and e is not None:
        candidates.append((s, e - s))
    if s is not None and x is not None:
        candidates.append((s, x))
    if c is not None and e is not None:
        candidates.append((2.0 * c - e, 2.0 * (e - c)))
    if c is not None and x is not None:
        candidates.append((c - x / 2.0, x))
    if e is not None and x is not None:
        candidates.append((e - x, x))
    if not candidates:
        return None
    s0, x0 = candidates[0]
    for s1, x1 in candidates[1:]:
        if abs(s1 - s0) > tol or abs(x1 - x0) > tol:
            raise ValueError(f"contradictory axis fields: {known}")
    full = {start_f: s0, center_f: s0 + x0 / 2.0, end_f: s0 + x0, extent_f: x0}
    for f, v in known.items():
        if abs(v - full[f]) > tol:
            raise ValueError(f"contradictory axis fields: {known}")
    return full


# --- cursor-walk stack oracle -----------------------------------------------------
#
# Trees are ("rect", w, h) or (kind, alignment, spacing, [subtrees]) with
# kind "stackV" | "stackH". Mark positions come out relative to the root
# node's origin (the guideline-zero frame), accumulated parent first so
# the float folds match a top-down resolve step for step.


@dataclass
class StackBox:
    width: float
    height: float
    box_left: float  # own box corner, measured from the node's origin
    box_top: float
    mark: tuple[float, float] | None = None  # (w, h) when the node is a rect
    children: list[tuple[float, float, "StackBox"]] = field(default_factory=list)


def stack_layout(tree) -> StackBox:
    """Stack layout as a bare cursor walk: place, advance, max, sum."""
    if tree[0] == "rect":
        _, w, h = tree
        return StackBox(w, h, 0.0, 0.0, mark=(w, h))
    kind, alignment, spacing, subtrees = tree
    subs = [stack_layout(t) for t in subtrees]
    placed: list[tuple[float, float, StackBox]] = []
    if kind == "stackV":
        cursor = 0.0
        for sub in subs:
            if alignment == "left":
                x = 0.0
            elif alignment == "centerX":
                x = -(sub.width / 2.0)
            else:  # right
                x = -sub.width
            # place(x, cursor): x and cursor position the box corner; the
            # origin offset subtracts where the box sits in the sub's frame
            placed.append((x - sub.box_left, cursor - sub.box_top, sub))
            cursor = cursor + (sub.height + spacing)
        width = max(s.width for s in subs)
        height = sum(s.height for s in subs) + spacing * (len(subs) - 1)
        box_left = {"left": 0.0, "centerX": 0.0 - width / 2.0, "right": 0.0 - width}[alignment]
        return StackBox(width, height, box_left, 0.0, children=placed)
    cursor = 0.0
    for sub in subs:
        if alignment == "top":
            y = 0.0
        elif alignment == "centerY":
            y = -(sub.height / 2.0)
        else:  # bottom
            y = -sub.height
        placed.append((cursor - sub.box_left, y - sub.box_top, sub))
        cursor = cursor + (sub.width + spacing)
    height = max(s.height for s in subs)
    width = sum(s.width for s in subs) + spacing * (len(subs) - 1)
    box_top = {"top": 0.0, "centerY": 0.0 - height / 2.0, "bottom": 0.0 - height}[alignment]
    return StackBox(width, height, 0.0, box_top, children=placed)


def stack_marks(box: StackBox, ox: float = 0.0, oy: float = 0.0,
                out: list[tuple[float, float, float, float]] | None = None):
    """Absolute rect boxes of a laid-out stack tree, pre-order."""
    if out is None:
        out = []
    if box.mark is not None:
        out.append((ox + 0.0, oy + 0.0, box.mark[0], box.mark[1]))
    for cx, cy, child in box.children:
        stack_marks(child, ox + cx, oy + cy, out)
    return out


# --- plain tree-walk oracle -------------------------------------------------------
#
# Lays out a ref-free document dict (the same shape the JSON parser
# accepts) with plain recursion. Spans are (box start, extent) per axis
# in the node's own frame; children carry their origin offset from the
# parent. A relation's span covers its children's boxes, also on an axis
# it places nothing on.

Span = tuple[float, float]

_ALIGNMENT_FIELDS: dict[str, tuple[str | None, str | None]] = {
    "topLeft": ("start", "start"), "top": ("start", None), "topRight": ("start", "end"),
    "left": (None, "start"), "center": ("center", "center"), "right": (None, "end"),
    "bottomLeft": ("end", "start"), "bottom": ("end", None), "bottomRight": ("end", "end"),
    "centerX": (None, "center"), "centerY": ("center", None),
    "centerLeft": ("center", "start"), "centerRight": ("center", "end"),
    "topCenter": ("start", "center"), "bottomCenter": ("end", "center"),
}

_DEFAULTS: dict[str, dict[str, object]] = {
    "rect": {"fill": "black"}, "circle": {}, "ellipse": {},
    "text": {"fontSize": 16.0},
    "path": {},
    "stackV": {"spacing": 0.0, "alignment": "centerX"},
    "stackH": {"spacing": 0.0, "alignment": "centerY"},
    "align": {}, "distribute": {"spacing": 0.0},
    "group": {}, "background": {"padding": 10.0},
    "arrow": {"gap": 5.0}, "line": {"gap": 0.0},
}


@dataclass
class WalkNode:
    kind: str
    x: Span
    y: Span
    mark: tuple[float, float, float, float] | None = None  # content box, own frame
    children: list[tuple[float, float, "WalkNode"]] = field(default_factory=list)


def _get(el: dict, prop: str):
    props = el.get("props", {})
    if prop in props:
        v = props[prop]
        return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v
    return _DEFAULTS[el["kind"]].get(prop)


def _coord(span: Span, which: str) -> float:
    """A position field of a span."""
    s, e = span
    if which == "start":
        return s
    if which == "center":
        return s + e / 2.0
    return s + e


def _span_union(placed: list[tuple[float, float, WalkNode]],
                axis: str) -> tuple[float, float]:
    """(min start, max end) of the placed children's boxes on an axis."""
    lo = None
    hi = None
    for cx, cy, child in placed:
        s, e = child.x if axis == "x" else child.y
        off = cx if axis == "x" else cy
        start = s + off
        end = (s + e) + off
        lo = start if lo is None else min(lo, start)
        hi = end if hi is None else max(hi, end)
    return lo, hi


def _covered(placed: list[tuple[float, float, WalkNode]], axis: str) -> Span:
    lo, hi = _span_union(placed, axis)
    return lo, hi - lo


def _slots(extents: list[float], spacing: float) -> list[float]:
    slots = [0.0]
    for e in extents[:-1]:
        slots.append(slots[-1] + (e + spacing))
    return slots


def _walk_stack(el: dict, vertical: bool) -> WalkNode:
    subs = [tree_walk(c) for c in el.get("children", [])]
    spacing = _get(el, "spacing")
    alignment = _get(el, "alignment")
    main, cross = ("y", "x") if vertical else ("x", "y")
    which = {"left": "start", "top": "start", "centerX": "center",
             "centerY": "center", "right": "end", "bottom": "end"}[alignment]
    main_spans = [s.y if vertical else s.x for s in subs]
    cross_spans = [s.x if vertical else s.y for s in subs]
    slots = _slots([sp[1] for sp in main_spans], spacing)
    placed = []
    for i, sub in enumerate(subs):
        m_off = (slots[i] + 0.0) - _coord(main_spans[i], "start")
        c_off = 0.0 - _coord(cross_spans[i], which)
        placed.append((c_off, m_off, sub) if vertical else (m_off, c_off, sub))
    total = sum(sp[1] for sp in main_spans) + spacing * (len(subs) - 1)
    cross_extent = max(sp[1] for sp in cross_spans)
    if which == "start":
        cross_origin = 0.0
    elif which == "center":
        cross_origin = 0.0 - cross_extent / 2.0
    else:
        cross_origin = 0.0 - cross_extent
    main_span: Span = (0.0, total)
    cross_span: Span = (cross_origin, cross_extent)
    x, y = (cross_span, main_span) if vertical else (main_span, cross_span)
    return WalkNode(el["kind"], x, y, children=placed)


def _walk_align(el: dict) -> WalkNode:
    subs = [tree_walk(c) for c in el.get("children", [])]
    v_which, h_which = _ALIGNMENT_FIELDS[el["props"]["alignment"]]
    offsets = [[0.0, 0.0] for _ in subs]
    for idx, which in ((1, v_which), (0, h_which)):
        if which is not None:
            for i, sub in enumerate(subs):
                offsets[i][idx] = 0.0 - _coord(sub.y if idx else sub.x, which)
    placed = [(off[0], off[1], sub) for off, sub in zip(offsets, subs)]
    return WalkNode("align", _covered(placed, "x"), _covered(placed, "y"), children=placed)


def _walk_distribute(el: dict) -> WalkNode:
    subs = [tree_walk(c) for c in el.get("children", [])]
    vertical = el["props"]["direction"] == "vertical"
    spacing = _get(el, "spacing")
    main_spans = [s.y if vertical else s.x for s in subs]
    slots = _slots([sp[1] for sp in main_spans], spacing)
    placed = []
    for i, sub in enumerate(subs):
        m_off = (slots[i] + 0.0) - _coord(main_spans[i], "start")
        placed.append((0.0, m_off, sub) if vertical else (m_off, 0.0, sub))
    total = sum(sp[1] for sp in main_spans) + spacing * (len(subs) - 1)
    main_span: Span = (0.0, total)
    cross_span = _covered(placed, "x" if vertical else "y")
    x, y = (cross_span, main_span) if vertical else (main_span, cross_span)
    return WalkNode("distribute", x, y, children=placed)


def _walk_group(el: dict) -> WalkNode:
    subs = [tree_walk(c) for c in el.get("children", [])]
    placed = [(0.0, 0.0, sub) for sub in subs]
    return WalkNode("group", _covered(placed, "x"), _covered(placed, "y"), children=placed)


def _walk_background(el: dict) -> WalkNode:
    subs = [tree_walk(c) for c in el.get("children", [])]
    padding = _get(el, "padding")
    offsets = []
    for sub in subs:
        ox = padding - _coord(sub.x, "start")
        oy = padding - _coord(sub.y, "start")
        offsets.append((ox, oy))
    placed = [(ox, oy, sub) for (ox, oy), sub in zip(offsets, subs)]
    spans = {}
    mark_off = {}
    for axis in ("x", "y"):
        lo, hi = _span_union(placed, axis)
        extent = (hi - lo) + 2.0 * padding
        spans[axis] = (lo - padding, extent)
        mark_off[axis] = lo - padding
    mark = WalkNode("rect", (0.0, spans["x"][1]), (0.0, spans["y"][1]),
                    mark=(0.0, 0.0, spans["x"][1], spans["y"][1]))
    children = [(mark_off["x"], mark_off["y"], mark)] + placed
    return WalkNode("background", spans["x"], spans["y"], children=children)


def _walk_connector(el: dict) -> WalkNode:
    subs = [tree_walk(c) for c in el.get("children", [])]
    placed = [(0.0, 0.0, sub) for sub in subs]
    return WalkNode(el["kind"], _covered(placed, "x"), _covered(placed, "y"), children=placed)


def _path_points(d: str) -> list[tuple[float, float]]:
    # the generator emits absolute M/L commands only
    tokens = d.replace("M", " ").replace("L", " ").split()
    vals = [float(t) for t in tokens]
    return list(zip(vals[0::2], vals[1::2]))


def tree_walk(el: dict) -> WalkNode:
    kind = el["kind"]
    if kind == "rect":
        w, h = _get(el, "width"), _get(el, "height")
        return WalkNode(kind, (0.0, w), (0.0, h), mark=(0.0, 0.0, w, h))
    if kind == "circle":
        d = 2.0 * _get(el, "r")
        return WalkNode(kind, (0.0, d), (0.0, d), mark=(0.0, 0.0, d, d))
    if kind == "ellipse":
        w, h = 2.0 * _get(el, "rx"), 2.0 * _get(el, "ry")
        return WalkNode(kind, (0.0, w), (0.0, h), mark=(0.0, 0.0, w, h))
    if kind == "text":
        fs = _get(el, "fontSize")
        w = 0.6 * fs * len(el["props"]["content"])
        h = 1.2 * fs
        return WalkNode(kind, (0.0, w), (0.0, h), mark=(0.0, 0.0, w, h))
    if kind == "path":
        pts = _path_points(el["props"]["d"])
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        w, h = max(xs) - min(xs), max(ys) - min(ys)
        return WalkNode(kind, (min(xs), w), (min(ys), h),
                        mark=(min(xs), min(ys), w, h))
    if kind == "stackV":
        return _walk_stack(el, vertical=True)
    if kind == "stackH":
        return _walk_stack(el, vertical=False)
    if kind == "align":
        return _walk_align(el)
    if kind == "distribute":
        return _walk_distribute(el)
    if kind == "group":
        return _walk_group(el)
    if kind == "background":
        return _walk_background(el)
    if kind in ("arrow", "line"):
        return _walk_connector(el)
    raise ValueError(f"oracle does not model kind {kind!r}")


def walk_marks(node: WalkNode, ox: float = 0.0, oy: float = 0.0,
               out: list[tuple[str, float, float, float, float]] | None = None):
    """Absolute mark content boxes of a walked tree, pre-order."""
    if out is None:
        out = []
    if node.mark is not None:
        ml, mt, mw, mh = node.mark
        out.append((node.kind, ox + ml, oy + mt, mw, mh))
    for cx, cy, child in node.children:
        walk_marks(child, ox + cx, oy + cy, out)
    return out
