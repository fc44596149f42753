"""The standard element kinds: marks and layout relations.

Every kind is described by an ElementKindSpec bundling its props, its
layout function, and its paint function. The engine runs a node's layout
function once, after it has laid out all of the node's children, so
layout functions never recurse: they size and place the finished
children (directly or through refs), then record the node's own extent
and local origin.

The anchor discipline is what lets one relation mesh with decisions made
by earlier ones. On each axis a relation first checks which participants
are already fixed (their translation on that axis has an owner). The
first fixed participant anchors the relation: stacks and distributes
anchor their cursor there and fill earlier slots backward, aligns adopt
its guideline. Remaining participants are placed relative to the anchor,
and any *other* fixed participant must agree with its implied position
within tolerance or the two owners conflict. With no fixed participant
the relation lays out from 0 in its own frame, exactly like a plain
tree-based layout.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Callable

from .errors import (
    DEGENERATE_CONNECTOR,
    WARNING,
    Diagnostic,
    DimensionConflict,
    UndefinedExtentError,
)
from .geometry import TOLERANCE, Axis

if TYPE_CHECKING:
    from .engine import LayoutRuntime

MARK_KINDS = frozenset({"rect", "circle", "ellipse", "path", "text"})
BACKGROUND_MARK_KINDS = frozenset({"rect", "circle", "ellipse"})
BACKGROUND_MARK_SIZE_PROPS = frozenset({"width", "height", "r", "rx", "ry"})

#: 2D alignments decompose into one guideline field per axis.
ALIGNMENT_FIELDS: dict[str, tuple[str | None, str | None]] = {
    # (vertical-axis field, horizontal-axis field)
    "left": (None, "left"),
    "centerX": (None, "centerX"),
    "right": (None, "right"),
    "top": ("top", None),
    "centerY": ("centerY", None),
    "bottom": ("bottom", None),
    "topLeft": ("top", "left"),
    "topCenter": ("top", "centerX"),
    "topRight": ("top", "right"),
    "centerLeft": ("centerY", "left"),
    "center": ("centerY", "centerX"),
    "centerRight": ("centerY", "right"),
    "bottomLeft": ("bottom", "left"),
    "bottomCenter": ("bottom", "centerX"),
    "bottomRight": ("bottom", "right"),
}


@dataclass(frozen=True)
class ElementKindSpec:
    """Registry entry for one element kind."""

    kind: str
    required_props: tuple[str, ...] = ()
    optional_props: dict[str, object] = dc_field(default_factory=dict)
    prop_types: dict[str, str] = dc_field(default_factory=dict)  # name -> number|string|element
    enum_props: dict[str, tuple[str, ...]] = dc_field(default_factory=dict)
    nonnegative_props: frozenset[str] = frozenset()
    positive_props: frozenset[str] = frozenset()
    is_mark: bool = False
    min_children: int | None = None
    exact_children: int | None = None
    # called as layout(rt, nid, props) once the engine has laid out every
    # child of nid; it places those children and never recurses
    layout: Callable[["LayoutRuntime", str, dict], None] | None = None
    paint: Callable[..., str] | None = None
    expand: Callable[[dict, list], object] | None = None

    def defaults(self) -> dict[str, object]:
        return {k: v for k, v in self.optional_props.items() if v is not None}


# --- text metrics -------------------------------------------------------------


def measure_text(content: str, font_size: float, font_family: str = "sans-serif") -> tuple[float, float]:
    """Deterministic text metrics independent of any font rasterizer.

    Width is 0.6 * fontSize per Unicode scalar value; height is
    1.2 * fontSize. Crude, but identical on every platform, which
    matters more here than typographic fidelity.
    """
    if font_size <= 0:
        raise ValueError(f"fontSize must be positive, got {font_size!r}")
    del font_family  # reserved; metrics do not vary by family
    return (0.6 * font_size * len(content), 1.2 * font_size)


# --- path data ----------------------------------------------------------------

_NUM = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_ARGS_PER_COMMAND = {
    "M": 2, "L": 2, "T": 2, "H": 1, "V": 1, "C": 6, "S": 4, "Q": 4, "A": 7, "Z": 0,
}


def path_control_points(d: str) -> list[tuple[float, float]]:
    """All on-curve and control points of an SVG path string.

    The control polygon bounds the curve for line and Bezier segments;
    arcs contribute their endpoints only. Raises ValueError on malformed
    data.
    """
    tokens = re.findall(r"[MmLlHhVvCcSsQqTtAaZz]|" + _NUM.pattern, d)
    if not tokens:
        raise ValueError("empty path data")
    points: list[tuple[float, float]] = []
    cur = (0.0, 0.0)
    start = (0.0, 0.0)
    i = 0
    command: str | None = None
    while i < len(tokens):
        tok = tokens[i]
        if tok.isalpha():
            command = tok
            i += 1
            if command.upper() == "Z":
                cur = start
                continue
        elif command is None:
            raise ValueError("path data must begin with a command")
        elif command.upper() == "Z":
            raise ValueError("coordinates after close command")
        elif command.upper() == "M":
            command = "L" if command == "M" else "l"  # implicit lineto after moveto
        assert command is not None
        upper = command.upper()
        rel = command.islower()
        n = _ARGS_PER_COMMAND[upper]
        if n == 0:
            continue
        args = tokens[i:i + n]
        if len(args) < n or any(a.isalpha() for a in args):
            raise ValueError(f"command {command!r} needs {n} numbers")
        vals = [float(a) for a in args]
        i += n
        ox, oy = cur if rel else (0.0, 0.0)
        if upper == "H":
            cur = (ox + vals[0] if rel else vals[0], cur[1])
            points.append(cur)
        elif upper == "V":
            cur = (cur[0], oy + vals[0] if rel else vals[0])
            points.append(cur)
        elif upper == "A":
            cur = (ox + vals[5], oy + vals[6])
            points.append(cur)
        else:
            for j in range(0, n, 2):
                pt = (ox + vals[j], oy + vals[j + 1])
                points.append(pt)
            cur = points[-1]
            if upper == "M":
                start = cur
    return points


# --- mark layout ----------------------------------------------------------------


def _set_own(rt: "LayoutRuntime", nid: str, **fields: float) -> None:
    for f, v in fields.items():
        rt.graph.set_dim_in_frame(nid, nid, f, v, nid)


def layout_rect(rt: "LayoutRuntime", nid: str, props: dict) -> None:
    _set_own(rt, nid, left=0.0, top=0.0)
    # a background-sized rect has no width/height of its own
    if "width" in props:
        _set_own(rt, nid, width=props["width"])
    if "height" in props:
        _set_own(rt, nid, height=props["height"])


def layout_circle(rt: "LayoutRuntime", nid: str, props: dict) -> None:
    _set_own(rt, nid, left=0.0, top=0.0)
    if "r" in props:
        _set_own(rt, nid, width=2.0 * props["r"], height=2.0 * props["r"])


def layout_ellipse(rt: "LayoutRuntime", nid: str, props: dict) -> None:
    _set_own(rt, nid, left=0.0, top=0.0)
    if "rx" in props:
        _set_own(rt, nid, width=2.0 * props["rx"])
    if "ry" in props:
        _set_own(rt, nid, height=2.0 * props["ry"])


def layout_text(rt: "LayoutRuntime", nid: str, props: dict) -> None:
    w, h = measure_text(props["content"], props["fontSize"], props["fontFamily"])
    _set_own(rt, nid, left=0.0, top=0.0, width=w, height=h)


def layout_path(rt: "LayoutRuntime", nid: str, props: dict) -> None:
    # the box tracks the drawn geometry, so it need not start at 0
    pts = path_control_points(props["d"])
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    _set_own(rt, nid, left=min(xs), top=min(ys),
             width=max(xs) - min(xs), height=max(ys) - min(ys))


# --- relation helpers -----------------------------------------------------------


def _require_extent(rt: "LayoutRuntime", target: str, axis: Axis) -> float:
    value = rt.graph.extent_of(target, axis)
    if value is None:
        raise UndefinedExtentError(target, axis.extent_field)
    return value


def _guideline_value(rt: "LayoutRuntime", target: str, nid: str, axis: Axis, field_name: str) -> float:
    box = rt.graph.bbox_in_frame(target, nid, axis, nid)
    value = box[field_name]
    if value is None:
        raise UndefinedExtentError(target, field_name)
    return value


def _transform_owner(rt: "LayoutRuntime", target: str, axis: Axis) -> str:
    return rt.graph.nodes[target].transform_owners[axis.component]


def _align_axis(rt: "LayoutRuntime", nid: str, targets: list[str], axis: Axis, field_name: str) -> float:
    """Put every target's ``field_name`` on one guideline; returns it.

    The guideline is 0 in the relation's frame unless some target is
    already fixed on the axis, in which case the first fixed target
    anchors it and the rest must fall in line.
    """
    fixed = [i for i, t in enumerate(targets) if rt.graph.is_fixed(t, axis)]
    if fixed:
        guideline = _guideline_value(rt, targets[fixed[0]], nid, axis, field_name)
    else:
        guideline = 0.0
    for i, t in enumerate(targets):
        if fixed and i == fixed[0]:
            continue
        if rt.graph.is_fixed(t, axis):
            value = _guideline_value(rt, t, nid, axis, field_name)
            if abs(value - guideline) > TOLERANCE:
                raise DimensionConflict(
                    t, field_name, _transform_owner(rt, t, axis), nid,
                    existing_value=value, value=guideline)
        else:
            rt.graph.set_dim_in_frame(t, nid, field_name, guideline, nid)
    return guideline


def _distribute_axis(rt: "LayoutRuntime", nid: str, targets: list[str], axis: Axis,
                     spacing: float) -> tuple[float, float]:
    """Pack targets along the axis with equal gaps.

    Slot offsets are the plain cursor walk (0, e0+spacing, ...); a fixed
    target shifts the whole train so its slot lands where it already
    sits, which fills earlier slots backward. Returns (origin, extent) of
    the packed run in the relation's frame.
    """
    extents = [_require_extent(rt, t, axis) for t in targets]
    slots = [0.0]
    for e in extents[:-1]:
        slots.append(slots[-1] + (e + spacing))
    start_field = axis.start_field
    fixed = [i for i, t in enumerate(targets) if rt.graph.is_fixed(t, axis)]
    delta = 0.0
    if fixed:
        anchor = fixed[0]
        delta = _guideline_value(rt, targets[anchor], nid, axis, start_field) - slots[anchor]
    for i, t in enumerate(targets):
        implied = slots[i] + delta
        if rt.graph.is_fixed(t, axis):
            actual = _guideline_value(rt, t, nid, axis, start_field)
            if abs(actual - implied) > TOLERANCE:
                raise DimensionConflict(
                    t, start_field, _transform_owner(rt, t, axis), nid,
                    existing_value=actual, value=implied)
        else:
            rt.graph.set_dim_in_frame(t, nid, start_field, implied, nid)
    total = sum(extents) + spacing * (len(extents) - 1)
    return delta, total


def _union_boxes(rt: "LayoutRuntime", nid: str, targets: list[str],
                 axis: Axis, strict: bool = False) -> tuple[float, float] | None:
    """(min position, max position) of targets on an axis, in nid's frame.

    Children without a full box on the axis are skipped, unless
    ``strict``, in which case they are an error (a background must
    enclose every child, so it cannot ignore one).
    """
    lo = math.inf
    hi = -math.inf
    for t in targets:
        box = rt.graph.bbox_in_frame(t, nid, axis, nid)
        start = box[axis.start_field]
        end = box[axis.end_field]
        if start is None or end is None:
            if strict:
                raise UndefinedExtentError(t, axis.start_field if start is None else axis.end_field)
            continue
        lo = min(lo, start)
        hi = max(hi, end)
    return (lo, hi) if lo is not math.inf else None


# --- relation layout -------------------------------------------------------------


def _make_stack_layout(main: Axis):
    def layout_stack(rt: "LayoutRuntime", nid: str, props: dict) -> None:
        targets = [rt.graph.target_of(c) for c in rt.graph.nodes[nid].children]
        cross = main.other
        cross_extents = [_require_extent(rt, t, cross) for t in targets]
        guideline = _align_axis(rt, nid, targets, cross, props["alignment"])
        origin, total = _distribute_axis(rt, nid, targets, main, props["spacing"])
        cross_extent = max(cross_extents)
        field_name = props["alignment"]
        if field_name == cross.start_field:
            cross_origin = guideline
        elif field_name == cross.center_field:
            cross_origin = guideline - cross_extent / 2.0
        else:
            cross_origin = guideline - cross_extent
        _set_own(rt, nid, **{
            main.start_field: origin, main.extent_field: total,
            cross.start_field: cross_origin, cross.extent_field: cross_extent,
        })

    return layout_stack


def layout_align(rt: "LayoutRuntime", nid: str, props: dict) -> None:
    targets = [rt.graph.target_of(c) for c in rt.graph.nodes[nid].children]
    v_field, h_field = ALIGNMENT_FIELDS[props["alignment"]]
    for axis, field_name in ((Axis.VERTICAL, v_field), (Axis.HORIZONTAL, h_field)):
        if field_name is None:
            # untouched axis: extent recorded for the node's own box only
            extents = [rt.graph.extent_of(t, axis) for t in targets]
            if all(e is not None for e in extents):
                _set_own(rt, nid, **{axis.extent_field: max(extents)})
            continue
        guideline = _align_axis(rt, nid, targets, axis, field_name)
        lo = math.inf
        hi = -math.inf
        for t in targets:
            box = rt.graph.bbox_in_frame(t, nid, axis, nid)
            start = box[axis.start_field]
            end = box[axis.end_field]
            if start is None or end is None:
                extent = box[axis.extent_field]
                if extent is None:
                    continue
                # a target without its own box position was just placed on
                # the guideline with content at its local origin
                if field_name == axis.start_field:
                    start = guideline
                elif field_name == axis.center_field:
                    start = guideline - extent / 2.0
                else:
                    start = guideline - extent
                end = start + extent
            lo = min(lo, start)
            hi = max(hi, end)
        if lo is not math.inf:
            _set_own(rt, nid, **{axis.start_field: lo,
                                 axis.extent_field: hi - lo})


def layout_distribute(rt: "LayoutRuntime", nid: str, props: dict) -> None:
    targets = [rt.graph.target_of(c) for c in rt.graph.nodes[nid].children]
    main = Axis.VERTICAL if props["direction"] == "vertical" else Axis.HORIZONTAL
    origin, total = _distribute_axis(rt, nid, targets, main, props["spacing"])
    _set_own(rt, nid, **{main.start_field: origin, main.extent_field: total})
    cross = main.other
    extents = [rt.graph.extent_of(t, cross) for t in targets]
    if all(e is not None for e in extents):
        _set_own(rt, nid, **{cross.extent_field: max(extents)})


def layout_group(rt: "LayoutRuntime", nid: str, props: dict) -> None:
    del props
    targets = [rt.graph.target_of(c) for c in rt.graph.nodes[nid].children]
    for t in targets:
        for axis in (Axis.HORIZONTAL, Axis.VERTICAL):
            if not rt.graph.is_fixed(t, axis):
                rt.graph.materialize(t, axis, nid)  # unplaced children stay put
    for axis in (Axis.HORIZONTAL, Axis.VERTICAL):
        span = _union_boxes(rt, nid, targets, axis)
        if span is not None:
            _set_own(rt, nid, **{axis.start_field: span[0],
                                 axis.extent_field: span[1] - span[0]})
        else:
            extents = [rt.graph.extent_of(t, axis) for t in targets]
            known = [e for e in extents if e is not None]
            if known:
                _set_own(rt, nid, **{axis.extent_field: max(known)})


def layout_background(rt: "LayoutRuntime", nid: str, props: dict) -> None:
    children = rt.graph.nodes[nid].children
    mark = rt.background_mark(nid)
    targets = [rt.graph.target_of(c) for c in children if c != mark]
    padding = props["padding"]
    for axis in (Axis.HORIZONTAL, Axis.VERTICAL):
        for t in targets:
            if not rt.graph.is_fixed(t, axis):
                rt.graph.set_dim_in_frame(t, nid, axis.start_field, padding, nid)
        span = _union_boxes(rt, nid, targets, axis, strict=True)
        assert span is not None  # strict union either returns or raises
        lo, hi = span
        extent = (hi - lo) + 2.0 * padding
        rt.graph.set_dim_in_frame(mark, nid, axis.extent_field, extent, nid)
        rt.graph.set_dim_in_frame(mark, nid, axis.start_field, lo - padding, nid)
        _set_own(rt, nid, **{axis.start_field: lo - padding, axis.extent_field: extent})


def _make_connector_layout(arrow: bool):
    def layout_connector(rt: "LayoutRuntime", nid: str, props: dict) -> None:
        children = rt.graph.nodes[nid].children
        targets = [rt.graph.target_of(c) for c in children]
        for t in targets:
            for axis in (Axis.HORIZONTAL, Axis.VERTICAL):
                if not rt.graph.is_fixed(t, axis):
                    rt.graph.materialize(t, axis, nid)
        boxes = []
        for t in targets:
            h = rt.graph.bbox_in_frame(t, nid, Axis.HORIZONTAL, nid)
            v = rt.graph.bbox_in_frame(t, nid, Axis.VERTICAL, nid)
            if None in (h["centerX"], h["width"], v["centerY"], v["height"]):
                raise UndefinedExtentError(t, "width" if h["width"] is None else "height")
            boxes.append((h, v))
        (h1, v1), (h2, v2) = boxes
        lo_x = min(h1["left"], h2["left"])
        hi_x = max(h1["right"], h2["right"])
        lo_y = min(v1["top"], v2["top"])
        hi_y = max(v1["bottom"], v2["bottom"])
        _set_own(rt, nid, left=lo_x, width=hi_x - lo_x, top=lo_y, height=hi_y - lo_y)
        segment = _clip_segment(
            (h1["centerX"], v1["centerY"]), (h1["width"], v1["height"]),
            (h2["centerX"], v2["centerY"]), (h2["width"], v2["height"]),
            props["gap"])
        if segment is None:
            rt.warn(Diagnostic(
                DEGENERATE_CONNECTOR,
                "connector endpoints leave no visible segment",
                (rt.path_of(nid),), severity=WARNING))
        else:
            rt.graph.nodes[nid].paint_props["segment"] = segment
            rt.graph.nodes[nid].paint_props["arrow"] = arrow

    return layout_connector


def _clip_segment(c1: tuple[float, float], e1: tuple[float, float],
                  c2: tuple[float, float], e2: tuple[float, float],
                  gap: float) -> tuple[float, float, float, float] | None:
    """Center-to-center segment, clipped out of both boxes and inset by gap.

    Returns (x1, y1, x2, y2) or None when nothing remains (overlapping
    or coincident boxes, or a gap larger than the free span).
    """
    dx = c2[0] - c1[0]
    dy = c2[1] - c1[1]
    length = math.hypot(dx, dy)
    if length <= 0.0:
        return None
    ux, uy = dx / length, dy / length

    def exit_distance(extent: tuple[float, float]) -> float:
        best = math.inf
        if ux != 0.0:
            best = min(best, (extent[0] / 2.0) / abs(ux))
        if uy != 0.0:
            best = min(best, (extent[1] / 2.0) / abs(uy))
        return best

    start = exit_distance(e1) + gap
    back = exit_distance(e2) + gap
    if length - start - back <= 0.0:
        return None
    return (c1[0] + start * ux, c1[1] + start * uy,
            c2[0] - back * ux, c2[1] - back * uy)


# --- paint --------------------------------------------------------------------


def _style_attrs(props: dict, *names: str) -> dict[str, object]:
    svg_names = {
        "fill": "fill", "fontSize": "font-size", "fontFamily": "font-family",
    }
    return {svg_names[n]: props[n] for n in names if props.get(n) is not None}


def _stroke_attrs(props: dict) -> dict[str, object]:
    # stroke-width and dash pattern are noise without a stroke
    if props.get("stroke") is None:
        return {}
    attrs: dict[str, object] = {"stroke": props["stroke"]}
    if props.get("strokeWidth") is not None:
        attrs["stroke-width"] = props["strokeWidth"]
    if props.get("strokeDasharray") is not None:
        attrs["stroke-dasharray"] = props["strokeDasharray"]
    return attrs


def paint_rect(node, fmt, esc) -> str:
    attrs = {"x": node.local_left, "y": node.local_top,
             "width": node.width, "height": node.height}
    attrs.update(_style_attrs(node.paint_props, "fill"))
    attrs.update(_stroke_attrs(node.paint_props))
    if node.paint_props.get("rx", 0):
        attrs["rx"] = node.paint_props["rx"]
    return _tag("rect", attrs, fmt, esc)


def paint_circle(node, fmt, esc) -> str:
    attrs = {"cx": node.local_left + node.width / 2.0,
             "cy": node.local_top + node.height / 2.0,
             "r": min(node.width, node.height) / 2.0}
    attrs.update(_style_attrs(node.paint_props, "fill"))
    attrs.update(_stroke_attrs(node.paint_props))
    return _tag("circle", attrs, fmt, esc)


def paint_ellipse(node, fmt, esc) -> str:
    attrs = {"cx": node.local_left + node.width / 2.0,
             "cy": node.local_top + node.height / 2.0,
             "rx": node.width / 2.0, "ry": node.height / 2.0}
    attrs.update(_style_attrs(node.paint_props, "fill"))
    attrs.update(_stroke_attrs(node.paint_props))
    return _tag("ellipse", attrs, fmt, esc)


def paint_path(node, fmt, esc) -> str:
    attrs = {"d": node.paint_props["d"]}
    attrs.update(_style_attrs(node.paint_props, "fill"))
    attrs.update(_stroke_attrs(node.paint_props))
    return _tag("path", attrs, fmt, esc)


def paint_text(node, fmt, esc) -> str:
    attrs = {"x": node.local_left, "y": node.local_top,
             "dominant-baseline": "text-before-edge"}
    attrs.update(_style_attrs(node.paint_props, "fill", "fontSize", "fontFamily"))
    body = esc(node.paint_props["content"])
    return _tag("text", attrs, fmt, esc, body=body)


def paint_connector(node, fmt, esc) -> str:
    segment = node.paint_props.get("segment")
    if segment is None:
        return ""  # degenerate: reported during layout, painted as nothing
    x1, y1, x2, y2 = segment
    attrs: dict[str, object] = {
        "d": f"M {fmt(x1)} {fmt(y1)} L {fmt(x2)} {fmt(y2)}",
        "fill": "none",
    }
    attrs.update(_stroke_attrs(node.paint_props))
    marker = node.paint_props.get("markerRef")
    if marker:
        attrs["marker-end"] = f"url(#{marker})"
    return _tag("path", attrs, fmt, esc)


def _tag(name: str, attrs: dict[str, object], fmt, esc, body: str | None = None) -> str:
    parts = [name]
    for key in sorted(attrs):
        value = attrs[key]
        text = fmt(value) if isinstance(value, float) else esc(str(value))
        parts.append(f'{key}="{text}"')
    open_tag = " ".join(parts)
    if body is None:
        return f"<{open_tag}/>"
    return f"<{open_tag}>{body}</{name}>"


# --- registry ------------------------------------------------------------------

_STYLE_TYPES = {
    "fill": "string", "stroke": "string", "strokeDasharray": "string",
    "fontFamily": "string", "content": "string", "d": "string",
    "alignment": "string", "direction": "string",
}


def _types(*names: str) -> dict[str, str]:
    return {n: _STYLE_TYPES.get(n, "number") for n in names}


def standard_kind_specs() -> list[ElementKindSpec]:
    stack_alignments = {
        Axis.VERTICAL: ("left", "centerX", "right"),
        Axis.HORIZONTAL: ("top", "centerY", "bottom"),
    }
    return [
        ElementKindSpec(
            kind="rect", is_mark=True,
            required_props=("width", "height"),
            optional_props={"fill": "black", "stroke": None, "strokeWidth": 1.0, "rx": 0.0},
            prop_types=_types("width", "height", "fill", "stroke", "strokeWidth", "rx"),
            nonnegative_props=frozenset({"width", "height", "rx", "strokeWidth"}),
            layout=layout_rect, paint=paint_rect),
        ElementKindSpec(
            kind="circle", is_mark=True,
            required_props=("r",),
            optional_props={"fill": None, "stroke": None, "strokeWidth": None},
            prop_types=_types("r", "fill", "stroke", "strokeWidth"),
            nonnegative_props=frozenset({"r", "strokeWidth"}),
            layout=layout_circle, paint=paint_circle),
        ElementKindSpec(
            kind="ellipse", is_mark=True,
            required_props=("rx", "ry"),
            optional_props={"fill": None, "stroke": None, "strokeWidth": None},
            prop_types=_types("rx", "ry", "fill", "stroke", "strokeWidth"),
            nonnegative_props=frozenset({"rx", "ry", "strokeWidth"}),
            layout=layout_ellipse, paint=paint_ellipse),
        ElementKindSpec(
            kind="path", is_mark=True,
            required_props=("d",),
            optional_props={"stroke": "black", "strokeWidth": 1.0,
                            "strokeDasharray": None, "fill": "none"},
            prop_types=_types("d", "stroke", "strokeWidth", "strokeDasharray", "fill"),
            nonnegative_props=frozenset({"strokeWidth"}),
            layout=layout_path, paint=paint_path),
        ElementKindSpec(
            kind="text", is_mark=True,
            required_props=("content",),
            optional_props={"fontSize": 16.0, "fontFamily": "sans-serif", "fill": "black"},
            prop_types=_types("content", "fontSize", "fontFamily", "fill"),
            positive_props=frozenset({"fontSize"}),
            layout=layout_text, paint=paint_text),
        ElementKindSpec(
            kind="group",
            layout=layout_group),
        ElementKindSpec(
            kind="stackV",
            optional_props={"spacing": 0.0, "alignment": "centerX"},
            prop_types=_types("spacing", "alignment"),
            enum_props={"alignment": stack_alignments[Axis.VERTICAL]},
            min_children=1,
            layout=_make_stack_layout(Axis.VERTICAL)),
        ElementKindSpec(
            kind="stackH",
            optional_props={"spacing": 0.0, "alignment": "centerY"},
            prop_types=_types("spacing", "alignment"),
            enum_props={"alignment": stack_alignments[Axis.HORIZONTAL]},
            min_children=1,
            layout=_make_stack_layout(Axis.HORIZONTAL)),
        ElementKindSpec(
            kind="align",
            required_props=("alignment",),
            prop_types=_types("alignment"),
            enum_props={"alignment": tuple(ALIGNMENT_FIELDS)},
            min_children=1,
            layout=layout_align),
        ElementKindSpec(
            kind="distribute",
            required_props=("direction", "spacing"),
            prop_types=_types("direction", "spacing"),
            enum_props={"direction": ("vertical", "horizontal")},
            min_children=2,
            layout=layout_distribute),
        ElementKindSpec(
            kind="background",
            optional_props={"padding": 10.0, "background": None},
            prop_types={**_types("padding"), "background": "element"},
            nonnegative_props=frozenset({"padding"}),
            min_children=1,
            layout=layout_background),
        ElementKindSpec(
            kind="arrow",
            optional_props={"stroke": "black", "strokeWidth": 1.5, "gap": 5.0},
            prop_types=_types("stroke", "strokeWidth", "gap"),
            nonnegative_props=frozenset({"strokeWidth", "gap"}),
            exact_children=2,
            layout=_make_connector_layout(arrow=True), paint=paint_connector),
        ElementKindSpec(
            kind="line",
            optional_props={"stroke": "black", "strokeWidth": 1.0,
                            "strokeDasharray": None, "gap": 0.0},
            prop_types=_types("stroke", "strokeWidth", "strokeDasharray", "gap"),
            nonnegative_props=frozenset({"strokeWidth", "gap"}),
            exact_children=2,
            layout=_make_connector_layout(arrow=False), paint=paint_connector),
        ElementKindSpec(kind="ref"),
    ]
