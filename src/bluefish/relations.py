"""The standard element kinds: marks and layout relations.

Every kind is described by an ElementKindSpec bundling its props, its
layout function, and its paint function. The engine runs a node's layout
function once, after it has laid out all of the node's children, so
layout functions never recurse: they size and place the finished
children (directly or through refs), then record the node's own box: a
start and an extent on each axis, covering the children's boxes, also
on an axis the relation places nothing on (``_cover``).

The anchor discipline is what lets one relation mesh with decisions made
by earlier ones. On each axis a relation first checks which participants
are already fixed (their translation on that axis has an owner). The
first fixed participant anchors the relation: stacks and distributes
anchor their cursor there and fill earlier slots backward, aligns adopt
its guideline. Remaining participants are placed relative to the anchor,
and every fixed participant must agree with its implied position within
tolerance or the two owners conflict; ``_place`` holds this rule. With
no fixed participant the relation lays out from 0 in its own frame,
exactly like a plain tree-based layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from .docformat import Element
from .errors import (
    DEGENERATE_CONNECTOR,
    WARNING,
    Diagnostic,
    DimensionConflict,
    InvalidKindSpec,
    UndefinedExtentError,
)
from .geometry import AXES, TOLERANCE, Axis, PathData

if TYPE_CHECKING:
    from .engine import LayoutRuntime
    from .scenegraph import LayoutNode

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


#: The types a prop may have.
PROP_TYPE_NAMES = ("number", "string", "path", "element")


@dataclass(frozen=True)
class ElementKindSpec:
    """Registry entry for one element kind."""

    kind: str
    required_props: tuple[str, ...] = ()
    optional_props: dict[str, object] = dc_field(default_factory=dict)
    # name -> number|string|path|element; an element-valued prop is a mark
    # the node sizes, built as its first child
    prop_types: dict[str, str] = dc_field(default_factory=dict)
    enum_props: dict[str, tuple[str, ...]] = dc_field(default_factory=dict)
    nonnegative_props: frozenset[str] = frozenset()
    positive_props: frozenset[str] = frozenset()
    is_mark: bool = False
    min_children: int | None = None
    exact_children: int | None = None
    # called as layout(rt, node, props) with node's LayoutNode once the
    # engine has laid out every child of it; it places those children
    # (rt.graph.target_of gives a child's record, through refs) and never
    # recurses
    layout: Callable[["LayoutRuntime", "LayoutNode", dict], None] | None = None
    # called as paint(node, fmt, esc, markers); returns the node's own
    # markup in scene coordinates, where node.content_box() is its box.
    # markers maps an arrowhead color to its marker id; a paint function
    # adds the colors it meets, and paint defines one marker each
    paint: Callable[..., str] | None = None
    expand: Callable[[dict, list], object] | None = None

    def check_facts(self) -> None:
        """Raise InvalidKindSpec where the spec's prop facts disagree.

        That is a type not in ``PROP_TYPE_NAMES``, a typed, enum or
        signed prop that is neither required nor optional, or a path
        default that is no path data.
        """
        declared = {*self.required_props, *self.optional_props}
        for facts in ("prop_types", "enum_props", "nonnegative_props", "positive_props"):
            stray = set(getattr(self, facts)) - declared
            if stray:
                raise InvalidKindSpec(
                    self.kind, f"{facts} names undeclared prop(s) {', '.join(sorted(map(repr, stray)))}")
        for prop, prop_type in self.prop_types.items():
            if prop_type not in PROP_TYPE_NAMES:
                raise InvalidKindSpec(
                    self.kind, f"prop {prop!r} has type {prop_type!r}, not one of {', '.join(PROP_TYPE_NAMES)}")
        self.default_props  # read here, so a bad path default fails at register

    # Facts derived from the fields above, each computed on first use.

    @cached_property
    def prop_checks(self) -> dict[str, tuple[str, tuple[str, ...] | None, bool, bool]]:
        """Each prop the kind takes -> (type, enum options or None, non-negative, positive)."""
        types, enums = self.prop_types, self.enum_props
        nonnegative, positive = self.nonnegative_props, self.positive_props
        return {prop: (types.get(prop, "number"), enums.get(prop), prop in nonnegative, prop in positive)
                for prop in (*self.required_props, *self.optional_props)}

    @cached_property
    def default_props(self) -> dict[str, object]:
        """The optional props that have a default, path data read into ``PathData``. Read it, never change it."""
        defaults = {k: v for k, v in self.optional_props.items() if v is not None}
        for prop, value in defaults.items():
            if self.prop_types.get(prop) == "path":
                try:
                    defaults[prop] = PathData.read(value)
                except ValueError as exc:
                    raise InvalidKindSpec(self.kind, f"default of path prop {prop!r}: {exc}") from None
        return defaults

    @cached_property
    def element_props(self) -> tuple[str, ...]:
        """The element-valued props: marks the node sizes, built as its first child."""
        return tuple(prop for prop, prop_type in self.prop_types.items() if prop_type == "element")

    @cached_property
    def path_props(self) -> tuple[str, ...]:
        """The path-typed props: data the build reads into ``PathData``."""
        return tuple(prop for prop, prop_type in self.prop_types.items() if prop_type == "path")

    @cached_property
    def sized_by_holder(self) -> bool:
        """A mark whose required props are all numbers: sizes its holder supplies."""
        return self.is_mark and all(
            self.prop_types.get(prop, "number") == "number" for prop in self.required_props)


# --- text metrics -------------------------------------------------------------


def measure_text(content: str, font_size: float) -> tuple[float, float]:
    """Deterministic text metrics independent of any font rasterizer.

    Width is 0.6 * fontSize per Unicode scalar value; height is
    1.2 * fontSize. Crude, but identical on every platform, which
    matters more here than typographic fidelity, so the font family
    plays no part.
    """
    if font_size <= 0:
        raise ValueError(f"fontSize must be positive, got {font_size!r}")
    return (0.6 * font_size * len(content), 1.2 * font_size)


# --- mark layout ----------------------------------------------------------------


def _mark_box(rt: "LayoutRuntime", node: LayoutNode, left: float, top: float,
              width: float | None, height: float | None) -> None:
    """Decide a mark's own box, one ``decide`` per field, the node owning each.

    A size of None stays undecided: a background's mark has no size props.
    """
    decide = rt.graph.decide
    decide(node, "left", left, node)
    decide(node, "top", top, node)
    if width is not None:
        decide(node, "width", width, node)
    if height is not None:
        decide(node, "height", height, node)


def layout_rect(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
    _mark_box(rt, node, 0.0, 0.0, props.get("width"), props.get("height"))


def layout_circle(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
    side = 2.0 * props["r"] if "r" in props else None
    _mark_box(rt, node, 0.0, 0.0, side, side)


def layout_ellipse(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
    _mark_box(rt, node, 0.0, 0.0, 2.0 * props["rx"] if "rx" in props else None,
              2.0 * props["ry"] if "ry" in props else None)


def layout_text(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
    _mark_box(rt, node, 0.0, 0.0, *measure_text(props["content"], props["fontSize"]))


def layout_path(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
    # the box tracks the drawn geometry, so it need not start at 0; path
    # data is read once, by the build or by the spec's default_props
    left, top, right, bottom = props["d"].box
    _mark_box(rt, node, left, top, right - left, bottom - top)


# --- relation helpers -----------------------------------------------------------


def _targets(rt: "LayoutRuntime", child_ids: list[str]) -> list[LayoutNode]:
    """Each child's record, a ref's referent in its place (``Scenegraph.target_of`` for every child)."""
    nodes = rt.graph.nodes
    targets = []
    for child in map(nodes.__getitem__, child_ids):
        targets.append(nodes[child.ref_id] if child.is_ref else child)
    return targets


def _extents(targets: list[LayoutNode], axis: Axis) -> list[float]:
    """Each target's extent on an axis; the first target with none is an UndefinedExtentError."""
    field_name = axis.extent_field
    extents = [getattr(t, field_name) for t in targets]
    if None in extents:
        raise UndefinedExtentError(targets[extents.index(None)].id, field_name)
    return extents


def _guideline_value(rt: "LayoutRuntime", target: LayoutNode, node: LayoutNode, axis: Axis,
                     field_name: str) -> float:
    (value,) = rt.graph.bbox_in_frame(target, node, axis, field_name)
    if value is None:
        raise UndefinedExtentError(target.id, field_name)
    return value


def _distribute(rt: "LayoutRuntime", node: LayoutNode, targets: list[LayoutNode], axis: Axis,
                spacing: float) -> None:
    """Pack targets along an axis with equal gaps, place them, and decide node's run there.

    The slots are 0, e0+spacing, ...; the run starts at ``_place``'s shift.
    """
    extents = _extents(targets, axis)
    slots = [0.0]
    for e in extents[:-1]:
        slots.append(slots[-1] + (e + spacing))
    origin = _place(rt, node, targets, axis, axis.start_field, slots)
    rt.graph.decide(node, axis.start_field, origin, node)
    rt.graph.decide(node, axis.extent_field, sum(extents) + spacing * (len(extents) - 1), node)


def _place(rt: "LayoutRuntime", node: LayoutNode, targets: list[LayoutNode], axis: Axis,
           field_name: str, slots: list[float]) -> float:
    """Put target *i*'s ``field_name`` at ``slots[i] + shift``; returns the shift.

    The shift is 0 in the relation's frame unless some target is already
    fixed on the axis. Then the first fixed target anchors it: the shift
    lands that target's slot where it already sits, so a packed run
    fills earlier slots backward and an align (all slots 0) adopts its
    guideline as the shift. Every fixed target, the anchor included,
    must sit at its implied value, or its owner and the relation conflict.
    """
    fixed = axis.transform_field
    shift = 0.0
    for t, slot in zip(targets, slots):
        if fixed in t.owners:
            shift = _guideline_value(rt, t, node, axis, field_name) - slot
            break
    for t, slot in zip(targets, slots):
        implied = slot + shift
        # tested again: placing an earlier target fixes each ancestor on its
        # leg, and a later target may be one of them
        if fixed in t.owners:
            actual = _guideline_value(rt, t, node, axis, field_name)
            if abs(actual - implied) > TOLERANCE:
                raise DimensionConflict(
                    t.id, field_name, t.owners[fixed], node.id,
                    existing_value=actual, value=implied)
        else:
            rt.graph.set_dim_in_frame(t, node, field_name, implied)
    return shift


def _union_boxes(rt: "LayoutRuntime", node: LayoutNode, targets: list[LayoutNode],
                 axis: Axis) -> tuple[float, float]:
    """(min start, max end) of targets' boxes on an axis, in node's frame.

    The reads pin each undecided translation on the way, owned by node
    (``bbox_in_frame``). A target with no box is an UndefinedExtentError.
    """
    lo = math.inf
    hi = -math.inf
    for t in targets:
        start, end = rt.graph.bbox_in_frame(t, node, axis, axis.start_field, axis.end_field)
        if end is None:
            raise UndefinedExtentError(t.id, axis.extent_field)
        lo = min(lo, start)
        hi = max(hi, end)
    return lo, hi


def _cover(rt: "LayoutRuntime", node: LayoutNode, targets: list[LayoutNode], axis: Axis) -> None:
    """Decide node's box on an axis as the span its targets' boxes cover in its frame.

    Unlike ``_union_boxes`` the reads pin nothing: an undecided
    translation reads 0 and stays undecided, so a later relation can
    still place that target through a ref. A target with no box is an
    UndefinedExtentError.
    """
    start_field, extent_field, translation = axis.start_field, axis.extent_field, axis.translation
    lo = math.inf
    hi = -math.inf
    for t in targets:
        extent = getattr(t, extent_field)
        if extent is None:
            raise UndefinedExtentError(t.id, extent_field)
        start = getattr(t, start_field)
        end = start + extent
        if t.parent == node.id:
            # the climb's first step, which reaches node (see Scenegraph.climb)
            v = getattr(t, translation)
            if v is None:
                v = 0.0
            start += v
            end += v
        else:
            chain, back, _ = rt.graph.climb(t, node, axis)
            for v in chain:
                start += v
                end += v
            start -= back
            end -= back
        lo = min(lo, start)
        hi = max(hi, end)
    rt.graph.decide(node, axis.start_field, lo, node)
    rt.graph.decide(node, axis.extent_field, hi - lo, node)


# --- relation layout -------------------------------------------------------------


def _stack_layout_for(main: Axis):
    def layout_stack(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
        targets = _targets(rt, node.children)
        cross = main.other
        cross_extents = _extents(targets, cross)
        field_name = props["alignment"]
        guideline = _place(rt, node, targets, cross, field_name, [0.0] * len(targets))
        _distribute(rt, node, targets, main, props["spacing"])
        cross_extent = max(cross_extents)
        rt.graph.decide(node, cross.start_field, guideline - cross.offset(field_name, cross_extent), node)
        rt.graph.decide(node, cross.extent_field, cross_extent, node)

    return layout_stack


def layout_align(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
    targets = _targets(rt, node.children)
    v_field, h_field = ALIGNMENT_FIELDS[props["alignment"]]
    for axis, field_name in ((Axis.VERTICAL, v_field), (Axis.HORIZONTAL, h_field)):
        # once placed, every translation between a target and node is
        # decided, so the covered span is the targets' union there too
        if field_name is not None:
            _place(rt, node, targets, axis, field_name, [0.0] * len(targets))
        _cover(rt, node, targets, axis)


def layout_distribute(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
    targets = _targets(rt, node.children)
    main = Axis.VERTICAL if props["direction"] == "vertical" else Axis.HORIZONTAL
    _distribute(rt, node, targets, main, props["spacing"])
    _cover(rt, node, targets, main.other)


def layout_group(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
    # unplaced children stay put: the union's frame reads default them to
    # 0; an empty group decides no box, so finalize reports it unsized
    del props
    targets = _targets(rt, node.children)
    if targets:
        for axis in AXES:
            lo, hi = _union_boxes(rt, node, targets, axis)
            rt.graph.decide(node, axis.start_field, lo, node)
            rt.graph.decide(node, axis.extent_field, hi - lo, node)


def layout_background(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
    mark_id, *rest = node.children  # build_scenegraph puts the mark first
    mark = rt.graph.nodes[mark_id]
    targets = _targets(rt, rest)
    padding = props["padding"]
    for axis in AXES:
        for t in targets:
            if axis.transform_field not in t.owners:
                rt.graph.set_dim_in_frame(t, node, axis.start_field, padding)
        lo, hi = _union_boxes(rt, node, targets, axis)
        extent = (hi - lo) + 2.0 * padding
        rt.graph.set_dim_in_frame(mark, node, axis.extent_field, extent)
        rt.graph.set_dim_in_frame(mark, node, axis.start_field, lo - padding)
        rt.graph.decide(node, axis.start_field, lo - padding, node)
        rt.graph.decide(node, axis.extent_field, extent, node)


def layout_connector(rt: "LayoutRuntime", node: LayoutNode, props: dict) -> None:
    targets = _targets(rt, node.children)
    boxes = []
    for t in targets:
        left, cx, right, w = rt.graph.bbox_in_frame(t, node, Axis.HORIZONTAL, *Axis.HORIZONTAL.fields)
        top, cy, bottom, h = rt.graph.bbox_in_frame(t, node, Axis.VERTICAL, *Axis.VERTICAL.fields)
        if w is None or h is None:
            raise UndefinedExtentError(t.id, "width" if w is None else "height")
        boxes.append((left, right, top, bottom, (cx, cy), (w, h)))
    (l1, r1, t1, b1, c1, e1), (l2, r2, t2, b2, c2, e2) = boxes
    lo_x, hi_x = min(l1, l2), max(r1, r2)
    lo_y, hi_y = min(t1, t2), max(b1, b2)
    decide = rt.graph.decide
    decide(node, "left", lo_x, node)
    decide(node, "width", hi_x - lo_x, node)
    decide(node, "top", lo_y, node)
    decide(node, "height", hi_y - lo_y, node)
    node.segment = _clip_segment(c1, e1, c2, e2, props["gap"])
    if node.segment is None:
        rt.warnings.append(Diagnostic(
            DEGENERATE_CONNECTOR,
            "connector endpoints leave no visible segment",
            (rt.graph.path(node.id),), severity=WARNING))


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


# Each paint function writes its node in scene coordinates: a mark's box
# is node.content_box(), as the dump's geometry spells it; a connector's
# segment and a path's data, as the document spells it, move by node.x/y.
# Each mark writes its attributes in alphabetical order, a style
# attribute only when its prop is set.


def _attr(name: str, value: object, fmt, esc) -> str:
    """`` name="value"``, nothing for an unset prop; a float is spelled by ``fmt``, anything else escaped."""
    if value is None:
        return ""
    return f' {name}="{fmt(value) if isinstance(value, float) else esc(str(value))}"'


def _stroke(props: dict, fmt, esc) -> str:
    # stroke-width and dash pattern are noise without a stroke
    stroke = props.get("stroke")
    if stroke is None:
        return ""
    return (_attr("stroke", stroke, fmt, esc)
            + _attr("stroke-dasharray", props.get("strokeDasharray"), fmt, esc)
            + _attr("stroke-width", props.get("strokeWidth"), fmt, esc))


def paint_rect(node, fmt, esc, markers) -> str:
    props = node.paint_props
    x, y, width, height = node.content_box()
    return (f'<rect{_attr("fill", props.get("fill"), fmt, esc)} height="{fmt(height)}"'
            f'{_attr("rx", props.get("rx", 0) or None, fmt, esc)}{_stroke(props, fmt, esc)}'
            f' width="{fmt(width)}" x="{fmt(x)}" y="{fmt(y)}"/>')


def paint_circle(node, fmt, esc, markers) -> str:
    props = node.paint_props
    x, y, width, height = node.content_box()
    return (f'<circle cx="{fmt(x + width / 2.0)}" cy="{fmt(y + height / 2.0)}"'
            f'{_attr("fill", props.get("fill"), fmt, esc)} r="{fmt(min(width, height) / 2.0)}"'
            f'{_stroke(props, fmt, esc)}/>')


def paint_ellipse(node, fmt, esc, markers) -> str:
    props = node.paint_props
    x, y, width, height = node.content_box()
    return (f'<ellipse cx="{fmt(x + width / 2.0)}" cy="{fmt(y + height / 2.0)}"'
            f'{_attr("fill", props.get("fill"), fmt, esc)}'
            f' rx="{fmt(width / 2.0)}" ry="{fmt(height / 2.0)}"{_stroke(props, fmt, esc)}/>')


def paint_path(node, fmt, esc, markers) -> str:
    props = node.paint_props
    x, y = fmt(node.x), fmt(node.y)
    shift = "" if x == y == "0" else f' transform="translate({x} {y})"'
    return (f'<path{_attr("d", props["d"], fmt, esc)}{_attr("fill", props.get("fill"), fmt, esc)}'
            f'{_stroke(props, fmt, esc)}{shift}/>')


def paint_text(node, fmt, esc, markers) -> str:
    props = node.paint_props
    x, y, _, _ = node.content_box()
    return (f'<text dominant-baseline="text-before-edge"{_attr("fill", props.get("fill"), fmt, esc)}'
            f'{_attr("font-family", props.get("fontFamily"), fmt, esc)}'
            f'{_attr("font-size", props.get("fontSize"), fmt, esc)}'
            f' x="{fmt(x)}" y="{fmt(y)}">{esc(props["content"])}</text>')


def _segment_data(node, fmt) -> str:
    x1, y1, x2, y2 = node.segment
    return f"M {fmt(node.x + x1)} {fmt(node.y + y1)} L {fmt(node.x + x2)} {fmt(node.y + y2)}"


def paint_line(node, fmt, esc, markers) -> str:
    if node.segment is None:
        return ""  # degenerate: reported during layout, painted as nothing
    return f'<path d="{_segment_data(node, fmt)}" fill="none"{_stroke(node.paint_props, fmt, esc)}/>'


def paint_arrow(node, fmt, esc, markers) -> str:
    if node.segment is None:
        return ""  # degenerate: no head either, so no marker
    # the head is filled with the stroke color; one marker per color
    color = str(node.paint_props.get("stroke") or "black")
    marker = markers.setdefault(color, f"arrowhead-{len(markers)}")
    return (f'<path d="{_segment_data(node, fmt)}" fill="none" marker-end="url(#{marker})"'
            f'{_stroke(node.paint_props, fmt, esc)}/>')


# --- registry ------------------------------------------------------------------

#: Each standard prop has one type and one sign in every kind that takes it.
_PROP_TYPES = {
    "width": "number", "height": "number", "r": "number", "rx": "number", "ry": "number",
    "strokeWidth": "number", "fontSize": "number", "spacing": "number",
    "padding": "number", "gap": "number",
    "fill": "string", "stroke": "string", "strokeDasharray": "string",
    "fontFamily": "string", "content": "string", "d": "path",
    "alignment": "string", "direction": "string",
    "background": "element",
}
_NONNEGATIVE_PROPS = frozenset({
    "width", "height", "r", "rx", "ry", "strokeWidth", "spacing", "padding", "gap"})
_POSITIVE_PROPS = frozenset({"fontSize"})


def _standard_spec(kind: str, required_props: tuple[str, ...] = (),
                   optional_props: dict[str, object] | None = None, **facts) -> ElementKindSpec:
    """A built-in kind whose props' types and signs come from the tables above."""
    optional_props = optional_props or {}
    names = (*required_props, *optional_props)
    return ElementKindSpec(
        kind=kind, required_props=required_props, optional_props=optional_props,
        prop_types={n: _PROP_TYPES[n] for n in names},
        nonnegative_props=_NONNEGATIVE_PROPS.intersection(names),
        positive_props=_POSITIVE_PROPS.intersection(names), **facts)


def standard_kind_specs() -> list[ElementKindSpec]:
    return [
        _standard_spec(
            "rect", ("width", "height"),
            {"fill": "black", "stroke": None, "strokeWidth": 1.0, "rx": 0.0},
            is_mark=True, layout=layout_rect, paint=paint_rect),
        _standard_spec(
            "circle", ("r",), {"fill": None, "stroke": None, "strokeWidth": None},
            is_mark=True, layout=layout_circle, paint=paint_circle),
        _standard_spec(
            "ellipse", ("rx", "ry"), {"fill": None, "stroke": None, "strokeWidth": None},
            is_mark=True, layout=layout_ellipse, paint=paint_ellipse),
        _standard_spec(
            "path", ("d",),
            {"stroke": "black", "strokeWidth": 1.0, "strokeDasharray": None, "fill": "none"},
            is_mark=True, layout=layout_path, paint=paint_path),
        _standard_spec(
            "text", ("content",),
            {"fontSize": 16.0, "fontFamily": "sans-serif", "fill": "black"},
            is_mark=True, layout=layout_text, paint=paint_text),
        _standard_spec("group", layout=layout_group),
        _standard_spec(
            "stackV", optional_props={"spacing": 0.0, "alignment": "centerX"},
            enum_props={"alignment": Axis.HORIZONTAL.position_fields},
            min_children=1, layout=_stack_layout_for(Axis.VERTICAL)),
        _standard_spec(
            "stackH", optional_props={"spacing": 0.0, "alignment": "centerY"},
            enum_props={"alignment": Axis.VERTICAL.position_fields},
            min_children=1, layout=_stack_layout_for(Axis.HORIZONTAL)),
        _standard_spec(
            "align", ("alignment",),
            enum_props={"alignment": tuple(ALIGNMENT_FIELDS)},
            min_children=1, layout=layout_align),
        _standard_spec(
            "distribute", ("direction", "spacing"),
            enum_props={"direction": ("vertical", "horizontal")},
            min_children=2, layout=layout_distribute),
        _standard_spec(
            "background",
            optional_props={"padding": 10.0, "background": Element(
                kind="rect", props={"fill": "none", "stroke": "black", "strokeWidth": 1.0})},
            min_children=1, layout=layout_background),
        _standard_spec(
            "arrow", optional_props={"stroke": "black", "strokeWidth": 1.5, "gap": 5.0},
            exact_children=2, layout=layout_connector, paint=paint_arrow),
        _standard_spec(
            "line",
            optional_props={"stroke": "black", "strokeWidth": 1.0,
                            "strokeDasharray": None, "gap": 0.0},
            exact_children=2, layout=layout_connector, paint=paint_line),
        _standard_spec("ref"),
    ]
