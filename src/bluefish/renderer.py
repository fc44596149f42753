"""SVG output and the canonical scene dump.

Both serializers are pure functions of a resolved scene and are built
for byte determinism: numbers go through one fixed decimal formatter
(round half even, at most two fractional digits, no trailing zeros),
attributes are emitted in alphabetical order, and traversal is always
pre-order. Two runs over the same scene produce identical bytes on any
platform.
"""

from __future__ import annotations

import json
from decimal import ROUND_CEILING, ROUND_HALF_EVEN, Context, Decimal

from .scenegraph import ResolvedScene

SVG_NS = "http://www.w3.org/2000/svg"

# Enough significant digits for any finite float at two decimals
# (sys.float_info.max has 309 integer digits), so quantizing is always
# exact; the default 28-digit context fails from 1e26 up.
_QUANTIZE = Context(prec=320)
_CENTS = Decimal("0.01")


def _strip(q: Decimal) -> str:
    text = format(q, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def fmt_num(value: float) -> str:
    """Fixed-point decimal for SVG attributes: 12.345 -> '12.34'."""
    q = Decimal(repr(float(value))).quantize(_CENTS, ROUND_HALF_EVEN, _QUANTIZE)
    return _strip(q)


def _ceil2(value: float) -> str:
    # document size rounds up so content is never clipped
    q = Decimal(repr(float(value))).quantize(_CENTS, ROUND_CEILING, _QUANTIZE)
    return _strip(q)


def _round2(value: float) -> float | int:
    q = Decimal(repr(float(value))).quantize(_CENTS, ROUND_HALF_EVEN, _QUANTIZE)
    f = float(q)
    return int(f) if f.is_integer() else f


def esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _marker_defs(scene: ResolvedScene) -> dict[str, str]:
    """Assign one arrowhead marker per stroke color, first seen first.

    The assignment is stored on each arrow's paint props as markerRef;
    repeat calls see the refs already present and reproduce them.
    """
    markers: dict[str, str] = {}
    for nid in scene.order:
        node = scene[nid]
        if node.paint_props.get("arrow") and node.paint_props.get("segment") is not None:
            color = str(node.paint_props.get("stroke") or "black")
            ref = markers.setdefault(color, f"arrowhead-{len(markers)}")
            node.paint_props["markerRef"] = ref
    return markers


def paint(scene: ResolvedScene, registry=None) -> bytes:
    """Serialize a finalized scene as SVG.

    The root's content box is shifted to start at (0, 0) and sets the
    viewBox; every node becomes a translated group around its own markup
    (painted by its kind's paint function) and its children, pre-order.
    Identity translations are elided. Refs emit nothing: the referent
    already paints at its own position in the hierarchy.
    """
    if registry is None:
        from .engine import standard_registry

        registry = standard_registry()
    root = scene[scene.root]
    markers = _marker_defs(scene)
    lines = [f'<svg viewBox="0 0 {_ceil2(root.width)} {_ceil2(root.height)}" xmlns="{SVG_NS}">']
    if markers:
        lines.append("  <defs>")
        for color, ref in markers.items():
            lines.append(
                f'    <marker id="{ref}" markerHeight="4" markerUnits="strokeWidth"'
                f' markerWidth="4" orient="auto" refX="4" refY="2" viewBox="0 0 4 4">'
                f'<path d="M 0 0 L 4 2 L 0 4 Z" fill="{esc(color)}"/></marker>')
        lines.append("  </defs>")

    def emit(nid: str, indent: int, transform: tuple[float, float] | None = None) -> None:
        node = scene[nid]
        if node.is_ref:
            return
        spec = registry.kinds.get(node.kind)
        own = spec.paint(node, fmt_num, esc) if spec is not None and spec.paint is not None else ""
        tx, ty = transform if transform is not None else node.transform
        sx, sy = fmt_num(tx), fmt_num(ty)
        wrap = sx != "0" or sy != "0"
        pad = "  " * indent
        inner = indent + 1 if wrap else indent
        if wrap:
            lines.append(f'{pad}<g transform="translate({sx} {sy})">')
        if own:
            lines.append("  " * inner + own)
        for child in node.children:
            emit(child, inner)
        if wrap:
            lines.append(f"{pad}</g>")

    # the root has no parent, so replacing its translation pins the
    # content box's top-left corner to the viewBox origin
    emit(scene.root, 1, transform=(
        -(root.local_left or 0.0), -(root.local_top or 0.0)))
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def dump_scene(scene: ResolvedScene) -> bytes:
    """Canonical JSON form of a resolved scene.

    ``nodes`` lists every node pre-order with absolute frame origin,
    extents, translation, and owner maps; refs appear as edges. The
    ``geometry`` section repeats just the marks' absolute content boxes,
    which is the part equivalent documents must agree on byte for byte.
    """
    nodes: list[dict] = []
    for nid in scene.order:
        node = scene[nid]
        if node.is_ref:
            nodes.append({"id": nid, "kind": "ref", "refId": node.ref_id})
            continue
        entry: dict[str, object] = {
            "id": nid,
            "kind": node.kind,
            "x": _round2(node.x),
            "y": _round2(node.y),
            "width": _round2(node.width),
            "height": _round2(node.height),
            "transform": {"x": _round2(node.transform[0]), "y": _round2(node.transform[1])},
            "bboxOwners": node.bbox_owners,
            "transformOwners": node.transform_owners,
            "children": list(node.children),
        }
        if node.name is not None:
            entry["name"] = node.name
        nodes.append(entry)
    geometry = []
    for mark in scene.marks():
        left, top, width, height = mark.content_box()
        geometry.append({
            "kind": mark.kind,
            "x": _round2(left),
            "y": _round2(top),
            "width": _round2(width),
            "height": _round2(height),
        })
    doc = {"root": scene.root, "geometry": geometry, "nodes": nodes}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
