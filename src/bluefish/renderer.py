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

from .scenegraph import Scenegraph

SVG_NS = "http://www.w3.org/2000/svg"

# Enough significant digits for any finite float at two decimals
# (sys.float_info.max has 309 integer digits), so quantizing is always
# exact; the default 28-digit context fails from 1e26 up.
_QUANTIZE = Context(prec=320)
_CENTS = Decimal("0.01")


def _strip(text: str) -> str:
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def _cents(value: float) -> float | Decimal:
    """``repr(value)`` rounded half even to two fractional digits.

    Decimal decides only exponent forms and exact ties such as ``2.675``.
    Elsewhere a repr with at most two fractional digits is already the
    answer, and a longer one rounds as ``round`` rounds the float itself:
    a cents boundary between the float and its repr would be a shorter or
    closer round-tripping string, so repr would have printed it.
    """
    text = repr(value)
    if "e" not in text:
        digits = len(text) - text.index(".") - 1
        if digits <= 2:
            return value
        if digits > 3 or text[-1] != "5":
            return round(value, 2)
    return Decimal(text).quantize(_CENTS, ROUND_HALF_EVEN, _QUANTIZE)


def fmt_num(value: float) -> str:
    """Fixed-point decimal for SVG attributes: 12.345 -> '12.34'."""
    q = _cents(float(value))
    return _strip(repr(q) if type(q) is float else format(q, "f"))


def _ceil2(value: float) -> str:
    # document size rounds up so content is never clipped
    q = Decimal(repr(float(value))).quantize(_CENTS, ROUND_CEILING, _QUANTIZE)
    return _strip(format(q, "f"))


def _round2(value: float) -> float | int:
    q = _cents(float(value))
    f = float(q)
    # a whole value keeps the digits the SVG writes: int(1e30) would be
    # the float's binary value, 1000000000000000019884624838656
    return int(q) if f.is_integer() else f


def esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def paint(scene: Scenegraph) -> bytes:
    """Serialize a finalized scene as SVG.

    The root's content box is shifted to start at (0, 0) and sets the
    viewBox; every node becomes a translated group around its own markup
    (painted by its kind's paint function, from the registry that compiled
    the scene) and its children, pre-order.
    Identity translations are elided. Refs emit nothing: the referent
    already paints at its own position in the hierarchy. Painting only
    reads the scene. Each element takes one unindented line, so bytes do
    not grow with depth, and the walk keeps its own stack, so neither
    does the call stack. Paint functions add the arrowhead colors they
    meet to ``markers``; their ``<defs>`` go in front once the walk is done.
    """
    nodes = scene.nodes
    root = nodes[scene.root]
    markers: dict[str, str] = {}
    lines = [f'<svg viewBox="0 0 {_ceil2(root.width)} {_ceil2(root.height)}" xmlns="{SVG_NS}">']
    # the root has no parent, so replacing its translation pins the
    # content box's top-left corner to the viewBox origin
    shift = (-(root.local_left or 0.0), -(root.local_top or 0.0))
    kinds = scene.registry.kinds
    stack: list[str | None] = [scene.root]  # None closes a group
    while stack:
        nid = stack.pop()
        if nid is None:
            lines.append("</g>")
            continue
        node = nodes[nid]
        if node.is_ref:
            continue
        tx, ty = shift if node is root else (node.transform.x, node.transform.y)
        sx, sy = fmt_num(tx), fmt_num(ty)
        if sx != "0" or sy != "0":
            lines.append(f'<g transform="translate({sx} {sy})">')
            stack.append(None)
        spec = kinds[node.kind]
        own = spec.paint(node, fmt_num, esc, markers) if spec.paint is not None else ""
        if own:
            lines.append(own)
        stack.extend(reversed(node.children))
    if markers:
        lines[1:1] = ["<defs>", *(
            f'<marker id="{ref}" markerHeight="4" markerUnits="strokeWidth"'
            f' markerWidth="4" orient="auto" refX="4" refY="2" viewBox="0 0 4 4">'
            f'<path d="M 0 0 L 4 2 L 0 4 Z" fill="{esc(color)}"/></marker>'
            for color, ref in markers.items()), "</defs>"]
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def dump_scene(scene: Scenegraph) -> bytes:
    """Canonical JSON form of a resolved scene.

    ``nodes`` lists every node in scene order with absolute frame origin,
    extents, translation, and owner maps; refs appear as edges. The
    ``geometry`` section repeats just the marks' absolute content boxes,
    which is the part equivalent documents must agree on byte for byte.
    The form is compact (sorted keys, no whitespace, one line), which
    json's C encoder writes; any indent would send it to the Python one.
    """
    nodes: list[dict] = []
    for node in scene.nodes.values():
        if node.is_ref:
            nodes.append({"id": node.id, "kind": "ref", "refId": node.ref_id})
            continue
        entry: dict[str, object] = {
            "id": node.id,
            "kind": node.kind,
            "x": _round2(node.x),
            "y": _round2(node.y),
            "width": _round2(node.width),
            "height": _round2(node.height),
            "transform": {"x": _round2(node.transform.x), "y": _round2(node.transform.y)},
            "bboxOwners": node.bbox_owners,
            "transformOwners": node.transform_owners,
            "children": node.children,
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
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
