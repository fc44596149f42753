"""SVG output and the canonical scene dump.

Both serializers are pure functions of a resolved scene and are built
for byte determinism: numbers go through one fixed decimal formatter
(round half even, at most two fractional digits, no trailing zeros),
attributes are emitted in alphabetical order, and traversal is always
pre-order. Two runs over the same scene produce identical bytes on any
platform.
"""

from __future__ import annotations

from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal
from json.encoder import encode_basestring_ascii

from .errors import CallbackError
from .scenegraph import Scenegraph

SVG_NS = "http://www.w3.org/2000/svg"

# Enough significant digits for any finite float at two decimals
# (sys.float_info.max has 309 integer digits), so quantizing is always
# exact; the default 28-digit context fails from 1e26 up.
_QUANTIZE = Context(prec=320)
_CENTS = Decimal("0.01")


def _strip(text: str) -> str:
    # drop a trailing ".00" or "0"; "-0.00" is "0"
    text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def _quantize(value: float) -> Decimal:
    """The definition: ``repr(value)`` rounded half even to two fractional digits."""
    return Decimal(repr(value)).quantize(_CENTS, ROUND_HALF_EVEN, _QUANTIZE)


def fmt_num(value: float) -> str:
    """Fixed-point decimal for SVG attributes: 12.345 -> '12.34'.

    ``value * 100.0`` differs from the cents ``repr(value)`` spells by
    at most about 2.2e-16 of itself (half an ulp of ``value``, scaled,
    plus the product's own rounding). Where its fraction lies more than
    a billionth of itself from one half, both round to the same whole
    cents, and ``"%.2f"``, which rounds ``value`` exactly, writes them.
    Every other value, near a tie or from 1e13 up, takes the Decimal
    quantize of ``repr``.
    """
    if value.__class__ is not float:
        value = float(value)
    cents = value * 100.0
    if -1e15 < cents < 1e15 and abs(cents % 1.0 - 0.5) > 1e-9 * (1.0 + abs(cents)):
        return _strip("%.2f" % value)
    return _strip(format(_quantize(value), "f"))


class _Spelling(dict):
    """One writer's spelling of each number it meets: value -> ``fmt_num(value)``.

    A number is spelled on first use, so a repeat is one dict lookup.
    Equal numbers share an entry (``8`` and ``8.0``, ``0.0`` and
    ``-0.0``), and ``fmt_num`` spells them alike.
    """

    __slots__ = ()

    def __missing__(self, value: float) -> str:
        text = self[value] = fmt_num(value)
        return text


def _outward(start: float, extent: float) -> tuple[str, str]:
    """A span rounded outward to cents, as text: the start down, the far end up, so nothing is clipped."""
    low = Decimal(repr(start)).quantize(_CENTS, ROUND_FLOOR, _QUANTIZE)
    high = _QUANTIZE.add(Decimal(repr(start)), Decimal(repr(extent))).quantize(
        _CENTS, ROUND_CEILING, _QUANTIZE)
    return _strip(format(low, "f")), _strip(format(_QUANTIZE.subtract(high, low), "f"))


def esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def paint(scene: Scenegraph) -> bytes:
    """Serialize a finalized scene as SVG.

    The viewBox is the root's content box rounded outward to cents.
    Nodes paint in creation order, which is pre-order, each by its kind's
    paint function (from the registry that compiled the scene) in scene
    coordinates, where ``node.content_box()`` is its box: a mark spells
    the numbers of its dump ``geometry``. Each element takes one line and
    no group holds it, so bytes do not grow with depth. Refs emit nothing.
    Painting only reads the scene. Paint functions add the arrowhead
    colors they meet to ``markers``, defined in ``<defs>`` in front, and
    get this call's own spelling of numbers as ``fmt``. A paint function
    that raises anything makes ``paint`` raise ``CallbackError``.
    """
    nodes = scene.nodes
    fmt = _Spelling().__getitem__
    markers: dict[str, str] = {}
    left, top, width, height = nodes[scene.root].content_box()
    (vx, vw), (vy, vh) = _outward(left, width), _outward(top, height)
    lines = [f'<svg viewBox="{vx} {vy} {vw} {vh}" xmlns="{SVG_NS}">']
    kinds = scene.registry.kinds
    for node in nodes.values():
        paint_fn = None if node.is_ref else kinds[node.kind].paint
        if paint_fn is None:
            continue
        try:
            own = paint_fn(node, fmt, esc, markers)
        except Exception as exc:
            raise CallbackError(node.kind, "paint", scene.path(node.id), exc) from exc
        if own:
            lines.append(own)
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
    The form is compact: sorted keys, no whitespace, one line, the bytes
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` gives.

    It is written as text in one pass, each object's keys in that sorted
    order. Ids and owners are generated (``n<k>``) and need no escaping,
    and a resolved scene has a whole box and both translation owners on
    every layout node. Kinds and names are spelled by json's own string
    encoder, and every number by the dump's own spelling from
    ``fmt_num``, the function that spells the SVG's numbers: its
    fixed-point text is what json writes for the rounded value, an int
    when it is whole. A mark's ``geometry`` entry is written as the node
    pass meets it, since marks are listed in scene order.
    """
    text = encode_basestring_ascii
    num = _Spelling().__getitem__
    kinds = scene.registry.kinds
    out: list[str] = []
    geometry: list[str] = []
    for node in scene.nodes.values():
        if node.is_ref:
            out.append(f'{{"id":"{node.id}","kind":"ref","refId":"{node.ref_id}"}}')
            continue
        owners = node.owners
        children = '"' + '","'.join(node.children) + '"' if node.children else ""
        name = "" if node.name is None else f',"name":{text(node.name)}'
        kind = text(node.kind)
        width, height = num(node.width), num(node.height)
        out.append(
            f'{{"bboxOwners":{{"height":"{owners["height"]}","left":"{owners["left"]}",'
            f'"top":"{owners["top"]}","width":"{owners["width"]}"}},"children":[{children}],'
            f'"height":{height},"id":"{node.id}","kind":{kind}{name},'
            f'"transform":{{"x":{num(node.tx)},"y":{num(node.ty)}}},'
            f'"transformOwners":{{"x":"{owners["transform.x"]}","y":"{owners["transform.y"]}"}},'
            f'"width":{width},"x":{num(node.x)},"y":{num(node.y)}}}')
        if kinds[node.kind].is_mark:
            x, y, _, _ = node.content_box()
            geometry.append(
                f'{{"height":{height},"kind":{kind},"width":{width},"x":{num(x)},"y":{num(y)}}}')
    return (f'{{"geometry":[{",".join(geometry)}],"nodes":[{",".join(out)}],'
            f'"root":"{scene.root}"}}\n').encode("utf-8")
