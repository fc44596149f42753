"""Seeded document generators for the compile benchmark.

The generators are the benchmark's own, so an edit to the CLI or to the
test helpers cannot change what is measured. Every document comes out as
a plain dict in the JSON input shape, in its "ref form": relations may
reach elements through ``ref`` children. ``nested_twin`` rewrites a ref
form into an equivalent ref-free document that the tree-walk oracle in
``tests/oracles.py`` can lay out on its own.

Ref forms use two patterns only, both with a known nested twin:

* a block: a named group ``G[c0, ..., ck, R(ref c0, ..., ref ck)]`` where
  ``R`` is a stack or a background. It lays out exactly like ``R[c0..ck]``.
* a connector whose two children are refs, as a child of a group that
  contains both targets. It adds no mark and does not move anything, so
  the twin drops it.

Document sizes come from a golden-ratio sequence with a seeded offset:
every prefix of the stream covers the size range evenly, so the order
statistics of a run (median, tail, largest document) vary little from
seed to seed while every document is still drawn from the seed.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

MARK_KINDS = ("rect", "circle", "ellipse", "text", "path")
# kinds whose own box has a position on both axes, so arrows can attach to them
FULL_BOX_KINDS = frozenset({*MARK_KINDS, "stackV", "stackH", "background", "arrow", "line"})
CONTAINER_KINDS = frozenset({"stackV", "stackH", "align", "distribute", "group", "background"})
PLANTED_CODES = ("BF001", "BF002", "BF003", "BF005", "BF007", "BF011")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_FILLS = ("#4c78a8", "#f58518", "#e45756", "#72b7b2", "#54a24b", "#eeca3b", "white", "none")
_V_ALIGN = ("left", "centerX", "right")
_H_ALIGN = ("top", "centerY", "bottom")
_ALIGNMENTS = (
    "topLeft", "top", "topRight", "left", "center", "right",
    "bottomLeft", "bottom", "bottomRight", "centerX", "centerY",
    "centerLeft", "centerRight", "topCenter", "bottomCenter",
)
# (kind, weight) for an element that may or must have a placed box
_ANY_WEIGHTS = (("stackV", 3), ("stackH", 3), ("align", 2), ("distribute", 1),
                ("group", 1), ("background", 2), ("arrow", 1), ("line", 1), ("block", 3))
_PLACED_WEIGHTS = (("stackV", 3), ("stackH", 3), ("background", 2), ("block", 3))


def quasi_sizes(rng: random.Random, lo: int, hi: int):
    """Endless log-uniform sizes in [lo, hi] from a golden-ratio sequence."""
    offset = rng.random()
    i = 0
    while True:
        u = (offset + i * GOLDEN) % 1.0
        yield int(round(lo * (hi / lo) ** u))
        i += 1


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 2)


def _pick(rng: random.Random, weights) -> str:
    total = sum(w for _, w in weights)
    x = rng.random() * total
    for kind, w in weights:
        x -= w
        if x < 0:
            return kind
    return weights[-1][0]


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` positive shares at random."""
    if parts <= 1:
        return [max(1, total)]
    if total <= parts:
        return [1] * parts
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0, *cuts, total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def selector_json(selector: list[str]):
    return selector[0] if len(selector) == 1 else list(selector)


class Builder:
    """Draws marks, relations and blocks; remembers names that arrows may target."""

    def __init__(self, rng: random.Random, refs: bool = True, name_share: float = 0.15):
        self.rng = rng
        self.serial = 0
        self.refs = refs
        self.name_share = name_share
        self.targets: list[list[str]] = []  # selectors of named elements with a full box

    def fresh(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"

    # --- marks -------------------------------------------------------------------

    def mark(self, kind: str | None = None) -> dict:
        rng = self.rng
        kind = kind or rng.choice(MARK_KINDS)
        props: dict = {}
        if kind == "rect":
            props = {"width": _num(rng, 2.0, 40.0), "height": _num(rng, 2.0, 40.0)}
            if rng.random() < 0.5:
                props["fill"] = rng.choice(_FILLS)
            if rng.random() < 0.3:
                props["stroke"] = "black"
                props["strokeWidth"] = _num(rng, 0.5, 3.0)
            if rng.random() < 0.2:
                props["rx"] = _num(rng, 0.0, 5.0)
        elif kind == "circle":
            props = {"r": _num(rng, 1.0, 20.0)}
            if rng.random() < 0.5:
                props["fill"] = rng.choice(_FILLS)
        elif kind == "ellipse":
            props = {"rx": _num(rng, 1.0, 20.0), "ry": _num(rng, 1.0, 20.0)}
            if rng.random() < 0.3:
                props["stroke"] = rng.choice(_FILLS)
        elif kind == "text":
            props = {"content": "".join(rng.choice(_LETTERS) for _ in range(rng.randint(1, 10)))}
            if rng.random() < 0.7:
                props["fontSize"] = _num(rng, 8.0, 24.0)
        else:
            points = [(_num(rng, -30.0, 60.0), _num(rng, -30.0, 60.0))
                      for _ in range(rng.randint(2, 5))]
            props = {"d": f"M {points[0][0]} {points[0][1]}" + "".join(
                f" L {x} {y}" for x, y in points[1:])}
            if rng.random() < 0.3:
                props["strokeWidth"] = _num(rng, 0.5, 3.0)
        el = {"kind": kind, "props": props}
        self._maybe_name(el)
        return el

    def _maybe_name(self, el: dict) -> None:
        if self.refs and el["kind"] in FULL_BOX_KINDS and self.rng.random() < self.name_share:
            el["name"] = self.fresh("u")
            self.targets.append([el["name"]])

    # --- relations -----------------------------------------------------------------

    def element(self, budget: int, depth: int, placed: bool = False) -> dict:
        """A random element in ref form using about ``budget`` scenegraph nodes."""
        rng = self.rng
        if budget < 3 or depth <= 0:
            return self.mark()
        weights = _PLACED_WEIGHTS if placed else _ANY_WEIGHTS
        if not self.refs:
            weights = tuple((k, w) for k, w in weights if k != "block")
        kind = _pick(rng, weights)
        if kind == "block":
            return self.block(budget, depth)
        if kind in ("arrow", "line"):
            budgets = _split(rng, budget - 1, 2)
            el = {"kind": kind, "children": [self.element(b, depth - 1, placed=True) for b in budgets]}
            if rng.random() < 0.5:
                el["props"] = {"gap": _num(rng, 0.0, 6.0)}
            self._maybe_name(el)
            return el
        own = 2 if kind == "background" else 1
        low = 2 if kind == "distribute" else 1
        count = rng.randint(low, max(low, min(budget - own, 8)))
        budgets = _split(rng, budget - own, count)
        child_placed = kind == "background"
        el: dict = {"kind": kind, "children": [
            self.element(b, depth - 1, placed=child_placed) for b in budgets]}
        props = self._relation_props(kind)
        if props:
            el["props"] = props
        self._maybe_name(el)
        return el

    def _relation_props(self, kind: str) -> dict:
        rng = self.rng
        props: dict = {}
        if kind in ("stackV", "stackH"):
            if rng.random() < 0.8:
                props["spacing"] = _num(rng, 0.0, 20.0)
            if rng.random() < 0.8:
                props["alignment"] = rng.choice(_V_ALIGN if kind == "stackV" else _H_ALIGN)
        elif kind == "align":
            props["alignment"] = rng.choice(_ALIGNMENTS)
        elif kind == "distribute":
            props["direction"] = rng.choice(("vertical", "horizontal"))
            props["spacing"] = _num(rng, 0.0, 20.0)
        elif kind == "background":
            if rng.random() < 0.7:
                props["padding"] = _num(rng, 0.0, 12.0)
            if rng.random() < 0.4:
                mark: dict = {"fill": rng.choice(_FILLS), "stroke": "black"}
                if rng.random() < 0.5:
                    mark["rx"] = _num(rng, 0.0, 6.0)
                props["background"] = {"kind": "rect", "props": mark}
        return props

    def block(self, budget: int, depth: int, kind: str | None = None,
              children: list[dict] | None = None) -> dict:
        """A named group whose last child lays out the others through refs."""
        rng = self.rng
        kind = kind or rng.choice(("stackV", "stackH", "stackV", "stackH", "background"))
        if children is None:
            low = 1 if kind == "background" else 2
            count = rng.randint(low, max(low, min((budget - 2) // 2, 5)))
            budgets = _split(rng, max(count, budget - 2 - count), count)
            children = [self.element(b, depth - 1, placed=kind == "background") for b in budgets]
        gname = self.fresh("g")
        path_style = rng.random() < 0.5
        refs = []
        for i, child in enumerate(children):
            if "name" not in child:
                if path_style:
                    child["name"] = f"c{i}"
                else:
                    child["name"] = self.fresh("u")
            if path_style or child["name"].startswith("c"):
                selector = [gname, child["name"]]
            else:
                selector = [child["name"]]
            if child["name"].startswith("c") and child["kind"] in FULL_BOX_KINDS:
                self.targets.append(selector)
            refs.append({"kind": "ref", "select": selector_json(selector)})
        relation: dict = {"kind": kind, "children": refs}
        props = self._relation_props(kind)
        if props:
            relation["props"] = props
        self.targets.append([gname])
        return {"kind": "group", "name": gname, "children": [*children, relation]}

    def connectors(self, count: int, pool: list[list[str]] | None = None,
                   across: list[list[list[str]]] | None = None) -> list[dict]:
        """Top-level arrows and lines between named elements, through refs."""
        rng = self.rng
        out = []
        for _ in range(count):
            if across is not None:
                first, second = rng.sample(across, 2)
                a, b = rng.choice(first), rng.choice(second)
            else:
                a, b = rng.sample(pool if pool is not None else self.targets, 2)
            kind = "arrow" if rng.random() < 0.7 else "line"
            el = {"kind": kind, "children": [
                {"kind": "ref", "select": selector_json(a)},
                {"kind": "ref", "select": selector_json(b)}]}
            if rng.random() < 0.4:
                el["props"] = {"stroke": rng.choice(_FILLS[:6])}
            out.append(el)
        return out


def count_nodes(root: dict) -> int:
    """Scenegraph nodes the compiler makes: every element plus one per background mark."""
    return shape(root)[1]


def shape(root: dict) -> tuple[int, int, int, bool]:
    """(elements, scenegraph nodes, element depth, has refs), without recursion."""
    elements = nodes = deepest = 0
    refs = False
    stack = [(root, 1)]
    while stack:
        el, depth = stack.pop()
        elements += 1
        nodes += 2 if el["kind"] == "background" else 1
        deepest = max(deepest, depth)
        refs = refs or el["kind"] == "ref"
        stack.extend((c, depth + 1) for c in el.get("children", ()))
    return elements, nodes, deepest, refs


def encode(root: dict) -> bytes:
    return json.dumps({"bluefish": 1, "root": root}, separators=(",", ":")).encode("utf-8")


# --- nested twins -----------------------------------------------------------------------


def _selects(ref: dict, block: str, child: dict) -> bool:
    select = ref.get("select")
    path = [select] if isinstance(select, str) else select
    return path in ([child.get("name")], [block, child.get("name")])


def is_block(el: dict) -> bool:
    children = el.get("children", ())
    if el["kind"] != "group" or "name" not in el or len(children) < 2:
        return False
    relation = children[-1]
    refs = relation.get("children", ())
    return (relation["kind"] in ("stackV", "stackH", "background")
            and len(refs) == len(children) - 1
            and all(r["kind"] == "ref" and _selects(r, el["name"], c)
                    for r, c in zip(refs, children)))


def is_ref_connector(el: dict) -> bool:
    children = el.get("children", ())
    return bool(children) and all(c["kind"] == "ref" for c in children)


def nested_twin(el: dict) -> dict:
    """The ref-free document that lays out like ``el``.

    Blocks become their relation over the block's own children, and
    relations over refs only (connectors between named elements) are
    dropped. Any other ref raises ValueError: the benchmark only emits
    the two patterns it can rewrite.
    """
    if el["kind"] == "ref":
        raise ValueError(f"ref outside a known pattern: {el.get('select')!r}")
    # copies: the editor keeps mutating the ref form after the twin is taken
    twin = {k: dict(v) if k == "props" else v for k, v in el.items()
            if k not in ("children", "name")}
    children = el.get("children")
    if children is None:
        return twin
    if is_block(el):
        relation = children[-1]
        twin = {k: dict(v) if k == "props" else v for k, v in relation.items() if k != "children"}
        twin["children"] = [nested_twin(c) for c in children[:-1]]
        twin["_from_block"] = True
        return twin
    twin["children"] = [nested_twin(c) for c in children if not is_ref_connector(c)]
    return twin


# --- planted errors ------------------------------------------------------------------------


def plant_error(root: dict, code: str, b: Builder) -> dict:
    """Return a copy of ``root`` (a group) carrying exactly one error with ``code``.

    Each error comes with the few elements it needs, appended after the
    document's own content, so the diagnostic does not depend on what
    the random part of the document happens to contain.
    """
    children = list(root["children"])
    if code == "BF001":
        # stackV puts c1 below c0; aligning their tops afterwards conflicts
        block = b.block(0, 1, kind="stackV", children=[b.mark("rect"), b.mark("rect")])
        refs = block["children"][-1]["children"]
        children += [block, {"kind": "align", "props": {"alignment": "top"},
                             "children": [dict(r) for r in refs]}]
    elif code == "BF002":
        anchor = {"kind": "rect", "name": b.fresh("u"), "props": {"width": 5, "height": 5}}
        children += [anchor, {"kind": "line", "children": [
            {"kind": "ref", "select": anchor["name"]},
            {"kind": "ref", "select": b.fresh("missing")}]}]
    elif code == "BF003":
        late = b.fresh("late")
        children.insert(0, {"kind": "stackV", "children": [{"kind": "ref", "select": late}]})
        children.append({"kind": "circle", "name": late, "props": {"r": 4}})
    elif code == "BF005":
        name = b.fresh("amb")
        scopes = [b.fresh("d"), b.fresh("d")]
        for scope in scopes:
            children.append({"kind": "group", "name": scope, "children": [
                {"kind": "rect", "name": name, "props": {"width": 6, "height": 3}}]})
        children.append({"kind": "line", "children": [
            {"kind": "ref", "select": name},
            {"kind": "ref", "select": [scopes[0], name]}]})
    elif code == "BF007":
        children.append({"kind": "circle", "props": {"r": -3}})
    elif code == "BF011":
        name = b.fresh("dup")
        children += [{"kind": "rect", "name": name, "props": {"width": 4, "height": 4}},
                     {"kind": "ellipse", "name": name, "props": {"rx": 2, "ry": 3}}]
    else:
        raise ValueError(f"cannot plant {code}")
    return {**root, "children": children}


# --- element identity between versions ---------------------------------------------------


def signatures(root: dict) -> Counter:
    """Multiset of elements by their own content (kind, name, props, select, arity)."""
    out: Counter = Counter()
    stack = [root]
    while stack:
        el = stack.pop()
        children = el.get("children", ())
        out[(el["kind"], el.get("name"), json.dumps(el.get("props"), sort_keys=True),
             json.dumps(el.get("select")), len(children))] += 1
        stack.extend(children)
    return out


def unchanged_share(previous: Counter | None, current: Counter) -> float | None:
    if previous is None:
        return None
    same = sum((previous & current).values())
    return same / sum(current.values())


# --- deep chains ----------------------------------------------------------------------------


def chain(b: Builder, levels: int) -> dict:
    """A chain ``levels`` relations deep, built bottom-up without recursion.

    Each level wraps the level below together with one mark, in a stack,
    a background, or a block that stacks the two through refs.
    """
    rng = b.rng
    inner = b.mark()
    for _ in range(levels):
        side = b.mark()
        kind = rng.choice(("stackV", "stackH", "stackV", "stackH", "background", "block"))
        if kind == "block":
            pair = [side, inner] if rng.random() < 0.5 else [inner, side]
            inner = b.block(0, 1, kind=rng.choice(("stackV", "stackH")), children=pair)
            continue
        inner = {"kind": kind, "children": [side, inner]}
        props = b._relation_props(kind)
        if props:
            inner["props"] = props
    return inner
