"""Correctness checks against references that do not come from the compiler.

Mark boxes are checked against the plain tree-walk oracle in
``tests/oracles.py``, run on the document's ref-free twin. Planted-error
documents must yield exactly their planted code and no scene. Node counts
are checked against the generator's own count.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

# the dump rounds to two decimals (half even), so a box field may sit
# up to half a cent from the oracle's exact value
_TOLERANCE = 0.005 + 1e-6


def load_oracles(repo: Path):
    path = repo / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    if spec is None or spec.loader is None or not path.is_file():
        raise FileNotFoundError(f"oracle module not found at {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _ref_form_marks(node, twin: dict, ox: float, oy: float, out: list) -> None:
    """Like ``oracles.walk_marks``, in the paint order of the ref form.

    A background written as a block paints its children before its own
    mark, because its relation comes after them in the block.
    """
    if node.mark is not None:
        ml, mt, mw, mh = node.mark
        out.append((node.kind, ox + ml, oy + mt, mw, mh))
    parts = list(zip(node.children, twin.get("children", [])))
    if twin["kind"] == "background":
        mark = (node.children[0], {"kind": "rect"})
        parts = list(zip(node.children[1:], twin["children"]))
        parts = parts + [mark] if twin.get("_from_block") else [mark] + parts
    for (cx, cy, child), el in parts:
        _ref_form_marks(child, el, ox + cx, oy + cy, out)


def expected_marks(oracles, doc) -> tuple[list, tuple[float, float]]:
    """Oracle mark boxes in paint order, and the root's extents."""
    walked = oracles.tree_walk(doc.twin)
    if doc.ref_free:
        marks = oracles.walk_marks(walked)
    else:
        marks = []
        _ref_form_marks(walked, doc.twin, 0.0, 0.0, marks)
    return marks, (walked.x[1], walked.y[1])


def check_scene(oracles, doc, scene_nodes: int, svg: bytes, dump: bytes) -> str | None:
    """None when an accepted document's outputs match the references."""
    if scene_nodes != doc.nodes:
        return f"scene has {scene_nodes} nodes, the document has {doc.nodes}"
    if not (svg.startswith(b"<svg viewBox=") and svg.endswith(b"</svg>\n")):
        return "SVG output is not a complete svg element"
    expected, (width, height) = expected_marks(oracles, doc)
    got = json.loads(dump)
    geometry = got["geometry"]
    if len(geometry) != len(expected):
        return f"dump has {len(geometry)} marks, the oracle {len(expected)}"
    for i, (g, e) in enumerate(zip(geometry, expected)):
        box = (g["x"], g["y"], g["width"], g["height"])
        if g["kind"] != e[0] or any(abs(a - b) > _TOLERANCE for a, b in zip(box, e[1:])):
            return f"mark {i}: dump has {g['kind']} {box}, the oracle {e}"
    root = got["nodes"][0]
    if root["id"] != got["root"]:
        return f"dump starts at {root['id']}, not at its root {got['root']}"
    # An arrow through refs may reach content that lies outside the box
    # its ancestors report (an align's unaligned axis assumes content at
    # the origin), which widens the root: only ref-free roots must match.
    if doc.ref_free and (abs(root["width"] - width) > _TOLERANCE
                         or abs(root["height"] - height) > _TOLERANCE):
        return f"root is {root['width']}x{root['height']}, the oracle {width}x{height}"
    return None


def check_rejection(doc, scene, diagnostics) -> str | None:
    """None when a planted document yields exactly its code and no scene."""
    codes = [d.code for d in diagnostics if d.severity == "error"]
    if scene is not None:
        return f"planted {doc.planted} but the document compiled"
    if codes != [doc.planted]:
        return f"planted {doc.planted} but got {codes}"
    return None
