"""Traced replay of ``compile_source`` + ``paint`` + ``dump_scene``, stage by stage.

The replay calls the same public functions, in the same order, as
``bluefish.compile_source`` does, with a span around each:

1. standard_registry          7. layout (LayoutRuntime(...).layout_node(root))
2. parse_document             8. finalize (Scenegraph.finalize)
3. expand_tree                9. resolve (Scenegraph.resolve)
4. validate                  10. paint
5. resolve_names             11. dump_scene (only in workloads that dump)
6. build_scenegraph

A span is (name, start, end, parent, document). Each document has one
top-level span; stage spans are its children. Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

STAGE_METRICS = {
    "standard_registry": "engine.registry_ms",
    "parse_document": "docformat.parse_ms",
    "expand_tree": "engine.expand_ms",
    "validate": "docformat.validate_ms",
    "resolve_names": "docformat.resolve_names_ms",
    "build_scenegraph": "engine.build_ms",
    "layout": "relations.layout_pass_ms",
    "finalize": "scenegraph.finalize_ms",
    "resolve": "scenegraph.resolve_ms",
    "paint": "renderer.paint_ms",
    "dump_scene": "renderer.dump_ms",
}
REJECT_STAGES = ("parse", "validate", "resolve_names", "build", "layout", "finalize")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    doc: int


@dataclass
class Replay:
    """What one traced document produced."""

    span: int  # index of the document span
    rejected_at: str | None = None
    tree: object = None
    graph: object = None
    layout_calls: int = 0
    scene: object = None
    svg: bytes | None = None
    dump: bytes | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)

    def stage(self, parent: int, doc: int, name: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(Span(name, start, time.perf_counter(), parent, doc))

    def replay(self, bf, data: bytes, doc: int, dumps: bool) -> Replay:
        top = len(self.spans)
        self.spans.append(Span("document", time.perf_counter(), 0.0, None, doc))
        out = Replay(span=top)
        try:
            self._run(bf, data, doc, dumps, out)
        finally:
            self.spans[top].end = time.perf_counter()
        return out

    def _run(self, bf, data: bytes, doc: int, dumps: bool, out: Replay) -> None:
        stage = self.stage
        top = out.span
        registry = stage(top, doc, "standard_registry", bf.standard_registry)
        try:
            tree = stage(top, doc, "parse_document", bf.parse_document, data)
            tree = stage(top, doc, "expand_tree", bf.expand_tree, tree, registry)
        except bf.BluefishError:
            out.rejected_at = "parse"
            return
        out.tree = tree
        diags = stage(top, doc, "validate", bf.validate, tree, registry)
        table, name_diags = stage(top, doc, "resolve_names", bf.resolve_names, tree)
        if any(d.severity == "error" for d in diags):
            out.rejected_at = "validate"
            return
        if any(d.severity == "error" for d in name_diags):
            out.rejected_at = "resolve_names"
            return
        try:
            graph = stage(top, doc, "build_scenegraph", bf.build_scenegraph, tree, table, registry)
        except bf.BluefishError:
            out.rejected_at = "build"
            return
        out.graph = graph
        try:
            rt = stage(top, doc, "layout", _layout, bf, graph, registry)
        except bf.BluefishError:
            out.rejected_at = "layout"
            return
        try:
            stage(top, doc, "finalize", graph.finalize)
        except bf.BluefishError:
            out.rejected_at = "finalize"
            return
        scene = stage(top, doc, "resolve", graph.resolve)
        scene.layout_calls = dict(rt.calls)
        out.layout_calls = sum(rt.calls.values())
        out.scene = scene
        out.svg = stage(top, doc, "paint", bf.paint, scene)
        if dumps:
            out.dump = stage(top, doc, "dump_scene", bf.dump_scene, scene)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover, in ms."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [(s.end - s.start - c) * 1000.0 for s, c in zip(self.spans, covered)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "doc": span.doc, "parent": span.parent,
                    "start": span.start, "end": span.end, "self_ms": own}) + "\n")


def _layout(bf, graph, registry):
    rt = bf.LayoutRuntime(graph=graph, registry=registry)
    rt.layout_node(graph.root)
    return rt


def tree_shape(root) -> tuple[int, int]:
    """(elements, depth) of a parsed element tree, without recursion."""
    count = 0
    deepest = 0
    stack = [(root, 1)]
    while stack:
        el, depth = stack.pop()
        count += 1
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in el.children)
    return count, deepest


def write_counts(graph) -> dict[str, float]:
    """Scenegraph counts from the graph's own write log."""
    bbox = transform = default = 0
    for _, field_name, writer in graph.write_log:
        if field_name.startswith("transform."):
            transform += 1
            default += writer == graph.root
        else:
            bbox += 1
    nodes = len(graph.nodes)
    refs = sum(1 for n in graph.nodes.values() if hasattr(n, "ref_id"))
    return {
        "scenegraph.nodes": nodes,
        "scenegraph.refs": refs,
        "scenegraph.bbox_writes": bbox,
        "scenegraph.transform_writes": transform,
        "scenegraph.default_writes": default,
        "scenegraph.writes_per_node": (bbox + transform) / nodes,
    }
