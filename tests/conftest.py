"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bluefish import compile_source

FIXTURES = Path(__file__).parent / "fixtures"


def compile_doc(doc: dict, registry=None):
    """Compile an in-memory document dict; returns (scene, diagnostics)."""
    return compile_source(json.dumps(doc).encode("utf-8"), registry)


def compile_fixture(name: str):
    return compile_source((FIXTURES / f"{name}.json").read_bytes())


def stack_chain(levels: int) -> bytes:
    """A document ``levels`` elements deep: a rect inside ``levels - 1`` nested stackVs.

    Built without json.dumps, which would recurse once per level.
    """
    leaf = '{"kind": "rect", "props": {"width": 4, "height": 3}}'
    root = '{"kind": "stackV", "children": [' * (levels - 1) + leaf + "]}" * (levels - 1)
    return ('{"bluefish": 1, "root": ' + root + "}").encode("utf-8")


def call_at_depth(frames: int, fn):
    """Return ``fn()``, called with about ``frames`` frames on the stack below it."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def down(n: int):
        return fn() if n <= 0 else down(n - 1)

    return down(frames - depth)


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity == "error"]


def node_named(scene, name: str):
    """The one node of a scene that carries ``name``."""
    (node,) = [node for node in scene.nodes.values() if node.name == name]
    return node
