"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

from bluefish import compile_source

FIXTURES = Path(__file__).parent / "fixtures"


def compile_doc(doc: dict, registry=None):
    """Compile an in-memory document dict; returns (scene, diagnostics)."""
    return compile_source(json.dumps(doc).encode("utf-8"), registry)


def compile_fixture(name: str):
    return compile_source((FIXTURES / f"{name}.json").read_bytes())


def stack_chain(levels: int) -> bytes:
    """A rect nested ``levels`` stackV elements deep, built without json.dumps."""
    leaf = '{"kind": "rect", "props": {"width": 4, "height": 3}}'
    root = '{"kind": "stackV", "children": [' * levels + leaf + "]}" * levels
    return ('{"bluefish": 1, "root": ' + root + "}").encode("utf-8")


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity == "error"]


def node_named(scene, name: str):
    """The one node of a scene that carries ``name``."""
    (node,) = [node for node in scene.nodes.values() if node.name == name]
    return node
