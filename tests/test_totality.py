"""Compiling is total: a mutated document yields a scene or known diagnostics.

Each example takes a fixture (they cover every kind but ellipse, plus
refs, connectors and backgrounds) or a random ref-free document, applies
one to three mutations, and may truncate the encoded bytes. Whatever
comes out, ``compile_source`` must not raise, every diagnostic must carry
a code ``bluefish.errors`` defines, a scene must paint and dump, and
``bluefish check`` must exit 0 or 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bluefish import compile_source, dump_scene, paint, standard_registry
from bluefish.cli import main

from conftest import FIXTURES
from generators import random_ref_free_doc
from test_diagnostic_codes import CODES

_FIXTURE_DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
_SPECS = standard_registry().kinds
_KINDS = (*_SPECS, "sparkle")
_ALL_PROPS = sorted({prop for spec in _SPECS.values()
                     for prop in (*spec.required_props, *spec.optional_props)})
_VALUES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 2**70, -1.0, 0.0, "x", [1.0], None, True)
_NAMES = ("a", "b", "p", "x")


def _elements(doc: dict) -> list[dict]:
    """Every element dict under the root, background marks included."""
    found: list[dict] = []
    stack = [doc["root"]]
    while stack:
        el = stack.pop()
        found.append(el)
        stack.extend(v for v in el.get("props", {}).values() if isinstance(v, dict))
        stack.extend(el.get("children", []))
    return found


def _mutate(doc: dict, data) -> None:
    el = data.draw(st.sampled_from(_elements(doc)))
    op = data.draw(st.sampled_from(("set", "drop prop", "drop child", "kind", "name")))
    props = el.get("props")
    children = el.get("children")
    if op == "set":
        # a prop the kind takes, so the value is what gets checked
        spec = _SPECS.get(el["kind"])
        own = (*spec.required_props, *spec.optional_props) if spec is not None else ()
        prop = data.draw(st.sampled_from(own or _ALL_PROPS))
        el.setdefault("props", {})[prop] = data.draw(st.sampled_from(_VALUES))
    elif op == "drop prop" and props:
        del props[data.draw(st.sampled_from(sorted(props)))]
    elif op == "drop child" and children:
        del children[data.draw(st.integers(0, len(children) - 1))]
    elif op == "kind":
        el["kind"] = data.draw(st.sampled_from(_KINDS))
    elif op == "name":
        el["name"] = data.draw(st.sampled_from(_NAMES))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_compiling_mutated_documents_never_raises(data):
    if data.draw(st.booleans()):
        doc = json.loads(json.dumps(data.draw(st.sampled_from(_FIXTURE_DOCS))))
    else:
        doc = random_ref_free_doc(random.Random(data.draw(st.integers(0, 2**32))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    raw = json.dumps(doc).encode("utf-8")
    if data.draw(st.integers(0, 3)) == 3:
        raw = raw[:data.draw(st.integers(0, len(raw)))]

    scene, diags = compile_source(raw)
    assert {d.code for d in diags} <= set(CODES)
    if scene is not None:
        paint(scene)
        dump_scene(scene)
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "doc.json"
        source.write_bytes(raw)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["check", str(source)]) in (0, 1)
