"""The built-in kinds are built once per process and shared, read-only.

``standard_registry()`` returns a fresh registry each call, but every
registry holds the same spec objects, with their derived facts read when
``bluefish.engine`` was imported. So compiling must write nothing on a
spec: not a field, not a derived fact, not the ``background`` kind's
default mark, and no newly cached attribute, from any thread.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import threading

from bluefish import Element, compile_source, dump_scene, paint, standard_registry
from bluefish.geometry import PathData

from conftest import FIXTURES
from generators import random_ref_free_doc, random_stack_triplet


def _snapshot(value):
    """A comparable deep copy: containers by identity and content, other values as they are."""
    if isinstance(value, PathData):
        return ("PathData", id(value), str(value), _snapshot(value.box))
    if isinstance(value, dict):
        return ("dict", id(value), tuple((key, _snapshot(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, id(value), tuple(_snapshot(item) for item in value))
    if isinstance(value, frozenset):
        return ("frozenset", id(value), tuple(sorted(value)))
    if isinstance(value, Element):
        return ("Element", id(value),
                *(_snapshot(getattr(value, f.name)) for f in dataclasses.fields(value)))
    return value  # a string, number, bool, None or function


def _snapshot_kinds() -> dict:
    """Every built-in spec's identity, and each field and derived fact it stores."""
    return {kind: (id(spec), tuple((attr, _snapshot(value)) for attr, value in vars(spec).items()))
            for kind, spec in standard_registry().kinds.items()}


def _documents() -> list[bytes]:
    """Every fixture and 200 generator documents."""
    rng = random.Random(32)
    docs = [path.read_bytes() for path in sorted(FIXTURES.glob("*.json"))]
    for _ in range(100):
        docs.append(json.dumps(random_ref_free_doc(rng)).encode("utf-8"))
        docs.append(json.dumps(random_stack_triplet(rng)[2]).encode("utf-8"))
    return docs


def _outputs(data: bytes) -> tuple:
    scene, diags = compile_source(data)
    if scene is None:
        return None, None, [d.render() for d in diags]
    return paint(scene), dump_scene(scene), [d.render() for d in diags]


def test_every_derived_fact_is_read_before_any_compile():
    for spec in standard_registry().kinds.values():
        assert {"prop_checks", "default_props", "element_props", "sized_by_holder"} <= set(vars(spec))


def test_compiling_leaves_the_shared_kinds_as_they_were():
    before = _snapshot_kinds()
    background = standard_registry().kinds["background"].default_props["background"]
    assert isinstance(background, Element)  # so the snapshot covers the default mark
    compiled = sum(_outputs(data)[0] is not None for data in _documents())
    assert compiled >= 200
    assert _snapshot_kinds() == before


def test_each_call_returns_its_own_registry_of_the_same_specs():
    first, second = standard_registry(), standard_registry()
    assert first is not second and first.kinds is not second.kinds
    rect = first.kinds["rect"]
    first.register(dataclasses.replace(rect, kind="tile"))
    assert "tile" in first.kinds and "tile" not in second.kinds
    assert "tile" not in standard_registry().kinds
    assert first.kinds.keys() - {"tile"} == second.kinds.keys()
    assert all(first.kinds[kind] is spec for kind, spec in second.kinds.items())


def test_threads_compiling_at_once_agree_with_one_thread():
    docs = _documents()[:30]
    expected = [_outputs(data) for data in docs]
    before = _snapshot_kinds()
    results: dict[int, list] = {}

    def work(k: int) -> None:
        results[k] = [_outputs(data) for data in docs]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results.get(k) for k in range(4)] == [expected] * 4
    assert _snapshot_kinds() == before
