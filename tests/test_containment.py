"""Every mark lies inside the root's box, which sets the viewBox.

A relation's box covers the boxes of what it holds, on both axes, so the
root's box covers every mark in the scene. The check reads only absolute
boxes from the finished scene: it implements no layout and trusts no
relation's own account of its span.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from bluefish import compile_source, paint

from conftest import FIXTURES
from generators import random_ref_free_doc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

TOL = 1e-6
#: The first documents of each workload at seed 7, a few of each size.
WORKLOAD_DOCUMENTS = {"service-mix": 60, "editor-session": 3, "bulk-deep": 3}


def marks_outside_the_root(scene) -> list[tuple[str, tuple[float, ...]]]:
    """(path, absolute box) of each mark not inside the root's absolute box."""
    left, top, width, height = scene.nodes[scene.root].content_box()
    outside = []
    for mark in scene.marks():
        x, y, w, h = box = mark.content_box()
        if (x < left - TOL or y < top - TOL
                or x + w > left + width + TOL or y + h > top + height + TOL):
            outside.append((scene.path(mark.id), box))
    return outside


def _doc(root: dict) -> bytes:
    return json.dumps({"bluefish": 1, "root": root}).encode("utf-8")


def _rect(width: float, height: float) -> dict:
    return {"kind": "rect", "props": {"width": width, "height": height}}


@pytest.mark.parametrize("data, view_box", [
    # content that does not start at 0 on the axis an align leaves alone
    pytest.param(_doc({"kind": "align", "props": {"alignment": "top"}, "children": [
        {"kind": "path", "props": {"d": "M 20 0 L 30 10"}}, _rect(5, 5)]}),
        b'viewBox="0 0 30 10"', id="align-top-over-a-path"),
    # a group's union of a one-axis align that covers more than its first child
    pytest.param(_doc({"kind": "group", "children": [
        _rect(5, 5),
        {"kind": "align", "props": {"alignment": "top"}, "children": [_rect(10, 10), _rect(300, 5)]}]}),
        b'viewBox="0 0 300 10"', id="group-over-a-one-axis-align"),
])
def test_a_one_axis_align_covers_what_it_holds(data, view_box):
    scene, diags = compile_source(data)
    assert diags == []
    assert marks_outside_the_root(scene) == []
    assert view_box in paint(scene).split(b"\n", 1)[0]


def _documents():
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.stem, path.read_bytes()
    for seed in range(200):
        yield f"ref-free-{seed}", json.dumps(random_ref_free_doc(random.Random(seed))).encode()
    for name, count in WORKLOAD_DOCUMENTS.items():
        for i, doc in enumerate(itertools.islice(WORKLOADS[name].stream(7), count)):
            yield f"{name}-{i}", doc.data


def test_every_mark_lies_inside_the_root_box():
    accepted = 0
    for name, data in _documents():
        scene, _ = compile_source(data)
        if scene is None:
            continue
        assert marks_outside_the_root(scene) == [], name
        accepted += 1
    assert accepted > 250
