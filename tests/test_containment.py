"""Every mark lies inside the root's box, and so inside the viewBox.

A relation's box covers the boxes of what it holds, on both axes, so the
root's box covers every mark in the scene; the viewBox is that box
rounded outward to cents. The check reads only absolute boxes from the
finished scene and the viewBox from the SVG: it implements no layout and
trusts no relation's own account of its span.
"""

from __future__ import annotations

import json
import re

import pytest

from bluefish import compile_source, paint

from generators import sample_documents

TOL = 1e-6


def marks_outside(scene, box: tuple[float, float, float, float]) -> list[tuple[str, tuple[float, ...]]]:
    """(path, absolute box) of each mark not inside ``box``, an absolute (left, top, width, height)."""
    left, top, width, height = box
    outside = []
    for mark in scene.marks():
        x, y, w, h = box = mark.content_box()
        if (x < left - TOL or y < top - TOL
                or x + w > left + width + TOL or y + h > top + height + TOL):
            outside.append((scene.path(mark.id), box))
    return outside


def parse_view_box(svg: bytes) -> tuple[float, ...]:
    return tuple(map(float, re.match(rb'<svg viewBox="([^"]*)"', svg).group(1).split()))


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
    assert marks_outside(scene, scene.nodes[scene.root].content_box()) == []
    assert view_box in paint(scene).split(b"\n", 1)[0]


def test_the_view_box_rounds_outward_on_each_side():
    # the box starts a fraction of a cent past 0 on one axis and before it
    # on the other; rounding the start down and the far end up keeps it whole
    scene, diags = compile_source(_doc({"kind": "path", "props": {"d": "M 0.006 -0.004 L 10.004 5"}}))
    assert diags == []
    assert scene.nodes[scene.root].content_box() == (0.006, -0.004, 9.998, 5.004)
    svg = paint(scene)
    assert svg.startswith(b'<svg viewBox="0 -0.01 10.01 5.01"')
    assert marks_outside(scene, parse_view_box(svg)) == []


def test_every_mark_lies_inside_the_root_box():
    accepted = 0
    for name, data in sample_documents():
        scene, _ = compile_source(data)
        if scene is None:
            continue
        assert marks_outside(scene, scene.nodes[scene.root].content_box()) == [], name
        assert marks_outside(scene, parse_view_box(paint(scene))) == [], name
        accepted += 1
    assert accepted > 250
