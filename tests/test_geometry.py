"""Partial bbox calculus: derivation and in-place, write-once ownership."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bluefish import TOLERANCE, PartialBBox, bbox_get, bbox_set
from bluefish.errors import DimensionConflict, GeometryOverflow, InvalidExtent
from bluefish.geometry import axis_of

from oracles import X_FIELDS, Y_FIELDS, solve_axis

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
extents = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _bbox_of(fields: dict[str, float]) -> PartialBBox:
    bbox, owners = PartialBBox(), {}
    for f, v in fields.items():
        bbox_set(bbox, owners, f, v, "w")
    return bbox


def _written(field_name: str, value: float, writer: str) -> tuple[PartialBBox, dict[str, str]]:
    bbox, owners = PartialBBox(), {}
    bbox_set(bbox, owners, field_name, value, writer)
    return bbox, owners


# --- derivation -------------------------------------------------------------------


def test_right_derives_from_left_and_width():
    assert bbox_get(_bbox_of({"left": 10.0, "width": 20.0}), "right") == 30.0


def test_single_field_underdetermines_the_axis():
    bbox = _bbox_of({"left": 5.0})
    assert bbox_get(bbox, "left") == 5.0
    assert bbox_get(bbox, "right") is None
    assert bbox_get(bbox, "width") is None


def test_axes_never_interact():
    bbox = _bbox_of({"left": 0.0, "width": 10.0})
    assert bbox_get(bbox, "top") is None
    assert bbox_get(bbox, "height") is None


def test_derived_values_are_not_stored():
    bbox = _bbox_of({"left": 10.0, "width": 20.0})
    assert bbox_get(bbox, "centerX") == 20.0
    assert bbox_get(bbox, "right") == 30.0
    assert bbox == PartialBBox(left=10.0, width=20.0)
    assert not hasattr(bbox, "centerX")


def test_unknown_field_rejected():
    with pytest.raises(ValueError):
        axis_of("diagonal")


@given(start=finite, extent=extents, fields=st.sampled_from((X_FIELDS, Y_FIELDS)))
def test_derivations_match_the_pairwise_solver(start, extent, fields):
    start_f, _, _, extent_f = fields
    known = {start_f: start, extent_f: extent}
    bbox = _bbox_of(known)
    expected = solve_axis(known, "x" if fields == X_FIELDS else "y")
    for f in fields:
        assert math.isclose(bbox_get(bbox, f), expected[f], rel_tol=1e-9, abs_tol=1e-9)


# --- ownership --------------------------------------------------------------------


def test_write_records_the_owner():
    bbox, owners = PartialBBox(), {}
    assert bbox_set(bbox, owners, "width", 10.0, "stack") is None
    assert owners == {"width": "stack"}
    assert bbox.width == 10.0


def test_same_owner_same_value_is_a_noop():
    bbox, owners = _written("left", 4.0, "w")
    bbox_set(bbox, owners, "left", 4.0 + TOLERANCE / 2, "w")
    assert bbox == PartialBBox(left=4.0)
    assert owners == {"left": "w"}


def test_same_owner_different_value_conflicts():
    bbox, owners = _written("left", 4.0, "w")
    with pytest.raises(DimensionConflict):
        bbox_set(bbox, owners, "left", 5.0, "w")


def test_second_writer_conflicts_and_names_both_owners():
    bbox, owners = _written("top", 0.0, "first")
    with pytest.raises(DimensionConflict) as excinfo:
        bbox_set(bbox, owners, "top", 0.0, "second")
    assert excinfo.value.existing_owner == "first"
    assert excinfo.value.writer == "second"
    assert excinfo.value.field == "top"


def test_negative_extent_rejected():
    with pytest.raises(InvalidExtent):
        bbox_set(PartialBBox(), {}, "width", -1.0, "w")


def test_non_finite_value_rejected():
    with pytest.raises(GeometryOverflow):
        bbox_set(PartialBBox(), {}, "left", math.nan, "w")
    with pytest.raises(GeometryOverflow) as caught:
        bbox_set(PartialBBox(), {}, "width", math.inf, "w", node="n3")
    assert (caught.value.node, caught.value.field, caught.value.value) == ("n3", "width", math.inf)


@given(field_name=st.sampled_from(("left", "width", "top", "height")), value=extents, other=extents)
def test_every_field_is_write_once(field_name, value, other):
    bbox, owners = _written(field_name, value, "a")
    with pytest.raises(DimensionConflict):
        bbox_set(bbox, owners, field_name, other, "b")


@pytest.mark.parametrize("field_name, value, writer, error", [
    ("width", math.nan, "w", GeometryOverflow),
    ("height", -1.0, "w", InvalidExtent),
    ("left", 0.0, "second", DimensionConflict),
    ("centerX", 10.0, "w", ValueError),  # a box stores no centre or end
    ("right", 25.0, "w", ValueError),
])
def test_rejected_write_changes_nothing(field_name, value, writer, error):
    bbox, owners = PartialBBox(), {}
    for f, v in (("left", 0.0), ("width", 20.0), ("top", 5.0)):
        bbox_set(bbox, owners, f, v, "w")
    before_box, before_owners = PartialBBox(left=0.0, width=20.0, top=5.0), dict(owners)
    with pytest.raises(error):
        bbox_set(bbox, owners, field_name, value, writer, node="n1")
    assert bbox == before_box
    assert owners == before_owners

