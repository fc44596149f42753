"""Partial bbox calculus: derivation and in-place, write-once ownership."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bluefish import TOLERANCE, PartialBBox, bbox_get, bbox_set
from bluefish.errors import DimensionConflict, GeometryOverflow, InconsistentBBox, InvalidExtent
from bluefish.geometry import axis_of

from oracles import solve_axis

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
extents = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)

X_FIELDS = ("left", "centerX", "right", "width")


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


def test_left_derives_from_center_and_width():
    assert bbox_get(_bbox_of({"centerX": 0.0, "width": 30.0}), "left") == -15.0


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
    assert bbox.defined() == ("left", "width")
    assert bbox.centerX is None


def test_unknown_field_rejected():
    with pytest.raises(ValueError):
        axis_of("diagonal")


@given(start=finite, extent=extents, data=st.data())
def test_any_pair_determines_the_axis(start, extent, data):
    full = {"left": start, "centerX": start + extent / 2.0,
            "right": start + extent, "width": extent}
    pair = data.draw(st.sets(st.sampled_from(X_FIELDS), min_size=2, max_size=2))
    known = {f: full[f] for f in pair}
    bbox = _bbox_of(known)
    expected = solve_axis(known)
    assert expected is not None
    for f in X_FIELDS:
        got = bbox_get(bbox, f)
        assert got is not None
        assert math.isclose(got, expected[f], rel_tol=1e-9, abs_tol=1e-9)


@given(start=finite, extent=extents, data=st.data())
def test_derivations_match_the_pairwise_solver(start, extent, data):
    full = {"left": start, "centerX": start + extent / 2.0,
            "right": start + extent, "width": extent}
    count = data.draw(st.integers(min_value=2, max_value=4))
    chosen = data.draw(st.permutations(X_FIELDS))[:count]
    known = {f: full[f] for f in chosen}
    bbox = _bbox_of(known)
    expected = solve_axis(known)
    for f in X_FIELDS:
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


def test_inconsistent_axis_rejected_on_write():
    bbox = _bbox_of({"left": 0.0, "right": 10.0})
    with pytest.raises(InconsistentBBox):
        bbox_set(bbox, {"left": "w", "right": "w"}, "width", 50.0, "other")


def test_inconsistent_write_names_the_node():
    bbox = _bbox_of({"left": 0.0, "right": 10.0})
    with pytest.raises(InconsistentBBox) as caught:
        bbox_set(bbox, {"left": "w", "right": "w"}, "width", 50.0, "other", node="n3")
    assert caught.value.node == "n3"


def test_implied_negative_extent_rejected():
    bbox = _bbox_of({"left": 10.0})
    with pytest.raises(InconsistentBBox):
        bbox_set(bbox, {"left": "w"}, "right", 0.0, "w")


@given(value=finite, other=finite)
def test_every_field_is_write_once(value, other):
    bbox, owners = _written("centerY", value, "a")
    with pytest.raises(DimensionConflict):
        bbox_set(bbox, owners, "centerY", other, "b")


@given(start=finite, extent=st.floats(min_value=1.0, max_value=1e6),
       nudge=st.floats(min_value=1e-3, max_value=1e3))
def test_contradictory_third_field_is_inconsistent(start, extent, nudge):
    bbox = _bbox_of({"left": start, "width": extent})
    bad_right = (start + extent) + nudge
    with pytest.raises(InconsistentBBox):
        bbox_set(bbox, {"left": "w", "width": "w"}, "right", bad_right, "w")


@pytest.mark.parametrize("field_name, value, writer, error", [
    ("width", math.nan, "w", GeometryOverflow),
    ("height", -1.0, "w", InvalidExtent),
    ("left", 0.0, "second", DimensionConflict),
    ("right", 25.0, "w", InconsistentBBox),
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
