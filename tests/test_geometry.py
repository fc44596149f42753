"""Partial bbox calculus: derivation, ownership, and translation algebra."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bluefish import (
    TOLERANCE,
    Axis,
    PartialBBox,
    Translate,
    bbox_get,
    bbox_set,
    compose_translations,
)
from bluefish.errors import (
    DimensionConflict,
    InconsistentBBox,
    InvalidExtent,
    UndefinedTransform,
)
from bluefish.geometry import axis_of

from oracles import solve_axis

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
extents = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)

X_FIELDS = ("left", "centerX", "right", "width")


def _bbox_of(fields: dict[str, float]) -> PartialBBox:
    bbox, owners = PartialBBox(), {}
    for f, v in fields.items():
        bbox, owners = bbox_set(bbox, owners, f, v, "w")
    return bbox


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
    bbox, owners = bbox_set(PartialBBox(), {}, "width", 10.0, "stack")
    assert owners == {"width": "stack"}
    assert bbox.width == 10.0


def test_same_owner_same_value_is_a_noop():
    bbox, owners = bbox_set(PartialBBox(), {}, "left", 4.0, "w")
    again, owners_again = bbox_set(bbox, owners, "left", 4.0, "w")
    assert again == bbox
    assert owners_again == owners


def test_same_owner_different_value_conflicts():
    bbox, owners = bbox_set(PartialBBox(), {}, "left", 4.0, "w")
    with pytest.raises(DimensionConflict):
        bbox_set(bbox, owners, "left", 5.0, "w")


def test_second_writer_conflicts_and_names_both_owners():
    bbox, owners = bbox_set(PartialBBox(), {}, "top", 0.0, "first")
    with pytest.raises(DimensionConflict) as excinfo:
        bbox_set(bbox, owners, "top", 0.0, "second")
    assert excinfo.value.existing_owner == "first"
    assert excinfo.value.writer == "second"
    assert excinfo.value.field == "top"


def test_negative_extent_rejected():
    with pytest.raises(InvalidExtent):
        bbox_set(PartialBBox(), {}, "width", -1.0, "w")


def test_non_finite_value_rejected():
    with pytest.raises(ValueError):
        bbox_set(PartialBBox(), {}, "left", math.nan, "w")
    with pytest.raises(ValueError):
        bbox_set(PartialBBox(), {}, "width", math.inf, "w")


def test_inconsistent_axis_rejected_on_write():
    bbox = _bbox_of({"left": 0.0, "right": 10.0})
    with pytest.raises(InconsistentBBox):
        bbox_set(bbox, {"left": "w", "right": "w"}, "width", 50.0, "other")


def test_inconsistent_box_rejected_on_construction():
    with pytest.raises(InconsistentBBox):
        PartialBBox(left=0.0, right=10.0, width=50.0)


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
    bbox, owners = bbox_set(PartialBBox(), {}, "centerY", value, "a")
    with pytest.raises(DimensionConflict):
        bbox_set(bbox, owners, "centerY", other, "b")


@given(start=finite, extent=st.floats(min_value=1.0, max_value=1e6),
       nudge=st.floats(min_value=1e-3, max_value=1e3))
def test_contradictory_third_field_is_inconsistent(start, extent, nudge):
    bbox = _bbox_of({"left": start, "width": extent})
    bad_right = (start + extent) + nudge
    with pytest.raises(InconsistentBBox):
        bbox_set(bbox, {"left": "w", "width": "w"}, "right", bad_right, "w")


# --- translations -----------------------------------------------------------------


def test_compose_empty_chain_is_identity():
    assert compose_translations([]) == Translate(0.0, 0.0)


def test_compose_adds_componentwise():
    chain = [Translate(1.0, 2.0), Translate(3.0, 4.0), Translate(-1.0, 0.0)]
    assert compose_translations(chain) == Translate(3.0, 6.0)


def test_compose_selected_axis_leaves_the_other_undefined():
    chain = [Translate(1.0, None), Translate(2.0, None)]
    out = compose_translations(chain, axes=(Axis.HORIZONTAL,))
    assert out == Translate(3.0, None)


def test_compose_undefined_component_raises():
    with pytest.raises(UndefinedTransform):
        compose_translations([Translate(None, 0.0)], axes=(Axis.HORIZONTAL,))


@given(st.lists(st.tuples(finite, finite), max_size=8))
def test_compose_matches_plain_sums(pairs):
    chain = [Translate(x, y) for x, y in pairs]
    out = compose_translations(chain)
    sx = 0.0
    sy = 0.0
    for x, y in pairs:
        sx += x
        sy += y
    assert out.x == sx and out.y == sy
