"""Partial bbox calculus: centres and ends derive from a start and an extent."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bluefish import PartialBBox, bbox_get
from bluefish.geometry import axis_of

from oracles import X_FIELDS, Y_FIELDS, solve_axis

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
extents = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


# --- derivation -------------------------------------------------------------------


def test_right_derives_from_left_and_width():
    assert bbox_get(PartialBBox(left=10.0, width=20.0), "right") == 30.0


def test_single_field_underdetermines_the_axis():
    bbox = PartialBBox(left=5.0)
    assert bbox_get(bbox, "left") == 5.0
    assert bbox_get(bbox, "right") is None
    assert bbox_get(bbox, "width") is None


def test_axes_never_interact():
    bbox = PartialBBox(left=0.0, width=10.0)
    assert bbox_get(bbox, "top") is None
    assert bbox_get(bbox, "height") is None


def test_derived_values_are_not_stored():
    bbox = PartialBBox(left=10.0, width=20.0)
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
    bbox = PartialBBox(**known)
    expected = solve_axis(known, "x" if fields == X_FIELDS else "y")
    for f in fields:
        assert math.isclose(bbox_get(bbox, f), expected[f], rel_tol=1e-9, abs_tol=1e-9)
