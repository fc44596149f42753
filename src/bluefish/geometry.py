"""Partial bounding boxes, translations, and per-dimension ownership.

A bounding box here is deliberately partial: every field is optional,
and layout fills them in one dimension at a time. The two axes never
interact. On one axis the fields are three positions and one extent
(horizontal: ``left``/``centerX``/``right`` and ``width``), related by

    left + width = right
    centerX = left + width / 2

so any two defined values on an axis determine the rest. Derived values
are computed on read and never stored; only explicitly written fields
have owners.

Ownership is the immutability mechanism: each field is written at most
once, by exactly one owner, and a second writer is a conflict rather
than a silent overwrite. ``bbox_set`` checks a write before making it,
then stores the field and its owner in place; a rejected write leaves
the box and its owners as they were.

Field names use the document format's dimension vocabulary (``centerX``
not ``center_x``) so the same spelling works in documents, owner maps,
and dumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DimensionConflict, GeometryOverflow, InconsistentBBox, InvalidExtent

#: Absolute tolerance for geometric comparisons. Values closer than this
#: are the same dimension; disagreements beyond it are conflicts.
TOLERANCE = 1e-6


class Axis(Enum):
    """One of the two independent axes, with its field names as plain data.

    ``position_fields`` are start, center and end (``left``/``centerX``/
    ``right`` horizontally), also available one by one as
    ``start_field``/``center_field``/``end_field``; ``fields`` adds the
    ``extent_field``; ``component`` is the translation component the
    axis moves along and ``other`` the perpendicular axis. They are set
    once when the class is created, because layout reads them on every
    frame conversion.
    """

    position_fields: tuple[str, str, str]
    start_field: str
    center_field: str
    end_field: str
    extent_field: str
    fields: tuple[str, str, str, str]
    component: str
    other: "Axis"

    HORIZONTAL = ("horizontal", ("left", "centerX", "right"), "width", "x")
    VERTICAL = ("vertical", ("top", "centerY", "bottom"), "height", "y")

    def __new__(cls, value: str, position_fields: tuple[str, str, str],
                extent_field: str, component: str) -> "Axis":
        axis = object.__new__(cls)
        axis._value_ = value
        axis.position_fields = position_fields
        axis.start_field, axis.center_field, axis.end_field = position_fields
        axis.extent_field = extent_field
        axis.fields = position_fields + (extent_field,)
        axis.component = component
        return axis


Axis.HORIZONTAL.other = Axis.VERTICAL
Axis.VERTICAL.other = Axis.HORIZONTAL

DIMENSIONS = Axis.HORIZONTAL.fields + Axis.VERTICAL.fields
_FIELD_AXIS = {f: axis for axis in Axis for f in axis.fields}


def axis_of(field_name: str) -> Axis:
    try:
        return _FIELD_AXIS[field_name]
    except KeyError:
        raise ValueError(f"unknown bbox field {field_name!r}") from None


@dataclass(slots=True)
class PartialBBox:
    """A bounding box with independently optional fields.

    ``bbox_set`` is the only writer, and it checks the axis identities
    before each write, so the stored fields on each axis satisfy them.
    """

    left: float | None = None
    centerX: float | None = None
    right: float | None = None
    width: float | None = None
    top: float | None = None
    centerY: float | None = None
    bottom: float | None = None
    height: float | None = None

    def defined(self) -> tuple[str, ...]:
        return tuple(f for f in DIMENSIONS if getattr(self, f) is not None)


@dataclass(slots=True)
class Translate:
    """A translation; either component may be undefined (not yet decided)."""

    x: float | None = None
    y: float | None = None


def _solve_axis(stored: list[tuple[str, float]], axis: Axis) -> tuple[float, float]:
    """Solve the axis identities from the first two stored fields.

    Returns (start, extent), i.e. (left, width) on the horizontal axis.
    Requires len(stored) >= 2.
    """
    start_f, center_f, end_f = axis.position_fields
    (f1, v1), (f2, v2) = stored[0], stored[1]
    pair = {f1: v1, f2: v2}
    if start_f in pair and axis.extent_field in pair:
        return pair[start_f], pair[axis.extent_field]
    if start_f in pair and center_f in pair:
        return pair[start_f], 2.0 * (pair[center_f] - pair[start_f])
    if start_f in pair and end_f in pair:
        return pair[start_f], pair[end_f] - pair[start_f]
    if center_f in pair and end_f in pair:
        extent = 2.0 * (pair[end_f] - pair[center_f])
        return 2.0 * pair[center_f] - pair[end_f], extent
    if center_f in pair and axis.extent_field in pair:
        return pair[center_f] - pair[axis.extent_field] / 2.0, pair[axis.extent_field]
    # end + extent
    return pair[end_f] - pair[axis.extent_field], pair[axis.extent_field]


def _axis_values(bbox: PartialBBox, axis: Axis) -> list[tuple[str, float]]:
    return [(f, v) for f in axis.fields if (v := getattr(bbox, f)) is not None]


def _check_axis(stored: list[tuple[str, float]], axis: Axis) -> None:
    """Verify the axis identities hold for all stored fields."""
    if len(stored) < 2:
        return
    start, extent = _solve_axis(stored, axis)
    if extent < -TOLERANCE:
        raise InconsistentBBox(axis.value, f"implied {axis.extent_field} is {extent!r}")
    solution = {
        axis.start_field: start,
        axis.center_field: start + extent / 2.0,
        axis.end_field: start + extent,
        axis.extent_field: extent,
    }
    for f, v in stored:
        if abs(v - solution[f]) > TOLERANCE:
            raise InconsistentBBox(
                axis.value, f"{f}={v!r} but other fields imply {f}={solution[f]!r}")


def bbox_get(bbox: PartialBBox, field_name: str) -> float | None:
    """Return a stored or derived field value, or None if underdetermined.

    Stored values are returned as written. A missing field is derived
    when at least two fields on its axis are defined; otherwise the
    result is None. A box cannot hold contradicting fields (see
    ``PartialBBox``), so reads never re-check the axis identities.
    """
    axis = axis_of(field_name)
    value = getattr(bbox, field_name)
    if value is not None:
        return value
    stored = _axis_values(bbox, axis)
    if len(stored) < 2:
        return None
    start, extent = _solve_axis(stored, axis)
    if field_name == axis.start_field:
        return start
    if field_name == axis.center_field:
        return start + extent / 2.0
    if field_name == axis.end_field:
        return start + extent
    return extent


def bbox_set(
    bbox: PartialBBox,
    owners: dict[str, str],
    field_name: str,
    value: float,
    writer: str,
    node: str | None = None,
) -> None:
    """Write one field and its owner in place, enforcing single ownership.

    A repeated write by the same owner with the same value (within
    TOLERANCE) is a no-op; the same owner with a different value, or any
    other writer, raises DimensionConflict carrying both owners. A NaN
    or infinite value raises GeometryOverflow, a negative extent
    InvalidExtent, and a value contradicting the other fields on its
    axis InconsistentBBox; all three name ``node``.
    Every check runs before the write, so a rejected write changes
    nothing.
    """
    if not math.isfinite(value):
        raise GeometryOverflow(node, field_name, value)
    axis = axis_of(field_name)
    if field_name == axis.extent_field and value < 0:
        raise InvalidExtent(field_name, value, node)
    existing = getattr(bbox, field_name)
    if field_name in owners:
        if owners[field_name] == writer and existing is not None and abs(existing - value) <= TOLERANCE:
            return
        raise DimensionConflict(node or "?", field_name, owners[field_name], writer,
                                existing_value=existing, value=value)
    # the written axis as it would be after the write; the other axis is untouched
    stored = [(f, value if f == field_name else v) for f in axis.fields
              if f == field_name or (v := getattr(bbox, f)) is not None]
    try:
        _check_axis(stored, axis)
    except InconsistentBBox as exc:
        exc.node = node
        raise
    setattr(bbox, field_name, value)
    owners[field_name] = writer
