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
than a silent overwrite. All operations here have pure value semantics;
``bbox_set`` returns updated copies instead of mutating.

Field names use the document format's dimension vocabulary (``centerX``
not ``center_x``) so the same spelling works in documents, owner maps,
and dumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import (
    DimensionConflict,
    InconsistentBBox,
    InvalidExtent,
    UndefinedTransform,
)

#: Absolute tolerance for geometric comparisons. Values closer than this
#: are the same dimension; disagreements beyond it are conflicts.
TOLERANCE = 1e-6

HORIZONTAL_FIELDS = ("left", "centerX", "right")
VERTICAL_FIELDS = ("top", "centerY", "bottom")
EXTENT_FIELDS = ("width", "height")
DIMENSIONS = HORIZONTAL_FIELDS + ("width",) + VERTICAL_FIELDS + ("height",)


class Axis(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"

    @property
    def position_fields(self) -> tuple[str, str, str]:
        return HORIZONTAL_FIELDS if self is Axis.HORIZONTAL else VERTICAL_FIELDS

    @property
    def extent_field(self) -> str:
        return "width" if self is Axis.HORIZONTAL else "height"

    @property
    def fields(self) -> tuple[str, str, str, str]:
        return self.position_fields + (self.extent_field,)

    @property
    def start_field(self) -> str:
        """left / top"""
        return self.position_fields[0]

    @property
    def center_field(self) -> str:
        return self.position_fields[1]

    @property
    def end_field(self) -> str:
        """right / bottom"""
        return self.position_fields[2]

    @property
    def component(self) -> str:
        """The translation component this axis moves along."""
        return "x" if self is Axis.HORIZONTAL else "y"

    @property
    def other(self) -> "Axis":
        return Axis.VERTICAL if self is Axis.HORIZONTAL else Axis.HORIZONTAL


_FIELD_AXIS = {f: Axis.HORIZONTAL for f in HORIZONTAL_FIELDS + ("width",)}
_FIELD_AXIS.update({f: Axis.VERTICAL for f in VERTICAL_FIELDS + ("height",)})


def axis_of(field_name: str) -> Axis:
    try:
        return _FIELD_AXIS[field_name]
    except KeyError:
        raise ValueError(f"unknown bbox field {field_name!r}") from None


@dataclass(frozen=True)
class PartialBBox:
    """A bounding box with independently optional fields.

    The stored fields on each axis satisfy the axis identities: a box
    whose fields contradict them raises InconsistentBBox on construction.
    """

    left: float | None = None
    centerX: float | None = None
    right: float | None = None
    width: float | None = None
    top: float | None = None
    centerY: float | None = None
    bottom: float | None = None
    height: float | None = None

    def __post_init__(self) -> None:
        for axis in Axis:
            _check_axis(self, axis)

    def defined(self) -> tuple[str, ...]:
        return tuple(f for f in DIMENSIONS if getattr(self, f) is not None)


@dataclass(frozen=True)
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
    return [(f, getattr(bbox, f)) for f in axis.fields if getattr(bbox, f) is not None]


def _check_axis(bbox: PartialBBox, axis: Axis) -> None:
    """Verify the axis identities hold for all stored fields."""
    stored = _axis_values(bbox, axis)
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
) -> tuple[PartialBBox, dict[str, str]]:
    """Write one field, enforcing single ownership.

    A repeated write by the same owner with the same value (within
    TOLERANCE) is a no-op; the same owner with a different value, or any
    other writer, raises DimensionConflict carrying both owners. Negative
    extents raise InvalidExtent, and a value contradicting the other
    fields on its axis raises InconsistentBBox; both name ``node``.
    Returns the updated (bbox, owners).
    """
    if not math.isfinite(value):
        raise ValueError(f"bbox field {field_name!r} must be finite, got {value!r}")
    axis = axis_of(field_name)
    if field_name == axis.extent_field and value < 0:
        raise InvalidExtent(field_name, value, node)
    existing = getattr(bbox, field_name)
    if field_name in owners:
        if owners[field_name] == writer and existing is not None and abs(existing - value) <= TOLERANCE:
            return bbox, owners
        raise DimensionConflict(node or "?", field_name, owners[field_name], writer,
                                existing_value=existing, value=value)
    try:
        new_bbox = replace(bbox, **{field_name: value})
    except InconsistentBBox as exc:
        exc.node = node
        raise
    new_owners = dict(owners)
    new_owners[field_name] = writer
    return new_bbox, new_owners


def compose_translations(
    chain: list[Translate] | tuple[Translate, ...],
    axes: tuple[Axis, ...] = (Axis.HORIZONTAL, Axis.VERTICAL),
) -> Translate:
    """Compose a chain of translations by component-wise addition.

    Only the requested axes are composed; the other component of the
    result is None. The empty chain is the identity. Raises
    UndefinedTransform if any translation in the chain is undefined on a
    composed axis: composition is only meaningful once every component
    has been decided (or materialized).
    """
    x: float | None = 0.0 if Axis.HORIZONTAL in axes else None
    y: float | None = 0.0 if Axis.VERTICAL in axes else None
    for t in chain:
        if x is not None:
            if t.x is None:
                raise UndefinedTransform("x")
            x += t.x
        if y is not None:
            if t.y is None:
                raise UndefinedTransform("y")
            y += t.y
    return Translate(x, y)
