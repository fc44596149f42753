"""The compound scenegraph: a tree plus reference edges.

Layout nodes form an ordinary tree. Ref nodes are leaves whose ``ref_id``
points at an earlier layout node, turning the tree into a DAG-shaped
view: a relation can lay out elements it does not own by reading and
writing them *through* the tree, in its own coordinate frame.

Coordinates are strictly local. A node's bbox lives in its own frame and
its translation maps that frame into the parent's. Converting between
frames composes translations along the paths to the least common
ancestor. A relation reads and writes in its own frame, and the frame
owns what it decides or defaults: each dimension it writes, and each
undecided translation component on the path, lazily materialized to 0.
Asking "where is X relative to me?" is only answerable once the
undecided offsets in between are pinned down, and pinning them is itself
a layout decision that must be owned.

Ownership is the immutability mechanism: each box start and extent and
each translation component is written at most once, by exactly one
owner, and a second writer is a conflict rather than a silent overwrite.
``Scenegraph.decide`` is the one place that keeps this rule. It checks a
write before making it, then stores the value and its owner in place and
logs the write; a rejected write leaves the node, its owners and the log
as they were.

The methods below take and return node records (``LayoutNode`` and
``RefNode``), never ids, so a relation reaches a node it does not own
without a lookup. Ids remain where a node is recorded or printed: the
``nodes`` table, the stored ``parent``/``children``/``ref_id`` links, the
owner maps, ``write_log`` and errors. The links stay ids because records
pointing both ways would form reference cycles, which would keep a
finished graph alive until the cyclic garbage collector runs.

Nothing here is shared or global: each Scenegraph instance is confined
to its creating pipeline run, and every layout decision goes through
``decide``, which records each write in ``write_log``. ``resolve`` then
stores the absolute origins those decisions imply on the same node
records, and the resolved graph is the scene that output reads, with
``write_log`` and the owner maps as the provenance of every dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import (
    DimensionConflict,
    DisconnectedNodes,
    GeometryOverflow,
    InvalidExtent,
    SelfReference,
    UndefinedExtentError,
    UnsizedNodes,
)
from .geometry import TOLERANCE, Axis, PartialBBox, Translate, axis_of, bbox_get

if TYPE_CHECKING:
    from .engine import Registry

#: Each field a node stores: (record attribute, owner-map attribute, key in both).
_STORED = {
    **{f: ("bbox", "bbox_owners", f) for axis in Axis for f in (axis.start_field, axis.extent_field)},
    **{axis.transform_field: ("transform", "transform_owners", axis.component) for axis in Axis},
}
_EXTENTS = frozenset(axis.extent_field for axis in Axis)


@dataclass
class LayoutNode:
    """One layout node, the same record from build through layout to output.

    ``x``/``y`` are the node's frame origin in root coordinates (the sum
    of translations from the root down to and including this node), set
    by ``Scenegraph.resolve``. Extents and the local box start are read
    from the box; the local start may differ from the origin for
    relations whose content does not begin at 0. ``segment`` is the
    ``(x1, y1, x2, y2)`` a connector's layout clipped, None when nothing
    of it is visible or the node is no connector.
    """

    id: str
    kind: str
    bbox: PartialBBox = field(default_factory=PartialBBox)
    bbox_owners: dict[str, str] = field(default_factory=dict)
    transform: Translate = field(default_factory=Translate)
    transform_owners: dict[str, str] = field(default_factory=dict)
    children: list[str] = field(default_factory=list)
    parent: str | None = None
    paint_props: dict = field(default_factory=dict)
    name: str | None = None
    path: str = ""
    depth: int = 0  # edges from the root; frame conversion climbs by it
    x: float = 0.0
    y: float = 0.0
    segment: tuple[float, float, float, float] | None = None

    is_ref = False

    @property
    def width(self) -> float | None:
        return self.bbox.width

    @property
    def height(self) -> float | None:
        return self.bbox.height

    @property
    def local_left(self) -> float | None:
        return self.bbox.left

    @property
    def local_top(self) -> float | None:
        return self.bbox.top

    def content_box(self) -> tuple[float, float, float, float]:
        """Absolute (left, top, width, height) of the node's content."""
        left, top = self.local_left, self.local_top
        return (self.x + (left if left is not None else 0.0),
                self.y + (top if top is not None else 0.0), self.width, self.height)


@dataclass
class RefNode:
    """An edge to an earlier layout node; in a scene, a leaf that paints nothing."""

    id: str
    ref_id: str
    parent: str | None = None
    path: str = ""

    kind = "ref"
    is_ref = True
    name = None
    children = ()
    paint_props = MappingProxyType({})


class Scenegraph:
    """The compound graph; once resolved, also the scene that output reads.

    ``nodes`` is in creation order, parents before children (document
    pre-order for a built document). Output reads each node's kind facts
    from ``registry``, the one the graph was built with.
    """

    def __init__(self, registry: Registry) -> None:
        self.registry = registry
        self.nodes: dict[str, LayoutNode | RefNode] = {}
        self.root: str | None = None
        self.write_log: list[tuple[str, str, str]] = []  # (node, field, writer)
        self.layout_calls: dict[str, int] = {}  # node -> layout calls, set by layout_document

    # --- construction -------------------------------------------------------

    def create_node(
        self,
        kind: str,
        parent: LayoutNode | None,
        paint_props: dict | None = None,
        name: str | None = None,
        path: str = "",
    ) -> LayoutNode:
        nid = f"n{len(self.nodes)}"
        node = LayoutNode(id=nid, kind=kind, paint_props=dict(paint_props or {}),
                          name=name, path=path or nid)
        if parent is None:
            # one root, so any two layout nodes share an ancestor (see _legs)
            if self.root is not None:
                raise DisconnectedNodes(self.root)
            self.root = nid
        else:
            node.parent, node.depth = parent.id, parent.depth + 1
            parent.children.append(nid)
        self.nodes[nid] = node
        return node

    def create_ref(self, parent: LayoutNode, referent: LayoutNode, path: str = "") -> RefNode:
        # A ref may not point at the relation that holds it or any ancestor
        # of it: the relation would contain itself through the edge. Only an
        # ancestor as deep as the referent can be the referent.
        walk = parent
        while walk.depth > referent.depth:
            walk = self.nodes[walk.parent]
        if walk is referent:
            raise SelfReference(parent.id, referent.id)
        nid = f"n{len(self.nodes)}"
        ref = RefNode(id=nid, ref_id=referent.id, parent=parent.id, path=path or nid)
        self.nodes[nid] = ref
        parent.children.append(nid)
        return ref

    # --- accessors ------------------------------------------------------------

    def target_of(self, child_id: str) -> LayoutNode:
        """Follow a ref to its referent; layout nodes are their own target."""
        node = self.nodes[child_id]
        return self.nodes[node.ref_id] if node.is_ref else node

    def is_fixed(self, node: LayoutNode, axis: Axis) -> bool:
        """Has this node's translation on the axis already been decided?"""
        return axis.component in node.transform_owners

    def extent_of(self, node: LayoutNode, axis: Axis) -> float | None:
        """Extent on an axis. Frame-independent, so no materialization."""
        return getattr(node.bbox, axis.extent_field)

    def marks(self) -> list[LayoutNode]:
        kinds = self.registry.kinds
        return [node for node in self.nodes.values() if kinds[node.kind].is_mark]

    # --- decisions ------------------------------------------------------------

    def decide(self, node: LayoutNode, field_name: str, value: float, owner: LayoutNode) -> None:
        """Store one box start or extent, or one translation component, owned by ``owner``.

        ``field_name`` is ``left``, ``width``, ``top``, ``height``,
        ``transform.x`` or ``transform.y``; any other name raises
        ValueError (a box stores no centre or end). A NaN or infinite
        value raises GeometryOverflow and a negative extent
        InvalidExtent. The same owner repeating the value within
        TOLERANCE changes nothing; any other second write raises
        DimensionConflict naming both owners. Every check runs before
        the write, and only a write that happens is logged.
        """
        try:
            record, owner_map, key = _STORED[field_name]
        except KeyError:
            raise ValueError(
                f"{field_name!r} is not a box start or extent or a translation component") from None
        if not math.isfinite(value):
            raise GeometryOverflow(node.id, field_name, value)
        if value < 0 and field_name in _EXTENTS:
            raise InvalidExtent(field_name, value, node.id)
        store, owners = getattr(node, record), getattr(node, owner_map)
        existing_owner = owners.get(key)
        if existing_owner is not None:
            existing = getattr(store, key)
            if existing_owner == owner.id and abs(existing - value) <= TOLERANCE:
                return
            raise DimensionConflict(node.id, field_name, existing_owner, owner.id,
                                    existing_value=existing, value=value)
        setattr(store, key, value)
        owners[key] = owner.id
        self.write_log.append((node.id, field_name, owner.id))

    # --- transforms -----------------------------------------------------------

    def materialize(self, node: LayoutNode, axis: Axis, requester: LayoutNode) -> float:
        """Read a translation component, defaulting it to 0 if undecided.

        The default is a real layout decision: the requester becomes the
        owner, and later relations see the node as fixed on this axis.
        """
        value = getattr(node.transform, axis.component)
        if value is None:
            self.decide(node, axis.transform_field, 0.0, requester)
            return 0.0
        return value

    # --- frame conversion -------------------------------------------------------

    def _legs(self, target: LayoutNode, frame: LayoutNode) -> tuple[list[LayoutNode], list[LayoutNode]]:
        """Nodes whose translations map target->lca and frame->lca.

        The target leg includes the target itself; the frame leg includes
        the frame itself; the lca's own translation belongs to neither
        (it maps the lca out of the frame both sides share). Both layout
        nodes climb to the lca by depth, the deeper side first; the graph
        has one root, so the climbs meet before either side runs out.
        """
        nodes = self.nodes
        up: list[LayoutNode] = []
        down: list[LayoutNode] = []
        a, b = target, frame
        while a is not b:
            if a.depth >= b.depth:
                up.append(a)
                a = nodes[a.parent]
            else:
                down.append(b)
                b = nodes[b.parent]
        return up, down

    def bbox_in_frame(self, target: LayoutNode, frame: LayoutNode,
                      axis: Axis) -> dict[str, float | None]:
        """Target's box fields on one axis, expressed in frame coordinates.

        Walks target -> lca -> frame, materializing every undecided
        translation component on the way (the frame owns what it
        defaults), then offsets the target's local values by the
        composed translations. Returns a dict over the axis's three
        position fields and extent; underdetermined fields are None.
        """
        up, down = self._legs(target, frame)
        chain = [self.materialize(n, axis, frame) for n in up]
        back = 0.0
        for n in down:
            back += self.materialize(n, axis, frame)
        out: dict[str, float | None] = {}
        for f in axis.position_fields:
            local = bbox_get(target.bbox, f)
            if local is None:
                out[f] = None
            else:
                v = local
                for t in chain:
                    v += t
                out[f] = v - back
        out[axis.extent_field] = bbox_get(target.bbox, axis.extent_field)
        return out

    def set_dim_in_frame(self, target: LayoutNode, frame: LayoutNode, field_name: str,
                         value: float) -> None:
        """Write one dimension of target, with value given in frame coordinates.

        The frame owns what it decides or defaults; ``decide`` stores
        each write under that rule. Extents are frame-independent and go
        straight into the target's bbox, as does a start written in the
        target's own frame: both define what the node *is* (the box
        stores nothing else, so a centre or end in the own frame raises
        ValueError). A position written from any other frame decides
        where the node *sits* and becomes its translation on the axis
        (relations move nodes, they do not reshape them). When the
        target stores no start on the axis its content sits at the local
        origin by default (the same default finalize applies), so the
        local value is the field's offset from that origin.
        """
        axis = axis_of(field_name)
        if field_name == axis.extent_field or target is frame:
            self.decide(target, field_name, value, frame)
            return
        up, down = self._legs(target, frame)
        rest = 0.0
        for n in up[1:]:  # exclude the target's own translation
            rest += self.materialize(n, axis, frame)
        back = 0.0
        for n in down:
            back += self.materialize(n, axis, frame)
        local = bbox_get(target.bbox, field_name)  # None unless the box stores what it needs
        if local is None:
            extent = getattr(target.bbox, axis.extent_field)
            if extent is None and field_name != axis.start_field:
                # a centre or end with no extent is unrelatable to the content
                raise UndefinedExtentError(target.id, field_name)
            local = axis.offset(field_name, extent)
        self.decide(target, axis.transform_field, ((value - local) - rest) + back, frame)

    # --- finalization --------------------------------------------------------

    def finalize(self) -> None:
        """Default every undecided translation to 0 and demand extents.

        Unconstrained positions are not an error: a node nobody placed
        simply stays at its local origin, owned by the root. Unknown
        extents are an error, collected per node into UnsizedNodes.
        """
        assert self.root is not None
        root = self.nodes[self.root]
        layout_nodes = [node for node in self.nodes.values() if isinstance(node, LayoutNode)]
        for node in layout_nodes:
            for axis in (Axis.HORIZONTAL, Axis.VERTICAL):
                self.materialize(node, axis, root)
        unsized = tuple(
            node.id for node in layout_nodes
            if node.bbox.width is None or node.bbox.height is None)
        if unsized:
            raise UnsizedNodes(unsized)

    def resolve(self) -> Scenegraph:
        """Store each layout node's absolute origin and return the graph as the scene.

        Creation order puts a parent before its children, so one pass in
        that order finds every parent's origin already stored.
        """
        assert self.root is not None
        nodes = self.nodes
        for node in nodes.values():
            if isinstance(node, RefNode):
                continue
            x, y = node.transform.x, node.transform.y
            if node.parent is not None:
                parent = nodes[node.parent]
                x, y = parent.x + x, parent.y + y
                if not math.isfinite(x):
                    raise GeometryOverflow(node.id, "x", x)
                if not math.isfinite(y):
                    raise GeometryOverflow(node.id, "y", y)
            node.x, node.y = x, y
        return self
