"""The compound scenegraph: a tree plus reference edges.

Layout nodes form an ordinary tree. Ref nodes are leaves whose ``ref_id``
points at an earlier layout node, turning the tree into a DAG-shaped
view: a relation can lay out elements it does not own by reading and
writing them *through* the tree, in its own coordinate frame.

Coordinates are strictly local. A node's bbox lives in its own frame and
its translation maps that frame into the parent's. Converting between
frames composes translations along the paths to the least common
ancestor. When a translation component on that path has not been decided
yet, it is lazily materialized to 0 and the requesting relation becomes
its owner: asking "where is X relative to me?" is only answerable once
the undecided offsets in between are pinned down, and pinning them is
itself a layout decision that must be owned. Once materialized, a
component never changes (same single-write rule as bbox fields).

Nothing here is shared or global: each Scenegraph instance is confined
to its creating pipeline run, and all mutation goes through the methods
below, which record every write in ``write_log``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import (
    DimensionConflict,
    DisconnectedNodes,
    RefToRef,
    SelfReference,
    UndefinedExtentError,
    UnknownNode,
    UnknownParent,
    UnsizedNodes,
)
from .geometry import (
    TOLERANCE,
    Axis,
    PartialBBox,
    Translate,
    axis_of,
    bbox_get,
    bbox_set,
)


@dataclass
class LayoutNode:
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


@dataclass
class RefNode:
    id: str
    ref_id: str
    parent: str | None = None
    path: str = ""


@dataclass
class SceneNode:
    """One node of a resolved scene, in absolute coordinates.

    ``x``/``y`` are the node's frame origin in root coordinates (the sum
    of translations from the root down to and including this node);
    ``width``/``height`` its extent. The local box start may differ from
    the origin for relations whose content does not begin at 0.
    """

    id: str
    kind: str
    name: str | None
    parent: str | None
    children: tuple[str, ...]
    path: str
    x: float
    y: float
    width: float
    height: float
    transform: tuple[float, float]
    local_left: float | None
    local_top: float | None
    bbox_owners: dict[str, str]
    transform_owners: dict[str, str]
    paint_props: dict
    ref_id: str | None = None

    @property
    def is_ref(self) -> bool:
        return self.ref_id is not None

    def content_box(self) -> tuple[float, float, float, float]:
        """Absolute (left, top, width, height) of the node's content."""
        left = self.x + (self.local_left if self.local_left is not None else 0.0)
        top = self.y + (self.local_top if self.local_top is not None else 0.0)
        return (left, top, self.width, self.height)


@dataclass
class ResolvedScene:
    root: str
    nodes: dict[str, SceneNode]
    order: tuple[str, ...]  # pre-order
    layout_calls: dict[str, int] = field(default_factory=dict)

    def __getitem__(self, node_id: str) -> SceneNode:
        return self.nodes[node_id]

    def by_name(self, name: str) -> SceneNode:
        for nid in self.order:
            node = self.nodes[nid]
            if not node.is_ref and node.name == name:
                return node
        raise KeyError(name)

    def marks(self) -> list[SceneNode]:
        from .relations import MARK_KINDS  # local import; relations builds on this module

        return [self.nodes[nid] for nid in self.order if self.nodes[nid].kind in MARK_KINDS]


class Scenegraph:
    def __init__(self) -> None:
        self.nodes: dict[str, LayoutNode | RefNode] = {}
        self.root: str | None = None
        self.write_log: list[tuple[str, str, str]] = []  # (node, field, writer)
        self.background_marks: dict[str, str] = {}  # background node -> its mark child
        self._counter = 0

    # --- construction -------------------------------------------------------

    def _next_id(self) -> str:
        nid = f"n{self._counter}"
        self._counter += 1
        return nid

    def create_node(
        self,
        kind: str,
        parent: str | None,
        paint_props: dict | None = None,
        name: str | None = None,
        path: str = "",
    ) -> str:
        if parent is not None and parent not in self.nodes:
            raise UnknownParent(parent)
        parent_node = None if parent is None else self._layout(parent)
        nid = self._next_id()
        node = LayoutNode(id=nid, kind=kind, parent=parent,
                          paint_props=dict(paint_props or {}), name=name, path=path or nid,
                          depth=0 if parent_node is None else parent_node.depth + 1)
        self.nodes[nid] = node
        if parent_node is None:
            if self.root is None:
                self.root = nid
        else:
            parent_node.children.append(nid)
        return nid

    def create_ref(self, parent: str, referent: str, path: str = "") -> str:
        if parent not in self.nodes:
            raise UnknownParent(parent)
        target = self.nodes.get(referent)
        if target is None:
            raise UnknownNode(referent)
        if isinstance(target, RefNode):
            raise RefToRef(referent)
        # A ref may not point at the relation that holds it or any ancestor
        # of it: the relation would contain itself through the edge.
        walk: str | None = parent
        while walk is not None:
            if walk == referent:
                raise SelfReference(parent, referent)
            walk = self.nodes[walk].parent
        nid = self._next_id()
        self.nodes[nid] = RefNode(id=nid, ref_id=referent, parent=parent, path=path or nid)
        self._layout(parent).children.append(nid)
        return nid

    # --- accessors ------------------------------------------------------------

    def _layout(self, node_id: str) -> LayoutNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNode(node_id)
        assert isinstance(node, LayoutNode), f"{node_id} is a ref node"
        return node

    def target_of(self, node_id: str) -> str:
        """Follow a ref to its referent; layout nodes are their own target."""
        node = self.nodes[node_id]
        return node.ref_id if isinstance(node, RefNode) else node_id

    def is_fixed(self, node_id: str, axis: Axis) -> bool:
        """Has this node's translation on the axis already been decided?"""
        return axis.component in self._layout(node_id).transform_owners

    def extent_of(self, node_id: str, axis: Axis) -> float | None:
        """Extent on an axis. Frame-independent, so no materialization."""
        node = self._layout(node_id)
        return bbox_get(node.bbox, axis.extent_field)

    # --- transforms -----------------------------------------------------------

    def _component(self, node_id: str, axis: Axis) -> float | None:
        t = self._layout(node_id).transform
        return t.x if axis is Axis.HORIZONTAL else t.y

    def _set_component(self, node_id: str, axis: Axis, value: float, owner: str) -> None:
        node = self._layout(node_id)
        node.transform = replace(node.transform, **{axis.component: value})
        node.transform_owners[axis.component] = owner
        self.write_log.append((node_id, f"transform.{axis.component}", owner))

    def materialize(self, node_id: str, axis: Axis, requester: str) -> float:
        """Read a translation component, defaulting it to 0 if undecided.

        The default is a real layout decision: the requester becomes the
        owner, and later relations see the node as fixed on this axis.
        """
        value = self._component(node_id, axis)
        if value is None:
            self._set_component(node_id, axis, 0.0, requester)
            return 0.0
        return value

    # --- frame conversion -------------------------------------------------------

    def _legs(self, target: str, frame: str) -> tuple[list[str], list[str]]:
        """Node ids whose translations map target->lca and frame->lca.

        The target leg includes the target itself; the frame leg includes
        the frame itself; the lca's own translation belongs to neither
        (it maps the lca out of the frame both sides share). Both layout
        nodes climb to the lca by depth, the deeper side first.
        """
        up: list[str] = []
        down: list[str] = []
        a, b = target, frame
        while a != b:
            node_a, node_b = self.nodes[a], self.nodes[b]
            if node_a.parent is None and node_b.parent is None:
                raise DisconnectedNodes(target, frame)
            if node_a.depth >= node_b.depth:
                up.append(a)
                a = node_a.parent
            else:
                down.append(b)
                b = node_b.parent
        return up, down

    def bbox_in_frame(self, target: str, frame: str, axis: Axis, requester: str) -> dict[str, float | None]:
        """Target's box fields on one axis, expressed in frame coordinates.

        Walks target -> lca -> frame, materializing every undecided
        translation component on the way (owner = requester), then
        offsets the target's local values by the composed translations.
        Returns a dict over the axis's three position fields and extent;
        underdetermined fields are None.
        """
        node = self._layout(target)
        self._layout(frame)
        up, down = self._legs(target, frame)
        chain = [self.materialize(n, axis, requester) for n in up]
        back = 0.0
        for n in down:
            back += self.materialize(n, axis, requester)
        out: dict[str, float | None] = {}
        for f in axis.position_fields:
            local = bbox_get(node.bbox, f)
            if local is None:
                out[f] = None
            else:
                v = local
                for t in chain:
                    v += t
                out[f] = v - back
        out[axis.extent_field] = bbox_get(node.bbox, axis.extent_field)
        return out

    def set_dim_in_frame(self, target: str, frame: str, field_name: str, value: float, writer: str) -> None:
        """Write one dimension of target, with value given in frame coordinates.

        Extents are frame-independent and go straight into the target's
        bbox, as does any write in the target's own frame: both define
        what the node *is*. A position written from any other frame
        decides where the node *sits* and becomes its translation on the
        axis (relations move nodes, they do not reshape them). When the
        target stores no position on the axis its content sits at the
        local origin by default (the same default finalize applies), so
        the local value is derived from the extent alone. Either way the
        written dimension gets ``writer`` as its owner, and writing over
        a differently-owned dimension raises DimensionConflict naming
        both owners.
        """
        node = self._layout(target)
        axis = axis_of(field_name)
        if field_name == axis.extent_field or target == frame:
            node.bbox, node.bbox_owners = bbox_set(
                node.bbox, node.bbox_owners, field_name, value, writer, target)
            self.write_log.append((target, field_name, writer))
            return
        self._layout(frame)
        up, down = self._legs(target, frame)
        rest = 0.0
        for n in up[1:]:  # exclude the target's own translation
            rest += self.materialize(n, axis, writer)
        back = 0.0
        for n in down:
            back += self.materialize(n, axis, writer)
        local = bbox_get(node.bbox, field_name)
        if local is None:
            stored = any(
                bbox_get(node.bbox, f) is not None for f in axis.position_fields)
            extent = bbox_get(node.bbox, axis.extent_field)
            if stored or (extent is None and field_name != axis.start_field):
                # a stored position plus an unknown extent (or neither)
                # leaves the requested field unrelatable to the content
                raise UndefinedExtentError(target, field_name)
            if field_name == axis.start_field:
                local = 0.0
            elif field_name == axis.center_field:
                local = extent / 2.0
            else:
                local = extent
        implied = ((value - local) - rest) + back
        current = self._component(target, axis)
        if current is None:
            self._set_component(target, axis, implied, writer)
        elif abs(current - implied) > TOLERANCE or node.transform_owners[axis.component] != writer:
            raise DimensionConflict(
                target, field_name, node.transform_owners[axis.component], writer,
                existing_value=current, value=implied)

    # --- finalization --------------------------------------------------------

    def finalize(self) -> None:
        """Default every undecided translation to 0 and demand extents.

        Unconstrained positions are not an error: a node nobody placed
        simply stays at its local origin, owned by the root. Unknown
        extents are an error, collected per node into UnsizedNodes.
        """
        assert self.root is not None
        order = self.preorder()
        for nid in order:
            node = self.nodes[nid]
            if isinstance(node, RefNode):
                continue
            for axis in (Axis.HORIZONTAL, Axis.VERTICAL):
                if self._component(nid, axis) is None:
                    self._set_component(nid, axis, 0.0, self.root)
        unsized = tuple(
            nid for nid in order
            if isinstance(self.nodes[nid], LayoutNode)
            and (self.extent_of(nid, Axis.HORIZONTAL) is None
                 or self.extent_of(nid, Axis.VERTICAL) is None)
        )
        if unsized:
            raise UnsizedNodes(unsized)

    def preorder(self) -> tuple[str, ...]:
        assert self.root is not None
        out: list[str] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            out.append(nid)
            node = self.nodes[nid]
            if isinstance(node, LayoutNode):
                stack.extend(reversed(node.children))
        return tuple(out)

    def resolve(self) -> ResolvedScene:
        """Materialized absolute view of a finalized graph."""
        assert self.root is not None
        order = self.preorder()
        origins: dict[str, tuple[float, float]] = {}
        scene: dict[str, SceneNode] = {}
        for nid in order:
            node = self.nodes[nid]
            if isinstance(node, RefNode):
                scene[nid] = SceneNode(
                    id=nid, kind="ref", name=None, parent=node.parent, children=(),
                    path=node.path, x=0.0, y=0.0, width=0.0, height=0.0,
                    transform=(0.0, 0.0), local_left=None, local_top=None,
                    bbox_owners={}, transform_owners={}, paint_props={},
                    ref_id=node.ref_id)
                continue
            tx = node.transform.x if node.transform.x is not None else 0.0
            ty = node.transform.y if node.transform.y is not None else 0.0
            if node.parent is None:
                ox, oy = tx, ty
            else:
                px, py = origins[node.parent]
                ox, oy = px + tx, py + ty
            origins[nid] = (ox, oy)
            scene[nid] = SceneNode(
                id=nid, kind=node.kind, name=node.name, parent=node.parent,
                children=tuple(node.children), path=node.path,
                x=ox, y=oy,
                width=bbox_get(node.bbox, "width") or 0.0,
                height=bbox_get(node.bbox, "height") or 0.0,
                transform=(tx, ty),
                local_left=bbox_get(node.bbox, "left"),
                local_top=bbox_get(node.bbox, "top"),
                bbox_owners=dict(node.bbox_owners),
                transform_owners=dict(node.transform_owners),
                paint_props=dict(node.paint_props))
        return ResolvedScene(root=self.root, nodes=scene, order=order)
