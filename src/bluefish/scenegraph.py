"""The compound scenegraph: a tree plus reference edges.

Layout nodes form an ordinary tree. Ref nodes are leaves whose ``ref_id``
points at an earlier layout node, turning the tree into a DAG-shaped
view: a relation can lay out elements it does not own by reading and
writing them *through* the tree, in its own coordinate frame.

Each layout node stores what layout decides for it as its own fields: a
box start and extent per axis (``left``/``width``, ``top``/``height``)
and a translation (``tx``/``ty``), each None until decided. A box is
whole or absent: ``decide`` takes no extent before its start. A centre
or end is never stored: a read derives it as ``start + extent / 2.0`` or
``start + extent``. Coordinates are strictly local. A node's box lives
in its own frame and its translation maps that frame into the parent's.
Converting between frames composes translations along the paths to the
least common ancestor (``climb``); for a relation's own child that path
is the child's own translation, so only a read or write through a ref
climbs: ``bbox_in_frame`` (named fields of one node), ``span_in_frame``
(the span a relation covers) and ``set_dim_in_frame`` (a write) take
that first step themselves. A relation reads and writes in its own
frame, and the frame owns what it decides or defaults: each dimension
it writes, and each undecided translation component on the path, which
a read defaults to 0 (a span read only when asked to pin). Asking
"where is X relative to me?" is only answerable once the undecided
offsets in between are pinned down, and pinning them is itself a
layout decision that must be owned.
``finalize`` defaults what no relation reached, owned by the root.

Ownership is the immutability mechanism: each box start and extent and
each translation component is written at most once, by exactly one
owner, and a second writer is a conflict rather than a silent overwrite.
The owner sits on the same record as the value, in the node's one
``owners`` map, keyed by field name in write order.
``Scenegraph.decide`` is the one place that keeps this rule. It checks a
write before making it, then stores the value and its owner on the node
and notes which node was written; a rejected write leaves the node, its
owners and ``write_log`` as they were.

The methods below take and return node records (``LayoutNode`` and
``RefNode``), never ids, so a relation reaches a node it does not own
without a lookup. Ids remain where a node is recorded or printed: the
``nodes`` table, the stored ``parent``/``children``/``ref_id`` links, the
owner map, ``write_log`` and errors. The links stay ids because records
pointing both ways would form reference cycles, which would keep a
finished graph alive until the cyclic garbage collector runs.

Nothing here is shared or global: each Scenegraph instance is confined
to its creating pipeline run, and every layout decision goes through
``decide``, so ``write_log`` lists each write in order. ``resolve`` then
stores the absolute origins those decisions imply on the same node
records, and the resolved graph is the scene that output reads, with
the owner maps and ``write_log`` as the provenance of every dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import (
    DimensionConflict,
    GeometryOverflow,
    InvalidExtent,
    UndefinedExtentError,
    UnsizedNodes,
)
from .geometry import AXES, TOLERANCE, Axis, axis_of

if TYPE_CHECKING:
    from .engine import Registry

#: Each field a node stores, by its owner-map key: (node attribute, the start an extent needs).
_STORED = {
    **{axis.start_field: (axis.start_field, None) for axis in Axis},
    **{axis.extent_field: (axis.extent_field, axis.start_field) for axis in Axis},
    **{axis.transform_field: (axis.translation, None) for axis in Axis},
}


@dataclass
class LayoutNode:
    """One layout node, the same record from build through layout to output.

    ``left``/``width``/``top``/``height`` are the box in the node's own
    frame and ``tx``/``ty`` its translation into the parent's, each None
    until ``Scenegraph.decide`` stores it, and ``owners`` maps each
    decided field (``left``, ``width``, ``top``, ``height``,
    ``transform.x``, ``transform.y``) to its owner's id, in write order.
    ``x``/``y`` are the node's frame origin in root coordinates (the sum
    of translations from the root down to and including this node), set
    by ``Scenegraph.resolve``; the box start may differ from the origin
    for relations whose content does not begin at 0. ``segment`` is the
    ``(x1, y1, x2, y2)`` a connector's layout clipped, None when nothing
    of it is visible or the node is no connector. ``step`` is the node's
    own segment of its walk path (``stackV[1]:a``, ``rect(background
    mark)``); ``Scenegraph.path`` spells the whole path from the steps.
    """

    id: str
    kind: str
    left: float | None = None
    width: float | None = None
    top: float | None = None
    height: float | None = None
    tx: float | None = None
    ty: float | None = None
    owners: dict[str, str] = field(default_factory=dict)
    children: list[str] = field(default_factory=list)
    parent: str | None = None
    paint_props: dict = field(default_factory=dict)
    name: str | None = None
    step: str = ""
    depth: int = 0  # edges from the root; frame conversion climbs by it
    x: float = 0.0
    y: float = 0.0
    segment: tuple[float, float, float, float] | None = None

    is_ref = False

    def content_box(self) -> tuple[float, float, float, float]:
        """Absolute (left, top, width, height) of the node's content."""
        return (self.x + self.left, self.y + self.top, self.width, self.height)


@dataclass
class RefNode:
    """An edge to an earlier layout node; in a scene, a leaf that paints nothing."""

    id: str
    ref_id: str
    parent: str | None = None
    step: str = ""

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
        self._written: list[str] = []  # the id of each node written, one per write
        self.layout_calls: dict[str, int] = {}  # node -> layout calls, set by layout_document

    # --- construction -------------------------------------------------------

    def create_node(
        self,
        kind: str,
        parent: LayoutNode | None,
        paint_props: dict | None = None,
        name: str | None = None,
        step: str = "",
    ) -> LayoutNode:
        nid = f"n{len(self.nodes)}"
        node = LayoutNode(id=nid, kind=kind, paint_props={} if paint_props is None else paint_props,
                          name=name, step=step or nid)
        if parent is None:
            # the build makes one root, so any two layout nodes share an
            # ancestor (see climb); a layout that creates a node is a BF017
            self.root = nid
        else:
            node.parent, node.depth = parent.id, parent.depth + 1
            parent.children.append(nid)
        self.nodes[nid] = node
        return node

    def create_ref(self, parent: LayoutNode, referent: LayoutNode, step: str = "") -> RefNode:
        """Store the edge from ``parent`` to ``referent`` as ``parent``'s last child, as given.

        ``docformat.resolve_names`` rejects an edge to ``parent`` or an ancestor of it (BF009).
        """
        nid = f"n{len(self.nodes)}"
        ref = RefNode(id=nid, ref_id=referent.id, parent=parent.id, step=step or nid)
        self.nodes[nid] = ref
        parent.children.append(nid)
        return ref

    # --- accessors ------------------------------------------------------------

    def target_of(self, child_id: str) -> LayoutNode:
        """Follow a ref to its referent; layout nodes are their own target."""
        node = self.nodes[child_id]
        return self.nodes[node.ref_id] if node.is_ref else node

    def path(self, nid: str) -> str:
        """The node's walk path, ``group/stackV[1]:a/rect[0]``, for a diagnostic to print.

        A node stores only its own step (its id, when created without
        one), so the path is spelled here, by climbing to the root.
        """
        nodes = self.nodes
        node = nodes[nid]
        steps = [node.step]
        while node.parent is not None:
            node = nodes[node.parent]
            steps.append(node.step)
        return "/".join(reversed(steps))

    def marks(self) -> list[LayoutNode]:
        kinds = self.registry.kinds
        return [node for node in self.nodes.values() if kinds[node.kind].is_mark]

    @property
    def write_log(self) -> list[tuple[str, str, str]]:
        """Every write so far as ``(node, field, owner)``, in write order.

        ``decide`` writes a field once, so the k-th write to a node is the
        k-th entry of its ``owners``.
        """
        entries = {nid: iter(self.nodes[nid].owners.items()) for nid in set(self._written)}
        return [(nid, *next(entries[nid])) for nid in self._written]

    # --- decisions ------------------------------------------------------------

    def decide(self, node: LayoutNode, field_name: str, value: float, owner: LayoutNode) -> None:
        """Store one box start or extent, or one translation component, owned by ``owner``.

        ``field_name`` is ``left``, ``width``, ``top``, ``height``,
        ``transform.x`` or ``transform.y``; any other name raises
        ValueError (a box stores no centre or end). A NaN or infinite
        value raises GeometryOverflow and a negative extent
        InvalidExtent, and an extent whose start is undecided
        UndefinedExtentError naming the start, so a reader that finds an
        extent finds a start. The same owner repeating the value within
        TOLERANCE changes nothing; any other second write raises
        DimensionConflict naming both owners. Every check runs before
        the write, and only a write that happens is logged.
        """
        try:
            attr, start = _STORED[field_name]
        except KeyError:
            raise ValueError(
                f"{field_name!r} is not a box start or extent or a translation component") from None
        if not math.isfinite(value):
            raise GeometryOverflow(node.id, field_name, value)
        owners = node.owners
        if start is not None:
            if value < 0:
                raise InvalidExtent(field_name, value, node.id)
            if start not in owners:
                raise UndefinedExtentError(node.id, start)
        if field_name in owners:
            existing_owner = owners[field_name]
            existing = getattr(node, attr)
            if existing_owner == owner.id and abs(existing - value) <= TOLERANCE:
                return
            raise DimensionConflict(node.id, field_name, existing_owner, owner.id,
                                    existing_value=existing, value=value)
        setattr(node, attr, value)
        owners[field_name] = owner.id
        self._written.append(node.id)

    # --- frame conversion -------------------------------------------------------

    def climb(self, target: LayoutNode, frame: LayoutNode,
              axis: Axis) -> tuple[list[float], float, list[LayoutNode]]:
        """The legs between target and frame on ``axis``, and the undecided nodes on them.

        The target leg lists the target's own translation and then each
        ancestor's up to the lca; the frame leg is the sum of the frame's
        and its ancestors' upward from 0.0. The lca's own translation
        belongs to neither (it maps the lca out of the frame both sides
        share). Both layout nodes climb to the lca by depth, the deeper
        side first; the graph has one root, so the climbs meet before
        either side runs out. An undecided component reads 0 and its node
        is listed, the target leg's upward and then the frame leg's. The
        climb writes nothing; a caller that defaults those nodes pins them.

        A climb runs only through a ref: for the frame's own child it is
        the child's own translation alone, a step ``bbox_in_frame``,
        ``span_in_frame`` and ``set_dim_in_frame`` take themselves.
        """
        nodes = self.nodes
        horizontal = axis is Axis.HORIZONTAL
        chain: list[float] = []
        back = 0.0
        undecided: list[LayoutNode] = []
        frame_undecided: list[LayoutNode] = []
        a, b = target, frame
        while a is not b:
            if a.depth >= b.depth:
                t = a.tx if horizontal else a.ty
                if t is None:
                    t = 0.0
                    undecided.append(a)
                chain.append(t)
                a = nodes[a.parent]
            else:
                t = b.tx if horizontal else b.ty
                if t is None:
                    t = 0.0
                    frame_undecided.append(b)
                back += t
                b = nodes[b.parent]
        undecided += frame_undecided
        return chain, back, undecided

    def bbox_in_frame(self, target: LayoutNode, frame: LayoutNode, axis: Axis,
                      *fields: str) -> list[float | None]:
        """The named box fields of target on one axis, expressed in frame coordinates.

        ``fields`` are any of the axis's start, centre, end and extent,
        and the values come back in the order named, None where the
        target has not decided them. The frame owns each translation the
        read defaults on the way (see ``climb``). A position is the local
        value plus the target leg's translations, one add per node
        upward, minus the frame leg's sum; an extent is the same in every
        frame. Only the named fields are computed. A read of the frame's
        own child takes the climb's first step here, so only a read
        through a ref climbs.
        """
        horizontal = axis is Axis.HORIZONTAL
        if target.parent == frame.id:
            # the climb's first step, which reaches the frame
            t = target.tx if horizontal else target.ty
            if t is None:
                t = 0.0
                self.decide(target, axis.transform_field, t, frame)
            chain, back = (t,), 0.0
        else:
            chain, back, undecided = self.climb(target, frame, axis)
            for n in undecided:
                self.decide(n, axis.transform_field, 0.0, frame)
        if horizontal:
            start, extent = target.left, target.width
        else:
            start, extent = target.top, target.height
        out: list[float | None] = []
        for f in fields:
            if f == axis.extent_field:
                out.append(extent)
                continue
            if f == axis.start_field:
                v = start
            elif f != axis.center_field and f != axis.end_field:
                raise ValueError(f"{f!r} is not a field of the {axis.value} axis")
            elif extent is None:
                v = None
            else:
                v = start + (extent / 2.0 if f == axis.center_field else extent)
            if v is not None:
                for t in chain:
                    v += t
                v -= back
            out.append(v)
        return out

    def span_in_frame(self, targets: list[LayoutNode], frame: LayoutNode, axis: Axis,
                      pin: bool) -> tuple[float, float]:
        """The least start and greatest end of the targets' boxes on ``axis``, in frame coordinates.

        With ``pin`` the frame owns each undecided translation on the way,
        decided as 0 before the target's extent is checked, as in
        ``bbox_in_frame``. Without it one reads 0 and stays undecided, so
        a later relation can still place that target through a ref. A
        target with no box is an UndefinedExtentError.
        """
        horizontal = axis is Axis.HORIZONTAL
        lo, hi = math.inf, -math.inf
        for target in targets:
            if target.parent == frame.id:
                # the climb's first step, which reaches the frame
                t = target.tx if horizontal else target.ty
                if t is None:
                    t = 0.0
                    if pin:
                        self.decide(target, axis.transform_field, t, frame)
                chain, back = (t,), 0.0
            else:
                chain, back, undecided = self.climb(target, frame, axis)
                if pin:
                    for n in undecided:
                        self.decide(n, axis.transform_field, 0.0, frame)
            start, extent = (target.left, target.width) if horizontal else (target.top, target.height)
            if extent is None:
                raise UndefinedExtentError(target.id, axis.extent_field)
            end = start + extent
            for t in chain:
                start += t
                end += t
            lo, hi = min(lo, start - back), max(hi, end - back)
        return lo, hi

    def set_dim_in_frame(self, target: LayoutNode, frame: LayoutNode, field_name: str,
                         value: float) -> None:
        """Write one dimension of target, with value given in frame coordinates.

        The frame owns what it decides or defaults; ``decide`` stores
        each write under that rule. Extents are frame-independent and go
        straight into the target's box, as does a start written in the
        target's own frame: both define what the node *is* (the box
        stores nothing else, so a centre or end in the own frame raises
        ValueError). A position written from any other frame decides
        where the node *sits* and becomes its translation on the axis
        (relations move nodes, they do not reshape them), so the target
        must have a box on the axis, or UndefinedExtentError names the
        field. The legs climb from the target's parent: a relation writes
        its children and their referents, never the root. The legs of
        the frame's own child are empty, so only a write through a ref
        climbs.
        """
        axis = axis_of(field_name)
        if field_name == axis.extent_field or target is frame:
            self.decide(target, field_name, value, frame)
            return
        if target.parent == frame.id:
            rest = back = 0.0  # the parent is the frame: the climb takes no step
        else:
            chain, back, undecided = self.climb(self.nodes[target.parent], frame, axis)
            for n in undecided:
                self.decide(n, axis.transform_field, 0.0, frame)
            rest = 0.0
            for t in chain:
                rest += t
        extent = getattr(target, axis.extent_field)
        if extent is None:
            raise UndefinedExtentError(target.id, field_name)
        local = getattr(target, axis.start_field)
        if field_name != axis.start_field:
            local += axis.offset(field_name, extent)
        self.decide(target, axis.transform_field, ((value - local) - rest) + back, frame)

    # --- finalization --------------------------------------------------------

    def finalize(self) -> None:
        """Default every undecided translation to 0 and demand extents.

        Unconstrained positions are not an error: a node nobody placed
        simply stays at its local origin, owned by the root. Unknown
        extents are an error, collected per node into UnsizedNodes.
        Decided means owned: the owner map is the one record of a
        decision, so a value a layout stored around ``decide`` counts as
        undecided.
        """
        assert self.root is not None
        root = self.nodes[self.root]
        layout_nodes = [node for node in self.nodes.values() if isinstance(node, LayoutNode)]
        for node in layout_nodes:
            for axis in AXES:
                if axis.transform_field not in node.owners:
                    self.decide(node, axis.transform_field, 0.0, root)
        unsized = tuple(
            node.id for node in layout_nodes
            if "width" not in node.owners or "height" not in node.owners)
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
            x, y = node.tx, node.ty
            if node.parent is not None:
                parent = nodes[node.parent]
                x, y = parent.x + x, parent.y + y
                if not math.isfinite(x):
                    raise GeometryOverflow(node.id, "x", x)
                if not math.isfinite(y):
                    raise GeometryOverflow(node.id, "y", y)
            node.x, node.y = x, y
        return self
