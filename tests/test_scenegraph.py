"""Compound scenegraph: refs, lazy transforms, frames, and finalize."""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bluefish import (
    Scenegraph,
    build_scenegraph,
    compile_source,
    expand_tree,
    parse_document,
    resolve_names,
    standard_registry,
    validate,
)
from bluefish.errors import (
    BluefishError,
    DimensionConflict,
    GeometryOverflow,
    InvalidExtent,
    UndefinedExtentError,
    UnsizedNodes,
)
from bluefish.engine import layout_document
from bluefish.geometry import AXES, TOLERANCE, Axis, axis_of
from bluefish.scenegraph import LayoutNode

from conftest import FIXTURES
from generators import random_ref_free_doc, random_stack_triplet
from workloads import WORKLOADS

extents = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _size(g: Scenegraph, node: LayoutNode, w: float, h: float) -> LayoutNode:
    """Decide node's own box at the origin, each start before its extent."""
    for field, value in (("left", 0.0), ("top", 0.0), ("width", w), ("height", h)):
        g.set_dim_in_frame(node, node, field, value)
    return node


def _rect(g: Scenegraph, parent: LayoutNode | None, w: float, h: float) -> LayoutNode:
    return _size(g, g.create_node("rect", parent), w, h)


# --- construction ------------------------------------------------------------------


def test_ids_are_sequential_and_children_keep_order():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = g.create_node("rect", root)
    b = g.create_node("rect", root)
    assert (root.id, a.id, b.id) == ("n0", "n1", "n2")
    assert g.nodes["n1"] is a
    assert root.children == ["n1", "n2"]
    assert (a.parent, a.depth) == ("n0", 1)
    assert g.root == "n0"


def test_ref_resolves_to_its_referent():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = _rect(g, root, 10, 10)
    stack = g.create_node("stackV", root)
    ref = g.create_ref(stack, a)
    assert (ref.id, ref.ref_id, ref.parent) == ("n3", a.id, stack.id)
    assert stack.children == [ref.id]
    assert g.target_of(ref.id) is a
    assert g.target_of(a.id) is a


# --- the single-write rule ------------------------------------------------------------


def _leaf() -> tuple[Scenegraph, LayoutNode, LayoutNode]:
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    return g, root, g.create_node("rect", root)


def _state(g: Scenegraph, node: LayoutNode) -> tuple:
    return (node.left, node.width, node.top, node.height, node.tx, node.ty,
            dict(node.owners), list(g.write_log))


def test_decide_records_the_value_its_owner_and_one_log_entry():
    g, root, a = _leaf()
    assert g.decide(a, "left", 10.0, root) is None
    assert (a.left, a.width, a.top, a.height) == (10.0, None, None, None)
    assert a.owners == {"left": root.id}
    assert g.write_log == [(a.id, "left", root.id)]


@pytest.mark.parametrize("extent, start", [("width", "left"), ("height", "top")])
def test_an_extent_needs_its_start_first(extent, start):
    # a box is whole or absent: no reader meets an extent without a start
    g, root, a = _leaf()
    g.decide(a, "top" if start == "left" else "left", 0.0, a)  # the other axis's start is no help
    before = _state(g, a)
    with pytest.raises(UndefinedExtentError) as excinfo:
        g.decide(a, extent, 10.0, root)
    assert (excinfo.value.node, excinfo.value.field) == (a.id, start)
    assert _state(g, a) == before
    g.decide(a, start, 0.0, a)
    g.decide(a, extent, 10.0, root)  # any owner, once the start is owned
    assert a.owners[extent] == root.id


def test_same_owner_same_value_is_a_noop():
    g, _, a = _leaf()
    g.decide(a, "left", 4.0, a)
    g.decide(a, "left", 4.0 + TOLERANCE / 2, a)
    assert (a.left, a.width, a.top, a.height) == (4.0, None, None, None)
    assert a.owners == {"left": a.id}
    assert g.write_log == [(a.id, "left", a.id)]


def test_same_owner_different_value_conflicts():
    g, _, a = _leaf()
    g.decide(a, "left", 4.0, a)
    with pytest.raises(DimensionConflict):
        g.decide(a, "left", 5.0, a)


def test_second_owner_conflicts_and_is_named_with_the_first():
    g, root, a = _leaf()
    g.decide(a, "top", 0.0, a)
    with pytest.raises(DimensionConflict) as excinfo:
        g.decide(a, "top", 0.0, root)
    conflict = excinfo.value
    assert (conflict.node, conflict.field, conflict.existing_owner, conflict.writer) == (
        a.id, "top", a.id, root.id)


def test_negative_extent_rejected():
    g, _, a = _leaf()
    with pytest.raises(InvalidExtent) as excinfo:
        g.decide(a, "width", -1.0, a)
    assert (excinfo.value.node, excinfo.value.field) == (a.id, "width")


def test_non_finite_value_rejected():
    g, _, a = _leaf()
    with pytest.raises(GeometryOverflow):
        g.decide(a, "left", math.nan, a)
    with pytest.raises(GeometryOverflow) as excinfo:
        g.decide(a, "width", math.inf, a)
    assert (excinfo.value.node, excinfo.value.field, excinfo.value.value) == (a.id, "width", math.inf)


def test_translations_obey_the_same_rule():
    g, root, a = _leaf()
    g.decide(a, "transform.x", -5.0, root)  # unlike an extent, a translation may be negative
    g.decide(a, "transform.x", -5.0 + TOLERANCE / 2, root)
    assert (a.tx, a.ty) == (-5.0, None)
    assert a.owners == {"transform.x": root.id}
    with pytest.raises(DimensionConflict) as excinfo:
        g.decide(a, "transform.x", -5.0, a)
    assert (excinfo.value.field, excinfo.value.existing_owner, excinfo.value.writer) == (
        "transform.x", root.id, a.id)
    with pytest.raises(GeometryOverflow) as excinfo:
        g.decide(a, "transform.y", math.inf, root)
    assert excinfo.value.field == "transform.y"
    assert g.write_log == [(a.id, "transform.x", root.id)]


@given(field_name=st.sampled_from(("left", "width", "top", "height", "transform.x", "transform.y")),
       value=extents, other=extents)
def test_every_stored_field_is_write_once(field_name, value, other):
    g, root, a = _leaf()
    g.decide(a, {"width": "left", "height": "top"}.get(field_name, field_name), value, a)
    g.decide(a, field_name, value, a)
    with pytest.raises(DimensionConflict):
        g.decide(a, field_name, other, root)


@pytest.mark.parametrize("field_name, value, by_root, error", [
    ("width", math.nan, False, GeometryOverflow),
    ("height", -1.0, False, InvalidExtent),
    ("left", 0.0, True, DimensionConflict),
    ("transform.x", math.inf, False, GeometryOverflow),
    ("transform.y", 1.0, True, DimensionConflict),
    ("centerX", 10.0, False, ValueError),  # a box stores no centre or end
    ("right", 25.0, False, ValueError),
])
def test_rejected_write_changes_nothing(field_name, value, by_root, error):
    g, root, a = _leaf()
    for f, v in (("left", 0.0), ("width", 20.0), ("top", 5.0), ("transform.y", 1.0)):
        g.decide(a, f, v, a)
    before = _state(g, a)
    with pytest.raises(error):
        g.decide(a, field_name, value, root if by_root else a)
    assert _state(g, a) == before


def _laid_out_graph(data: bytes) -> Scenegraph | None:
    """The graph after layout, up to its first layout error; None if it is never built."""
    registry = standard_registry()
    tree = expand_tree(parse_document(data), registry)
    table, name_diags = resolve_names(tree)
    if any(d.severity == "error" for d in validate(tree, registry) + name_diags):
        return None
    graph = build_scenegraph(tree, table, registry)
    layout_document(graph)
    return graph


def _invariant_documents() -> list[tuple[str, bytes]]:
    docs = [(p.stem, p.read_bytes()) for p in sorted(FIXTURES.glob("*.json"))]
    for seed in range(50):
        rng = random.Random(seed)
        for i, doc in enumerate(random_stack_triplet(rng)):
            docs.append((f"triplet-{seed}-{i}", json.dumps(doc).encode()))
        docs.append((f"ref-free-{seed}", json.dumps(random_ref_free_doc(rng)).encode()))
    return docs


_FIELD_OWNER_KEYS = (  # (node field, owner-map key): the six values a node stores
    ("left", "left"), ("width", "width"), ("top", "top"), ("height", "height"),
    ("tx", "transform.x"), ("ty", "transform.y"),
)


def test_write_log_holds_one_entry_per_owned_field_and_nothing_else():
    # every decision, laid out or rejected, has one owner-map entry and one
    # log entry with the same owner, and a node holds a value exactly where
    # it has an owner; a second route into the fields or the map would break this
    checked = 0
    for name, data in _invariant_documents():
        graph = _laid_out_graph(data)
        if graph is None:
            continue
        logged = {(nid, f): owner for nid, f, owner in graph.write_log}
        assert len(logged) == len(graph.write_log), name
        owned = {}
        for node in graph.nodes.values():
            if node.is_ref:
                continue
            owned.update(((node.id, f), owner) for f, owner in node.owners.items())
            assert set(node.owners) <= {key for _, key in _FIELD_OWNER_KEYS}, (name, node.id)
            for field, key in _FIELD_OWNER_KEYS:
                assert (getattr(node, field) is not None) == (key in node.owners), (
                    name, node.id, field)
        assert logged == owned, name
        checked += 1
    assert checked == 210


# --- write semantics ---------------------------------------------------------------


def test_own_frame_write_defines_the_local_box_only():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 20.0)
    assert a.left == 0.0 and a.width == 10.0
    assert a.tx is None
    assert "transform.x" not in a.owners and "transform.y" not in a.owners


def test_cross_frame_write_moves_without_reshaping():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 20.0)
    g.set_dim_in_frame(a, root, "left", 25.0)
    assert a.tx == 25.0
    assert a.owners["transform.x"] == root.id
    assert a.left == 0.0  # the local box is untouched
    assert "transform.y" not in a.owners


def test_cross_frame_write_derives_local_position_from_extent():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = g.create_node("rect", root)
    g.set_dim_in_frame(a, a, "left", 2.0)
    g.set_dim_in_frame(a, a, "width", 10.0)
    g.set_dim_in_frame(a, root, "centerX", 0.0)
    assert a.tx == -7.0


@pytest.mark.parametrize("decided", [(), ("left",)])
def test_start_write_needs_the_targets_box(decided):
    # a relation places a box: with no extent there is none, start or not
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = g.create_node("rect", root)
    for field in decided:
        g.set_dim_in_frame(a, a, field, 2.0)
    with pytest.raises(UndefinedExtentError) as excinfo:
        g.set_dim_in_frame(a, root, "left", 7.0)
    assert (excinfo.value.node, excinfo.value.field) == (a.id, "left")
    assert a.tx is None


def test_center_write_with_no_extent_is_underivable():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = g.create_node("rect", root)
    with pytest.raises(UndefinedExtentError):
        g.set_dim_in_frame(a, root, "centerX", 0.0)


def test_stored_position_with_underivable_field_is_an_error():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = g.create_node("path", root)
    g.set_dim_in_frame(a, a, "left", 3.0)  # position but no width
    with pytest.raises(UndefinedExtentError):
        g.set_dim_in_frame(a, root, "centerX", 10.0)


def test_double_placement_conflicts_with_both_owners():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    first = g.create_node("align", root)
    second = g.create_node("align", root)
    g.set_dim_in_frame(a, first, "top", 0.0)
    with pytest.raises(DimensionConflict) as excinfo:
        g.set_dim_in_frame(a, second, "top", 30.0)
    assert excinfo.value.existing_owner == first.id
    assert excinfo.value.writer == second.id
    assert excinfo.value.field == "transform.y"  # what the position decides


def test_same_writer_same_value_is_idempotent():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    g.set_dim_in_frame(a, root, "top", 12.0)
    g.set_dim_in_frame(a, root, "top", 12.0)
    assert a.ty == 12.0
    # a box field repeated by its owner is no write either, so it is logged once
    g.set_dim_in_frame(a, a, "width", 10.0)
    assert a.width == 10.0
    assert g.write_log.count((a.id, "width", a.id)) == 1
    assert g.write_log.count((a.id, "transform.y", root.id)) == 1


def test_writes_are_logged():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    before = len(g.write_log)
    g.set_dim_in_frame(a, root, "left", 1.0)
    assert len(g.write_log) == before + 1


# --- defaults of frame reads ----------------------------------------------------------


def test_read_through_frames_defaults_undecided_transforms():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    inner = g.create_node("group", root)
    a = _rect(g, inner, 10.0, 10.0)
    frame = g.create_node("align", root)
    assert g.bbox_in_frame(a, frame, Axis.HORIZONTAL, "left") == [0.0]
    assert inner.tx == 0.0
    # the reading frame owns every translation it defaulted on both legs
    assert inner.owners["transform.x"] == frame.id
    assert a.owners["transform.x"] == frame.id
    assert frame.owners["transform.x"] == frame.id
    assert root.tx is None


def test_frame_read_keeps_decided_translations():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    other = g.create_node("align", root)
    g.set_dim_in_frame(a, root, "left", 40.0)
    assert g.bbox_in_frame(a, other, Axis.HORIZONTAL, "left") == [40.0]
    assert a.tx == 40.0
    assert a.owners["transform.x"] == root.id
    assert other.owners["transform.x"] == other.id  # only the undecided leg is defaulted


def test_write_into_a_sibling_frame_composes_both_legs():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    g1 = g.create_node("group", root)
    g2 = g.create_node("group", root)
    a = _rect(g, g1, 10.0, 10.0)
    g.set_dim_in_frame(a, g2, "left", 40.0)
    assert g.bbox_in_frame(a, g2, Axis.HORIZONTAL, "left") == [40.0]
    # both legs got pinned on the way, owned by the writing frame
    assert g1.tx == 0.0
    assert g2.tx == 0.0
    assert a.owners["transform.x"] == g1.owners["transform.x"] == g2.owners["transform.x"] == g2.id


@given(depth=st.integers(min_value=1, max_value=4),
       value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_frame_coherence_after_a_write(depth, value):
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    parent = root
    for _ in range(depth):
        parent = g.create_node("group", parent)
    a = _rect(g, parent, 10.0, 10.0)
    g.set_dim_in_frame(a, root, "left", value)
    (left,) = g.bbox_in_frame(a, root, Axis.HORIZONTAL, "left")
    assert left == pytest.approx(value, abs=1e-9)


def test_read_from_a_deeper_frame_subtracts_the_frame_leg():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    outer = _size(g, g.create_node("group", root), 1.0, 1.0)
    inner = g.create_node("group", outer)
    g.set_dim_in_frame(a, root, "left", 30.0)
    g.set_dim_in_frame(outer, root, "left", 5.0)
    assert g.bbox_in_frame(a, inner, Axis.HORIZONTAL, "left") == [25.0]
    assert inner.owners["transform.x"] == inner.id  # frame leg pinned by the frame
    assert root.tx is None  # the lca's own translation is untouched


# --- frame conversion climbs only through refs ----------------------------------------


def test_ref_free_documents_compile_without_a_climb(monkeypatch):
    # a relation reads and writes its own children in one step of its own;
    # only a ref reaches a node whose parent is not the relation
    climbs = []
    climb = Scenegraph.climb

    def counted(self, target, frame, axis):
        climbs.append((target.id, frame.id))
        return climb(self, target, frame, axis)

    monkeypatch.setattr(Scenegraph, "climb", counted)
    rng = random.Random(34)
    docs = [json.dumps(random_ref_free_doc(rng)).encode() for _ in range(100)]
    docs += [doc.data for doc in itertools.islice(WORKLOADS["service-mix"].stream(7), 40)
             if doc.ref_free and doc.planted is None]
    for data in docs:
        scene, diags = compile_source(data)
        assert scene is not None, [d.render() for d in diags]
    assert len(docs) > 100
    assert climbs == []
    scene, _ = compile_source((FIXTURES / "ref_stack.json").read_bytes())
    assert scene is not None and climbs  # the count sees a climb through a ref


def _random_tree(rng: random.Random) -> Scenegraph:
    """Up to 13 nodes, each with a random part of its box and translation decided."""
    g = Scenegraph(standard_registry())
    nodes = [g.create_node("group", None)]
    for _ in range(rng.randint(1, 12)):
        nodes.append(g.create_node("group", rng.choice(nodes)))
    for node in nodes:
        for axis in AXES:
            if rng.random() < 0.8:
                g.decide(node, axis.start_field, rng.choice((0.0, rng.uniform(-50.0, 50.0))), node)
                if rng.random() < 0.8:
                    g.decide(node, axis.extent_field, rng.uniform(0.0, 50.0), node)
            if rng.random() < 0.5:
                g.decide(node, axis.transform_field, rng.choice((-0.0, rng.uniform(-50.0, 50.0))),
                          rng.choice(nodes))
    return g


def _climbing_read(g: Scenegraph, target: LayoutNode, frame: LayoutNode, axis: Axis,
                   *fields: str) -> list[float | None]:
    """``bbox_in_frame`` by the general rule: climb, pin what the climb lists, convert."""
    chain, back, undecided = g.climb(target, frame, axis)
    for n in undecided:
        g.decide(n, axis.transform_field, 0.0, frame)
    start, extent = getattr(target, axis.start_field), getattr(target, axis.extent_field)
    out = []
    for f in fields:
        if f == axis.extent_field:
            out.append(extent)
            continue
        if f == axis.start_field:
            v = start
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


def _climbing_write(g: Scenegraph, target: LayoutNode, frame: LayoutNode, field_name: str,
                    value: float) -> None:
    """``set_dim_in_frame`` by the general rule: the legs climb from the target's parent."""
    axis = axis_of(field_name)
    if field_name == axis.extent_field or target is frame:
        g.decide(target, field_name, value, frame)
        return
    chain, back, undecided = g.climb(g.nodes[target.parent], frame, axis)
    for n in undecided:
        g.decide(n, axis.transform_field, 0.0, frame)
    rest = 0.0
    for t in chain:
        rest += t
    extent = getattr(target, axis.extent_field)
    if extent is None:
        raise UndefinedExtentError(target.id, field_name)
    local = getattr(target, axis.start_field)
    if field_name != axis.start_field:
        local += axis.offset(field_name, extent)
    g.decide(target, axis.transform_field, ((value - local) - rest) + back, frame)


def _climbing_span(g: Scenegraph, targets: list[LayoutNode], frame: LayoutNode, axis: Axis,
                   pin: bool) -> tuple[float, float]:
    """``span_in_frame`` by the general rule: climb for every target, pin what it lists with ``pin``."""
    lo, hi = math.inf, -math.inf
    for target in targets:
        chain, back, undecided = g.climb(target, frame, axis)
        if pin:
            for n in undecided:
                g.decide(n, axis.transform_field, 0.0, frame)
        start, extent = getattr(target, axis.start_field), getattr(target, axis.extent_field)
        if extent is None:
            raise UndefinedExtentError(target.id, axis.extent_field)
        end = start + extent
        for t in chain:
            start += t
            end += t
        lo, hi = min(lo, start - back), max(hi, end - back)
    return lo, hi


def _replay(g: Scenegraph, ops: list[tuple], read, write, span) -> list[str]:
    """What each op returns or raises, then every node's fields and owners, then the write log."""
    calls = {"read": read, "write": write, "span": span}
    seen = []
    for op, child, frame, *args in ops:
        target = [g.nodes[c] for c in child] if op == "span" else g.nodes[child]
        try:
            seen.append(repr(calls[op](g, target, g.nodes[frame], *args)))
        except BluefishError as error:
            seen.append(f"{type(error).__name__}: {error}")
    seen.extend(repr((n.left, n.width, n.top, n.height, n.tx, n.ty, list(n.owners.items())))
                for n in g.nodes.values())
    seen.append(repr(g.write_log))
    return seen


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_own_child_reads_and_writes_follow_the_climb_rule(seed):
    # bbox_in_frame, span_in_frame and set_dim_in_frame take the climb's
    # first step themselves for a frame's own child; twin trees replay the
    # same ops through them and through the climb, and must agree bit for
    # bit. A span mixes the frame's own children with nodes a ref could
    # reach: any node that is not the frame or one of its ancestors
    rng = random.Random(seed)
    g = _random_tree(random.Random(seed))
    pairs = [(n.id, n.parent) for n in g.nodes.values() if n.parent is not None]
    ops = []
    for _ in range(rng.randint(1, 12)):
        child, frame = rng.choice(pairs)
        axis = rng.choice(AXES)
        op = rng.choice(("read", "write", "span"))
        if op == "read":
            ops.append(("read", child, frame, axis, *rng.sample(axis.fields, rng.randint(1, 4))))
        elif op == "write":
            ops.append(("write", child, frame, rng.choice(axis.fields),
                        rng.choice((0.0, -0.0, rng.uniform(-80.0, 80.0)))))
        else:
            up, enclosing = frame, set()
            while up is not None:
                enclosing.add(up)
                up = g.nodes[up].parent
            outside = [nid for nid in g.nodes if nid not in enclosing]
            targets = [child if rng.random() < 0.5 else rng.choice(outside)
                       for _ in range(rng.randint(1, 4))]
            ops.append(("span", targets, frame, axis, rng.random() < 0.5))
    assert (_replay(g, ops, Scenegraph.bbox_in_frame, Scenegraph.set_dim_in_frame, Scenegraph.span_in_frame)
            == _replay(_random_tree(random.Random(seed)), ops,
                       _climbing_read, _climbing_write, _climbing_span))


# --- finalize and resolve ----------------------------------------------------------


def test_finalize_defaults_transforms_to_zero_owned_by_root():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = _rect(g, root, 10.0, 10.0)
    _size(g, root, 10.0, 10.0)
    g.finalize()
    assert a.tx == 0.0
    assert a.owners["transform.x"] == root.id


def test_finalize_reports_unsized_nodes():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = g.create_node("rect", root)  # never sized
    _size(g, root, 1.0, 1.0)
    with pytest.raises(UnsizedNodes) as excinfo:
        g.finalize()
    assert a.id in excinfo.value.node_ids


def test_resolve_accumulates_origins_down_the_tree():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    inner = g.create_node("group", root)
    a = _rect(g, inner, 10.0, 10.0)
    for node in (root, inner):
        _size(g, node, 20.0, 20.0)
    g.set_dim_in_frame(inner, root, "left", 5.0)
    g.set_dim_in_frame(inner, root, "top", 0.0)
    g.set_dim_in_frame(a, inner, "left", 2.0)
    g.set_dim_in_frame(a, inner, "top", 0.0)
    g.finalize()
    scene = g.resolve()
    assert scene is g and scene.nodes[a.id] is a and a.x == 7.0
    assert a.content_box() == (7.0, 0.0, 10.0, 10.0)
    assert tuple(scene.nodes)[0] == root.id


def test_a_translation_beyond_the_float_range_is_not_written():
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    a = g.create_node("path", root)
    for field, value in (("left", -sys.float_info.max), ("top", 0.0), ("width", 1.0), ("height", 1.0)):
        g.set_dim_in_frame(a, a, field, value)
    log = list(g.write_log)
    with pytest.raises(GeometryOverflow) as excinfo:
        g.set_dim_in_frame(a, root, "left", sys.float_info.max)
    assert (excinfo.value.node, excinfo.value.field) == (a.id, "transform.x")
    assert a.tx is None and g.write_log == log


@pytest.mark.parametrize("start, origin", [("left", "x"), ("top", "y")])
def test_origins_beyond_the_float_range_overflow_in_resolve(start, origin):
    g = Scenegraph(standard_registry())
    root = g.create_node("group", None)
    outer = g.create_node("group", root)
    inner = _rect(g, outer, 1.0, 1.0)
    for node in (root, outer):
        _size(g, node, 1.0, 1.0)
    g.set_dim_in_frame(outer, root, start, 1e308)
    g.set_dim_in_frame(inner, outer, start, 1e308)
    g.finalize()
    with pytest.raises(GeometryOverflow) as excinfo:
        g.resolve()
    assert (excinfo.value.node, excinfo.value.field) == (inner.id, origin)


# --- creation order -------------------------------------------------------------


def _preorder(nodes: dict, root: str) -> tuple[str, ...]:
    out: list[str] = []
    stack = [root]
    while stack:
        nid = stack.pop()
        out.append(nid)
        stack.extend(reversed(nodes[nid].children))
    return tuple(out)


@pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_built_graphs_and_scenes_are_in_preorder(fixture):
    # background_ref_arrow mixes a background, refs and an arrow
    data = (FIXTURES / f"{fixture}.json").read_bytes()
    registry = standard_registry()
    tree = expand_tree(parse_document(data), registry)
    table, _ = resolve_names(tree)
    graph = build_scenegraph(tree, table, registry)
    assert tuple(graph.nodes) == _preorder(graph.nodes, graph.root)
    scene, _ = compile_source(data)
    if fixture == "conflict_two_aligns":
        assert scene is None
    else:
        assert tuple(scene.nodes) == _preorder(scene.nodes, scene.root)


@pytest.mark.parametrize("fixture", sorted(
    p.stem for p in FIXTURES.glob("*.json") if p.stem != "conflict_two_aligns"))
def test_finished_scenes_are_freed_without_the_cycle_collector(fixture):
    # the stored links are ids, so a scene and its records form no reference cycle
    gc.collect()
    gc.disable()
    try:
        scene, _ = compile_source((FIXTURES / f"{fixture}.json").read_bytes())
        refs = [weakref.ref(scene)] + [weakref.ref(node) for node in scene.nodes.values()]
        del scene
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()
