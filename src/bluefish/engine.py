"""Pipeline orchestration: registry, graph construction, and the layout pass.

The pipeline is parse -> expand -> validate -> resolve names -> build
scenegraph -> layout -> finalize -> resolve origins. Static problems,
the ref rules included, are collected and reported together before any
layout runs, so a tree without them builds without fail. A document
with one never reaches the build or layout, and layout is where each
path's data is read into its box. Layout itself stops at the first
conflict, because a conflicting scene has no well-defined geometry to
keep going with. A kind's ``expand`` that raises anything but a
``SchemaError``, or a ``layout`` that raises anything but one of the
four errors layout reports (BF001, BF012, BF013, BF016), is one BF017.

Layout is a single post-order pass driven by the engine: every node's
layout function is invoked exactly once, after all of its children,
siblings in document order. Layout functions never recurse.
Document order is also the tiebreaker for shared dimensions: the
relation that gets there first owns the dimension, later relations must
agree or conflict.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import docformat
from .docformat import Element
from .errors import (
    CALLBACK_ERROR,
    DIMENSION_CONFLICT,
    ERROR,
    GEOMETRY_OVERFLOW,
    INVALID_EXTENT,
    SCHEMA_ERROR,
    SYNTAX_ERROR,
    UNDEFINED_EXTENT,
    UNSIZED_NODE,
    BluefishError,
    CallbackError,
    CreatedNodes,
    Diagnostic,
    DimensionConflict,
    DocumentSyntaxError,
    DuplicateKind,
    GeometryOverflow,
    InvalidExtent,
    SchemaError,
    UndefinedExtentError,
    UnsizedNodes,
)
from .relations import ElementKindSpec, standard_kind_specs
from .scenegraph import LayoutNode, RefNode, Scenegraph

_MAX_EXPANSIONS = 32

# what a layout callback may raise for the layout pass to report; anything else is a CallbackError
_LAYOUT_ERRORS = (DimensionConflict, UndefinedExtentError, InvalidExtent, GeometryOverflow)


class Registry:
    """Element kinds known to the pipeline."""

    def __init__(self) -> None:
        self.kinds: dict[str, ElementKindSpec] = {}

    def register(self, spec: ElementKindSpec) -> None:
        """Add a kind. Raises DuplicateKind for a known name, InvalidKindSpec for a bad spec."""
        if spec.kind in self.kinds:
            raise DuplicateKind(spec.kind)
        spec.check_facts()
        self.kinds[spec.kind] = spec


def _standard_kinds() -> dict[str, ElementKindSpec]:
    """The built-in kinds, registered once, which reads every derived fact of each."""
    registry = Registry()
    for spec in standard_kind_specs():
        registry.register(spec)
    return registry.kinds


_STANDARD_KINDS = _standard_kinds()


def standard_registry() -> Registry:
    """A fresh registry holding the built-in kinds; registering into it changes no other.

    The specs are built once per process and shared by every registry:
    read them, never change them. To vary a built-in kind, register a
    ``dataclasses.replace`` copy under a new name.
    """
    registry = Registry()
    registry.kinds.update(_STANDARD_KINDS)
    return registry


# --- expansion ----------------------------------------------------------------


def expand_tree(tree: Element, registry: Registry) -> Element:
    """Replace composite kinds by their expansions, outer name preserved.

    ``tree`` is what ``docformat.parse_document`` returns: its elements
    are checked and it nests no deeper than ``docformat.MAX_DEPTH``. So
    when no registered kind has ``expand``, the tree is returned as it
    is. Otherwise each expansion, and each element inside one, is checked
    by the rules parsing applies, and an error names the element's place
    as parsing does (``root.children[1]``, ``root.props.background``).
    The walk keeps its own stack and counts elements and depth as parsing
    does, the root at 1 and each child or prop mark one deeper than its
    holder, so an expansion past ``docformat.MAX_ELEMENTS`` or deeper than
    ``docformat.MAX_DEPTH`` is the same SchemaError as a document.
    """
    kinds = registry.kinds
    if all(spec.expand is None for spec in kinds.values()):
        return tree
    top = [tree]
    # (holder, key, place, depth, built): the element sits at holder[key],
    # where holder is a children list or a props dict; built is true inside
    # an expansion's output, whose elements are not yet checked
    stack: list[tuple[list | dict, int | str, object, int, bool]] = [(top, 0, None, 1, False)]
    elements = 0
    while stack:
        holder, key, place, depth, built = stack.pop()
        elements += 1
        if depth > docformat.MAX_DEPTH:
            raise SchemaError("document", docformat.TOO_DEEP)
        if elements > docformat.MAX_ELEMENTS:
            raise SchemaError("document", docformat.TOO_MANY)
        el = holder[key]
        if built:
            el = docformat.check_expansion(el, el.name, place, depth)
        rounds = 0
        while True:
            spec = kinds.get(el.kind)
            if spec is None or spec.expand is None:
                break
            rounds += 1
            if rounds > _MAX_EXPANSIONS:
                raise SchemaError(docformat.place_path(place),
                                  f"composite kind {el.kind!r} expands without terminating")
            try:
                expanded = spec.expand(dict(el.props), list(el.children))
            except SchemaError:
                raise
            except Exception as exc:
                raise CallbackError(el.kind, "expand", docformat.place_path(place), exc) from exc
            if expanded.__class__ is not Element:
                raise SchemaError(docformat.place_path(place),
                                  f"expansion of {el.kind!r} must return an element")
            el = docformat.check_expansion(
                expanded, expanded.name if el.name is None else el.name, place, depth)
            built = True
        holder[key] = el
        # pushed props first and both in reverse, so children pop first
        # and in order, as a recursive walk would visit them
        props = el.props
        for prop in reversed(props):
            if props[prop].__class__ is Element:
                stack.append((props, prop, (place, prop), depth + 1, built))
        children = el.children
        for i in range(len(children) - 1, -1, -1):
            stack.append((children, i, (place, i), depth + 1, built))
    return top[0]


# --- scenegraph construction ----------------------------------------------------

def build_scenegraph(tree: Element, refs: dict[int, int], registry: Registry) -> Scenegraph:
    """Create layout and ref nodes for every element, in document pre-order.

    The tree and ``refs`` passed ``validate`` and ``resolve_names``
    without an error, so every element builds. A node's ``paint_props``
    are its element's props over its kind's defaults, path data kept as
    the document's string. An element-valued prop (the document's
    or the spec's default) is a mark the element sizes: it becomes the
    node's first child, created right after the node, so creation order
    stays pre-order, the order ``paint`` and ``dump_scene`` write nodes
    in. Each node stores its own walk step (``stackV[1]:a``,
    ``rect(background mark)``), from which ``Scenegraph.path`` spells a
    path for a diagnostic.
    """
    graph = Scenegraph(registry)
    node_of_element: dict[int, LayoutNode] = {}
    elements, parents, indices = docformat.preorder(tree)
    for index, el in enumerate(elements):
        parent_index = parents[index]
        parent = None if parent_index is None else node_of_element[parent_index]
        step = docformat.walk_step(el, parent_index, indices[index])
        if el.kind == "ref":
            graph.create_ref(parent, node_of_element[refs[index]], step=step)
            continue
        spec = registry.kinds[el.kind]
        props = {**spec.default_props, **el.props}
        node = graph.create_node(el.kind, parent, paint_props=props, name=el.name, step=step)
        node_of_element[index] = node
        for prop in spec.element_props:
            if prop in props:
                mark = props[prop]
                graph.create_node(
                    mark.kind, node, paint_props={**registry.kinds[mark.kind].default_props, **mark.props},
                    step=f"{mark.kind}({prop} mark)")
    return graph


# --- layout ---------------------------------------------------------------------


@dataclass
class LayoutRuntime:
    """Per-run state handed to layout functions."""

    graph: Scenegraph
    registry: Registry
    warnings: list[Diagnostic] = dc_field(default_factory=list)
    calls: dict[str, int] = dc_field(default_factory=dict)

    def layout_node(self, nid: str) -> None:
        """Lay out the subtree under nid in post-order.

        Children come before their parent and siblings in document
        order, so every layout function finds its children (and, through
        refs, their referents) already laid out and never recurses.

        A layout function decides boxes of nodes that exist: one that
        creates a node, or raises a layout error naming an id the graph
        does not hold, is a CallbackError.
        """
        graph = self.graph
        nodes, kinds, calls = graph.nodes, self.registry.kinds, self.calls
        # a node to visit, or None above a node whose children are all laid out
        stack: list[LayoutNode | RefNode | None] = [nodes[nid]]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            if node is None:
                node = pop()
            elif node.is_ref:
                continue  # its referent came earlier in document order, so is done
            else:
                calls[node.id] = calls.get(node.id, 0) + 1
                if node.children:
                    push(node)
                    push(None)
                    stack.extend(map(nodes.__getitem__, reversed(node.children)))
                    continue
            layout = kinds[node.kind].layout
            if layout is None:
                continue
            count = len(nodes)
            try:
                layout(self, node, node.paint_props)
            except _LAYOUT_ERRORS as exc:
                if all(isinstance(named, str) and named in nodes for named in _named_nodes(exc)):
                    raise
                raise CallbackError(node.kind, "layout", graph.path(node.id), exc) from exc
            except Exception as exc:
                raise CallbackError(node.kind, "layout", graph.path(node.id), exc) from exc
            if len(nodes) > count:
                raise CallbackError(node.kind, "layout", graph.path(node.id),
                                    CreatedNodes(tuple(nodes)[count:]))


def _named_nodes(exc: BluefishError) -> tuple:
    """The node ids a layout error names, each of which a diagnostic spells as a path."""
    if isinstance(exc, DimensionConflict):
        return (exc.node, exc.existing_owner, exc.writer)
    return (exc.node,)


def _layout_error_diagnostic(graph: Scenegraph, exc: BluefishError) -> Diagnostic:
    if isinstance(exc, CallbackError):
        return Diagnostic(CALLBACK_ERROR, str(exc), (exc.path,))
    path = graph.path(exc.node)
    if isinstance(exc, DimensionConflict):
        owner, writer = graph.path(exc.existing_owner), graph.path(exc.writer)
        return Diagnostic(
            DIMENSION_CONFLICT,
            f"conflicting writes to {exc.field!r} of {path}: "
            f"owned by {owner}, also written by {writer}",
            (owner, writer))
    if isinstance(exc, UndefinedExtentError):
        return Diagnostic(
            UNDEFINED_EXTENT, f"{path} cannot report {exc.field!r} where a relation needs it", (path,))
    if isinstance(exc, InvalidExtent):
        return Diagnostic(INVALID_EXTENT, str(exc), (path,))
    return Diagnostic(
        GEOMETRY_OVERFLOW,
        f"geometry overflows the float range: {exc.field!r} of {path} would be {exc.value!r}",
        (path,))


def layout_document(graph: Scenegraph) -> tuple[Scenegraph | None, list[Diagnostic]]:
    """Run the single layout pass with the graph's registry, finalize and resolve.

    Returns (scene, diagnostics): the resolved graph itself, or None when
    layout aborted; the diagnostics then explain why. Warnings may
    accompany a successful scene.
    """
    rt = LayoutRuntime(graph=graph, registry=graph.registry)
    assert graph.root is not None
    try:
        rt.layout_node(graph.root)
        graph.finalize()
        graph.resolve()
    except UnsizedNodes as exc:
        paths = [graph.path(nid) for nid in exc.node_ids]
        diags = [Diagnostic(UNSIZED_NODE, f"{path} has no derivable extent after layout", (path,))
                 for path in paths]
        return None, rt.warnings + diags
    except BluefishError as exc:
        return None, rt.warnings + [_layout_error_diagnostic(graph, exc)]
    graph.layout_calls = rt.calls
    return graph, rt.warnings


# --- full pipeline ----------------------------------------------------------------


def compile_source(data: bytes | str, registry: Registry | None = None) -> tuple[Scenegraph | None, list[Diagnostic]]:
    """Document bytes in, resolved scenegraph (or diagnostics) out.

    Parsing and expansion stop at the first error; ``validate`` and
    ``resolve_names`` report every static problem together; a tree with
    none is built and laid out, and layout stops at its first error. A
    callback error (``CallbackError``) is one BF017.
    """
    registry = registry or standard_registry()
    try:
        tree = docformat.parse_document(data)
        tree = expand_tree(tree, registry)
    except DocumentSyntaxError as exc:
        return None, [Diagnostic(SYNTAX_ERROR, str(exc), ("document",))]
    except SchemaError as exc:
        return None, [Diagnostic(SCHEMA_ERROR, str(exc), (exc.path,))]
    except CallbackError as exc:
        return None, [Diagnostic(CALLBACK_ERROR, str(exc), (exc.path,))]
    diags = docformat.validate(tree, registry)
    refs, name_diags = docformat.resolve_names(tree)
    diags.extend(name_diags)
    if any(d.severity == ERROR for d in diags):
        return None, diags
    scene, layout_diags = layout_document(build_scenegraph(tree, refs, registry))
    return scene, diags + layout_diags
