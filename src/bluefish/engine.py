"""Pipeline orchestration: registry, graph construction, and the layout pass.

The pipeline is parse -> expand -> validate -> resolve names -> build
scenegraph -> layout -> finalize -> resolve origins. Static problems are
collected and reported together before any layout runs; layout itself
stops at the first conflict, because a conflicting scene has no
well-defined geometry to keep going with.

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
    DIMENSION_CONFLICT,
    ERROR,
    GEOMETRY_OVERFLOW,
    INVALID_EXTENT,
    SCHEMA_ERROR,
    SELF_REFERENCE,
    SYNTAX_ERROR,
    UNDEFINED_EXTENT,
    UNSIZED_NODE,
    BluefishError,
    Diagnostic,
    DimensionConflict,
    DocumentSyntaxError,
    DuplicateKind,
    GeometryOverflow,
    InvalidExtent,
    SchemaError,
    SelfReference,
    UndefinedExtentError,
    UnsizedNodes,
)
from .relations import ElementKindSpec, standard_kind_specs
from .scenegraph import LayoutNode, RefNode, Scenegraph

_MAX_EXPANSIONS = 32


class Registry:
    """Element kinds known to the pipeline."""

    def __init__(self) -> None:
        self.kinds: dict[str, ElementKindSpec] = {}

    def register(self, spec: ElementKindSpec) -> None:
        if spec.kind in self.kinds:
            raise DuplicateKind(spec.kind)
        self.kinds[spec.kind] = spec


def standard_registry() -> Registry:
    """A fresh registry holding the built-in kinds."""
    registry = Registry()
    for spec in standard_kind_specs():
        registry.register(spec)
    return registry


# --- expansion ----------------------------------------------------------------


def expand_tree(tree: Element, registry: Registry) -> Element:
    """Replace composite kinds by their expansions, outer name preserved.

    An expansion error names the element's place as parsing does
    (``root.children[1]``, ``root.props.background``).
    """

    def expand(el: Element, path: str) -> Element:
        rounds = 0
        while True:
            spec = registry.kinds.get(el.kind)
            if spec is None or spec.expand is None:
                break
            rounds += 1
            if rounds > _MAX_EXPANSIONS:
                raise SchemaError(path, f"composite kind {el.kind!r} expands without terminating")
            name = el.name
            expanded = spec.expand(dict(el.props), list(el.children))
            if not isinstance(expanded, Element):
                raise SchemaError(path, f"expansion of {el.kind!r} must return an element")
            el = expanded
            if name is not None:
                el.name = name
        el.children = [expand(c, f"{path}.children[{i}]") for i, c in enumerate(el.children)]
        for key, value in el.props.items():
            if isinstance(value, Element):
                el.props[key] = expand(value, f"{path}.props.{key}")
        return el

    return expand(tree, "root")


# --- scenegraph construction ----------------------------------------------------

def _normalized_props(el: Element, spec: ElementKindSpec) -> dict:
    return {**spec.defaults(), **el.props}


def build_scenegraph(tree: Element, refs: dict[int, int], registry: Registry) -> Scenegraph:
    """Create layout and ref nodes for every element, in document pre-order.

    An element-valued prop (the document's or the spec's default) is a
    mark the element sizes: it becomes the node's first child, created
    right after the node, so creation order stays pre-order and paint
    order falls out of plain pre-order traversal.
    """
    graph = Scenegraph(registry)
    node_of_element: dict[int, LayoutNode] = {}
    for index, (el, path, parent_index) in enumerate(docformat.walk(tree)):
        parent = None if parent_index is None else node_of_element[parent_index]
        if el.kind == "ref":
            referent_index = refs.get(index)
            assert referent_index is not None, "unresolved ref survived static checks"
            assert parent is not None, "a ref cannot be the document root"
            referent = node_of_element[referent_index]
            try:
                graph.create_ref(parent, referent, path=path)
            except SelfReference:
                raise SelfReference(parent.path, referent.path, ref=path) from None
            continue
        spec = registry.kinds[el.kind]
        props = _normalized_props(el, spec)
        node = graph.create_node(el.kind, parent, paint_props=props, name=el.name, path=path)
        node_of_element[index] = node
        for prop, prop_type in spec.prop_types.items():
            if prop_type == "element" and prop in props:
                mark = props[prop]
                graph.create_node(
                    mark.kind, node, paint_props=_normalized_props(mark, registry.kinds[mark.kind]),
                    path=f"{path}/{mark.kind}({prop} mark)")
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
        """
        nodes = self.graph.nodes
        stack: list[tuple[LayoutNode | RefNode, bool]] = [(nodes[nid], False)]
        while stack:
            node, children_done = stack.pop()
            if node.is_ref:
                continue  # its referent came earlier in document order, so is done
            if not children_done:
                self.calls[node.id] = self.calls.get(node.id, 0) + 1
                stack.append((node, True))
                stack.extend((nodes[child], False) for child in reversed(node.children))
                continue
            spec = self.registry.kinds[node.kind]
            if spec.layout is not None:
                spec.layout(self, node, node.paint_props)

    def warn(self, diag: Diagnostic) -> None:
        self.warnings.append(diag)


def _layout_error_diagnostic(graph: Scenegraph, exc: BluefishError) -> Diagnostic:
    if not isinstance(exc, (DimensionConflict, UndefinedExtentError, InvalidExtent, GeometryOverflow)):
        raise exc
    nodes = graph.nodes
    path = nodes[exc.node].path
    if isinstance(exc, DimensionConflict):
        owner, writer = nodes[exc.existing_owner].path, nodes[exc.writer].path
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
        paths = [graph.nodes[nid].path for nid in exc.node_ids]
        diags = [Diagnostic(UNSIZED_NODE, f"{path} has no derivable extent after layout", (path,))
                 for path in paths]
        return None, rt.warnings + diags
    except BluefishError as exc:
        return None, rt.warnings + [_layout_error_diagnostic(graph, exc)]
    graph.layout_calls = rt.calls
    return graph, rt.warnings


# --- full pipeline ----------------------------------------------------------------


def compile_source(data: bytes | str, registry: Registry | None = None) -> tuple[Scenegraph | None, list[Diagnostic]]:
    """Document bytes in, resolved scenegraph (or diagnostics) out."""
    registry = registry or standard_registry()
    try:
        tree = docformat.parse_document(data)
        tree = expand_tree(tree, registry)
    except DocumentSyntaxError as exc:
        return None, [Diagnostic(SYNTAX_ERROR, str(exc), ("document",))]
    except SchemaError as exc:
        return None, [Diagnostic(SCHEMA_ERROR, str(exc), (exc.path,))]
    diags = docformat.validate(tree, registry)
    refs, name_diags = docformat.resolve_names(tree)
    diags.extend(name_diags)
    if any(d.severity == ERROR for d in diags):
        return None, diags
    try:
        graph = build_scenegraph(tree, refs, registry)
    except SelfReference as exc:
        return None, diags + [Diagnostic(SELF_REFERENCE, str(exc), (exc.ref, exc.referent))]
    scene, layout_diags = layout_document(graph)
    return scene, diags + layout_diags
