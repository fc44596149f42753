"""Pipeline orchestration: registry, graph construction, and the layout pass.

The pipeline is parse -> expand -> validate -> resolve names -> build
scenegraph -> layout -> finalize -> resolve scene. Static problems are
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
from .docformat import Element, NameTable
from .errors import (
    DIMENSION_CONFLICT,
    ERROR,
    INCONSISTENT_BBOX,
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
    InconsistentBBox,
    InvalidExtent,
    SchemaError,
    SelfReference,
    UndefinedExtentError,
    UnsizedNodes,
)
from .relations import ElementKindSpec, standard_kind_specs
from .scenegraph import RefNode, ResolvedScene, Scenegraph

_MAX_EXPANSIONS = 32


class Registry:
    """Element kinds known to the pipeline."""

    def __init__(self) -> None:
        self.kinds: dict[str, ElementKindSpec] = {}

    def register(self, spec: ElementKindSpec, override: bool = False) -> None:
        if spec.kind in self.kinds and not override:
            raise DuplicateKind(spec.kind)
        self.kinds[spec.kind] = spec


def register_element_kind(registry: Registry, spec: ElementKindSpec, override: bool = False) -> Registry:
    registry.register(spec, override)
    return registry


def standard_registry() -> Registry:
    """A fresh registry holding the built-in kinds."""
    registry = Registry()
    for spec in standard_kind_specs():
        registry.register(spec)
    return registry


# --- expansion ----------------------------------------------------------------


def expand_tree(tree: Element, registry: Registry) -> Element:
    """Replace composite kinds by their expansions, outer name preserved."""

    def expand(el: Element) -> Element:
        rounds = 0
        while True:
            spec = registry.kinds.get(el.kind)
            if spec is None or spec.expand is None:
                break
            rounds += 1
            if rounds > _MAX_EXPANSIONS:
                raise SchemaError(el.kind, f"composite kind {el.kind!r} expands without terminating")
            name = el.name
            expanded = spec.expand(dict(el.props), list(el.children))
            if not isinstance(expanded, Element):
                raise SchemaError(el.kind, f"expansion of {el.kind!r} must return an element")
            el = expanded
            if name is not None:
                el.name = name
        el.children = [expand(c) for c in el.children]
        for key, value in el.props.items():
            if isinstance(value, Element):
                el.props[key] = expand(value)
        return el

    return expand(tree)


# --- scenegraph construction ----------------------------------------------------

_DEFAULT_BACKGROUND_MARK = Element(
    kind="rect", props={"fill": "none", "stroke": "black", "strokeWidth": 1.0})


def _normalized_props(el: Element, spec: ElementKindSpec) -> dict:
    props = dict(spec.defaults())
    props.update(el.props)
    props.pop("background", None)  # consumed structurally below
    return props


def build_scenegraph(tree: Element, names: NameTable, registry: Registry) -> Scenegraph:
    """Create layout and ref nodes for every element, in document order.

    Background elements grow an extra first child for their mark (the
    user-supplied one or a plain outlined rect), so paint order falls out
    of plain pre-order traversal.
    """
    graph = Scenegraph()
    node_of_element: dict[int, str] = {}
    for index, (el, path, parent_index) in enumerate(docformat.walk(tree)):
        parent = None if parent_index is None else node_of_element[parent_index]
        if el.kind == "ref":
            referent_index = names.refs.get(index)
            assert referent_index is not None, "unresolved ref survived static checks"
            assert parent is not None, "a ref cannot be the document root"
            referent = node_of_element[referent_index]
            try:
                graph.create_ref(parent, referent, path=path)
            except SelfReference:
                raise SelfReference(path, graph.nodes[referent].path) from None
            continue
        spec = registry.kinds[el.kind]
        nid = graph.create_node(
            el.kind, parent, paint_props=_normalized_props(el, spec),
            name=el.name, path=path)
        node_of_element[index] = nid
        if el.kind == "background":
            mark = el.props.get("background")
            if not isinstance(mark, Element):
                mark = _DEFAULT_BACKGROUND_MARK
            mark_spec = registry.kinds[mark.kind]
            mark_id = graph.create_node(
                mark.kind, nid, paint_props=_normalized_props(mark, mark_spec),
                path=f"{path}/{mark.kind}(background mark)")
            graph.background_marks[nid] = mark_id
    return graph


# --- layout ---------------------------------------------------------------------


@dataclass
class LayoutRuntime:
    """Per-run state handed to layout functions."""

    graph: Scenegraph
    registry: Registry
    warnings: list[Diagnostic] = dc_field(default_factory=list)
    calls: dict[str, int] = dc_field(default_factory=dict)
    _done: set[str] = dc_field(default_factory=set)

    def layout_node(self, nid: str) -> None:
        """Lay out the subtree under nid in post-order.

        Children come before their parent and siblings in document
        order, so every layout function finds its children (and, through
        refs, their referents) already laid out and never recurses.
        """
        stack: list[tuple[str, bool]] = [(nid, False)]
        while stack:
            nid, children_done = stack.pop()
            node = self.graph.nodes[nid]
            if isinstance(node, RefNode):
                # referents precede their refs in document order, so by
                # the time the walk reaches a ref the target is done
                assert node.ref_id in self._done, "ref reached before its referent"
                continue
            if not children_done:
                assert nid not in self._done, f"layout invoked twice for {nid}"
                self.calls[nid] = self.calls.get(nid, 0) + 1
                stack.append((nid, True))
                stack.extend((child, False) for child in reversed(node.children))
                continue
            spec = self.registry.kinds[node.kind]
            if spec.layout is not None:
                spec.layout(self, nid, node.paint_props)
            self._done.add(nid)

    def background_mark(self, nid: str) -> str:
        return self.graph.background_marks[nid]

    def path_of(self, nid: str) -> str:
        return self.graph.nodes[nid].path

    def warn(self, diag: Diagnostic) -> None:
        self.warnings.append(diag)


def _path(graph: Scenegraph, node_id: str | None) -> str:
    if node_id is None:
        return "?"
    node = graph.nodes.get(node_id)
    return node.path if node is not None else node_id


def _layout_error_diagnostic(graph: Scenegraph, exc: BluefishError) -> Diagnostic:
    if isinstance(exc, DimensionConflict):
        return Diagnostic(
            DIMENSION_CONFLICT,
            f"conflicting writes to {exc.field!r} of {_path(graph, exc.node)}: "
            f"owned by {_path(graph, exc.existing_owner)}, "
            f"also written by {_path(graph, exc.writer)}",
            (_path(graph, exc.existing_owner), _path(graph, exc.writer)))
    if isinstance(exc, UndefinedExtentError):
        return Diagnostic(
            UNDEFINED_EXTENT,
            f"{_path(graph, exc.node)} cannot report {exc.field!r} where a relation needs it",
            (_path(graph, exc.node),))
    if isinstance(exc, InvalidExtent):
        return Diagnostic(INVALID_EXTENT, str(exc), (_path(graph, exc.node),))
    if isinstance(exc, InconsistentBBox):
        return Diagnostic(INCONSISTENT_BBOX, str(exc), (_path(graph, exc.node),))
    raise exc


def layout_document(graph: Scenegraph, registry: Registry) -> tuple[ResolvedScene | None, list[Diagnostic]]:
    """Run the single layout pass and finalize.

    Returns (scene, diagnostics). The scene is None when layout aborted;
    the diagnostics then explain why. Warnings may accompany a
    successful scene.
    """
    rt = LayoutRuntime(graph=graph, registry=registry)
    assert graph.root is not None
    try:
        rt.layout_node(graph.root)
        graph.finalize()
    except UnsizedNodes as exc:
        diags = [
            Diagnostic(UNSIZED_NODE,
                       f"{_path(graph, nid)} has no derivable extent after layout",
                       (_path(graph, nid),))
            for nid in exc.node_ids
        ]
        return None, rt.warnings + diags
    except BluefishError as exc:
        return None, rt.warnings + [_layout_error_diagnostic(graph, exc)]
    scene = graph.resolve()
    scene.layout_calls = dict(rt.calls)
    return scene, rt.warnings


# --- full pipeline ----------------------------------------------------------------


def compile_source(data: bytes | str, registry: Registry | None = None) -> tuple[ResolvedScene | None, list[Diagnostic]]:
    """Document bytes in, resolved scene (or diagnostics) out."""
    registry = registry or standard_registry()
    try:
        tree = docformat.parse_document(data)
        tree = expand_tree(tree, registry)
    except DocumentSyntaxError as exc:
        return None, [Diagnostic(SYNTAX_ERROR, str(exc), ("document",))]
    except SchemaError as exc:
        return None, [Diagnostic(SCHEMA_ERROR, str(exc), (exc.path,))]
    diags = docformat.validate(tree, registry)
    table, name_diags = docformat.resolve_names(tree)
    diags.extend(name_diags)
    if any(d.severity == ERROR for d in diags):
        return None, diags
    try:
        graph = build_scenegraph(tree, table, registry)
    except SelfReference as exc:
        return None, diags + [Diagnostic(SELF_REFERENCE, str(exc), (exc.node, exc.referent))]
    scene, layout_diags = layout_document(graph, registry)
    return scene, diags + layout_diags
