"""Error types and diagnostics.

Layout and document errors carry structured fields (the node or field
involved, the owners of a conflicting dimension) so they can be turned
into user-facing diagnostics without string parsing. Diagnostics use
stable codes; tools may match on the code but never on message text.
"""

from __future__ import annotations

from dataclasses import dataclass

# Stable diagnostic codes. Codes are append-only: new failure modes get
# new codes, existing codes never change meaning. BF010, BF014 and BF015
# are no longer emitted and stay reserved, so no constant spells them.
DIMENSION_CONFLICT = "BF001"
UNRESOLVED_NAME = "BF002"
FORWARD_REFERENCE = "BF003"
UNSIZED_NODE = "BF004"
AMBIGUOUS_NAME = "BF005"
SYNTAX_ERROR = "BF006"
SCHEMA_ERROR = "BF007"
DEGENERATE_CONNECTOR = "BF008"
SELF_REFERENCE = "BF009"
DUPLICATE_NAME = "BF011"
UNDEFINED_EXTENT = "BF012"
INVALID_EXTENT = "BF013"
GEOMETRY_OVERFLOW = "BF016"
CALLBACK_ERROR = "BF017"

ERROR = "error"
WARNING = "warning"

# C0 controls, DEL and C1 controls, each spelled \xNN where a diagnostic
# is rendered, so a document's kinds and names cannot start a line or
# send a terminal escape
_CONTROLS_SPELLED = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7f, 0xa0))}


@dataclass(frozen=True)
class Diagnostic:
    """One reportable problem, bound to at least one node path."""

    code: str
    message: str
    node_paths: tuple[str, ...]
    severity: str = ERROR

    def render(self) -> str:
        """One ``severity[code]: message`` line, then one ``  at <path>`` line per node path.

        ``message`` and ``node_paths`` stay raw; only the rendered text
        spells each control character in them as ``\\xNN``.
        """
        lines = [f"{self.severity}[{self.code}]: {self.message.translate(_CONTROLS_SPELLED)}"]
        lines.extend(f"  at {path.translate(_CONTROLS_SPELLED)}" for path in self.node_paths)
        return "\n".join(lines)


class BluefishError(Exception):
    """Base class for all errors raised by this package."""


# --- geometry ---------------------------------------------------------------


class DimensionConflict(BluefishError):
    """A second writer tried to set an already-owned dimension.

    ``existing_owner`` and ``writer`` are node ids; ``node`` is the node
    whose dimension was written. Exactly one owner per dimension is the
    core immutability guarantee, so this aborts layout.
    """

    def __init__(self, node: str, field_name: str, existing_owner: str, writer: str,
                 existing_value: float | None = None, value: float | None = None):
        self.node = node
        self.field = field_name
        self.existing_owner = existing_owner
        self.writer = writer
        self.existing_value = existing_value
        self.value = value
        super().__init__(
            f"dimension {field_name!r} of node {node!r} is owned by "
            f"{existing_owner!r} and cannot be overwritten by {writer!r}"
        )


class InvalidExtent(BluefishError):
    def __init__(self, field_name: str, value: float, node: str):
        self.field = field_name
        self.value = value
        self.node = node
        super().__init__(f"extent {field_name!r} must be non-negative, got {value!r}")


class GeometryOverflow(BluefishError):
    """A derived box field, translation or origin left the float range.

    Props are finite once parsed, so this comes from arithmetic on them,
    such as a stack summing extents near the float maximum. ``field`` is
    a box field, ``transform.x``/``transform.y``, or ``x``/``y`` for a
    node's absolute origin.
    """

    def __init__(self, node: str, field_name: str, value: float):
        self.node = node
        self.field = field_name
        self.value = value
        super().__init__(f"{field_name!r} of node {node!r} overflows the float range: {value!r}")


# --- scenegraph -------------------------------------------------------------


class CreatedNodes(BluefishError):
    """A layout function created nodes: the graph is built before layout, which only decides."""

    def __init__(self, node_ids: tuple[str, ...]):
        self.node_ids = node_ids
        super().__init__(f"created node(s) {', '.join(node_ids)}; layout decides boxes and creates no node")


class UndefinedExtentError(BluefishError):
    """A relation needed a box dimension that no layout has produced."""

    def __init__(self, node: str, field_name: str):
        self.node = node
        self.field = field_name
        super().__init__(f"node {node!r} cannot report {field_name!r}")


class UnsizedNodes(BluefishError):
    def __init__(self, node_ids: tuple[str, ...]):
        self.node_ids = node_ids
        super().__init__(f"{len(node_ids)} node(s) have no derivable extent")


# --- document format --------------------------------------------------------


class DocumentSyntaxError(BluefishError):
    def __init__(self, line: int, column: int, detail: str):
        self.line = line
        self.column = column
        super().__init__(f"invalid JSON at line {line}, column {column}: {detail}")


class SchemaError(BluefishError):
    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{detail} (at {path})")


# --- registry ---------------------------------------------------------------


class DuplicateKind(BluefishError):
    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(f"element kind {kind!r} is already registered")


class InvalidKindSpec(BluefishError):
    """A spec's own facts disagree: a prop type that does not exist, or a fact about an undeclared prop."""

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        super().__init__(f"element kind {kind!r}: {detail}")


class CallbackError(BluefishError):
    """A kind's ``callback`` (``"expand"``, ``"layout"`` or ``"paint"``) raised what its stage does not report.

    An ``expand`` passes only ``SchemaError`` through, a ``layout`` only
    ``DimensionConflict``, ``UndefinedExtentError``, ``InvalidExtent`` and
    ``GeometryOverflow`` naming nodes of the graph, and a ``paint``
    nothing. A ``layout`` that creates a node is reported as having
    raised ``CreatedNodes``.

    ``path`` is the node's place as the stage that called it prints one:
    ``docformat.place_path`` for expand, ``Scenegraph.path`` for layout
    and paint; ``error_type`` and ``detail`` are the exception's.
    """

    def __init__(self, kind: str, callback: str, path: str, exc: Exception):
        self.kind = kind
        self.callback = callback
        self.path = path
        self.error_type = type(exc).__name__
        self.detail = str(exc)
        super().__init__(f"{callback} of kind {kind!r} raised {self.error_type}: {self.detail} (at {path})")
