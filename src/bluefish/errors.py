"""Error types and diagnostics.

Layout and document errors carry structured fields (the node or field
involved, the owners of a conflicting dimension) so they can be turned
into user-facing diagnostics without string parsing. Diagnostics use
stable codes; tools may match on the code but never on message text.
"""

from __future__ import annotations

from dataclasses import dataclass

# Stable diagnostic codes. Codes are append-only: new failure modes get
# new codes, existing codes never change meaning.
DIMENSION_CONFLICT = "BF001"
UNRESOLVED_NAME = "BF002"
FORWARD_REFERENCE = "BF003"
UNSIZED_NODE = "BF004"
AMBIGUOUS_NAME = "BF005"
SYNTAX_ERROR = "BF006"
SCHEMA_ERROR = "BF007"
DEGENERATE_CONNECTOR = "BF008"
SELF_REFERENCE = "BF009"
REF_TO_REF = "BF010"
DUPLICATE_NAME = "BF011"
UNDEFINED_EXTENT = "BF012"
INVALID_EXTENT = "BF013"
INCONSISTENT_BBOX = "BF014"
UNDEFINED_TRANSFORM = "BF015"

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One reportable problem, bound to at least one node path."""

    code: str
    message: str
    node_paths: tuple[str, ...]
    severity: str = ERROR

    def render(self) -> str:
        lines = [f"{self.severity}[{self.code}]: {self.message}"]
        lines.extend(f"  at {path}" for path in self.node_paths)
        return "\n".join(lines)


class BluefishError(Exception):
    """Base class for all errors raised by this package."""


# --- geometry ---------------------------------------------------------------


class GeometryError(BluefishError):
    pass


class DimensionConflict(GeometryError):
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


class InvalidExtent(GeometryError):
    def __init__(self, field_name: str, value: float, node: str | None = None):
        self.field = field_name
        self.value = value
        self.node = node
        super().__init__(f"extent {field_name!r} must be non-negative, got {value!r}")


class InconsistentBBox(GeometryError):
    def __init__(self, axis: str, detail: str, node: str | None = None):
        self.axis = axis
        self.node = node
        super().__init__(f"bbox fields on the {axis} axis disagree: {detail}")


class UndefinedTransform(GeometryError):
    def __init__(self, component: str):
        self.component = component
        super().__init__(f"translation component {component!r} is undefined")


# --- scenegraph -------------------------------------------------------------


class ScenegraphError(BluefishError):
    pass


class UnknownNode(ScenegraphError):
    def __init__(self, node_id: str):
        self.node = node_id
        super().__init__(f"no node with id {node_id!r}")


class UnknownParent(ScenegraphError):
    def __init__(self, parent_id: str):
        self.node = parent_id
        super().__init__(f"parent node {parent_id!r} does not exist")


class SelfReference(ScenegraphError):
    def __init__(self, ref_parent: str, referent: str):
        self.node = ref_parent
        self.referent = referent
        super().__init__(
            f"ref under {ref_parent!r} points at {referent!r}, which would "
            f"make the relation contain itself"
        )


class RefToRef(ScenegraphError):
    def __init__(self, referent: str):
        self.node = referent
        super().__init__(f"refs must point at layout nodes, not at other refs ({referent!r})")


class DisconnectedNodes(ScenegraphError):
    def __init__(self, a: str, b: str):
        self.node = a
        self.other = b
        super().__init__(f"nodes {a!r} and {b!r} share no ancestor")


class UndefinedExtentError(ScenegraphError):
    """A relation needed a box dimension that no layout has produced."""

    def __init__(self, node: str, field_name: str):
        self.node = node
        self.field = field_name
        super().__init__(f"node {node!r} cannot report {field_name!r}")


class UnsizedNodes(ScenegraphError):
    def __init__(self, node_ids: tuple[str, ...]):
        self.node_ids = node_ids
        super().__init__(f"{len(node_ids)} node(s) have no derivable extent")


# --- document format --------------------------------------------------------


class DocumentError(BluefishError):
    pass


class DocumentSyntaxError(DocumentError):
    def __init__(self, line: int, column: int, detail: str):
        self.line = line
        self.column = column
        super().__init__(f"invalid JSON at line {line}, column {column}: {detail}")


class SchemaError(DocumentError):
    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{detail} (at {path})")


# --- registry ---------------------------------------------------------------


class DuplicateKind(BluefishError):
    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(f"element kind {kind!r} is already registered (pass override=True to replace)")
