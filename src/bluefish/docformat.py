"""The JSON document format: parsing, validation, and name resolution.

A document is ``{"bluefish": 1, "root": <element>}``. Elements carry a
``kind``, an optional ``name``, a ``props`` object, and ``children``;
``ref`` elements instead carry ``select``. Parsing checks shape only;
``validate`` checks meaning against a kind registry and returns
diagnostics rather than raising, so every problem in a document is
reported in one pass.

Names are scoped: an element's scope is the subtree of its nearest named
ancestor (the root for top-level names), and a name must be unique
within its scope. A single-segment selector matches against all names in
the document and is ambiguous if it matches twice; a path selector
resolves segment by segment, each step searching only the local scope of
the previous match, so relations can hide their internals behind one
public name. Referents must precede their refs in document order.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field as dc_field

from .errors import (
    AMBIGUOUS_NAME,
    DUPLICATE_NAME,
    ERROR,
    FORWARD_REFERENCE,
    SCHEMA_ERROR,
    UNRESOLVED_NAME,
    Diagnostic,
    DocumentSyntaxError,
    SchemaError,
)
from .geometry import path_control_points

FORMAT_VERSION = 1
_DOCUMENT_KEYS = {"bluefish", "root"}
_ELEMENT_KEYS = {"kind", "name", "props", "children", "select"}
_TOO_DEEP = "document nests too deeply"
_MAX_NUMBER = sys.float_info.max
# What XML, and so SVG, cannot carry: C0 controls other than tab, LF and
# CR, lone surrogates (UTF-8 cannot encode them) and U+FFFE/U+FFFF.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass
class Element:
    kind: str
    name: str | None = None
    props: dict[str, object] = dc_field(default_factory=dict)
    children: list["Element"] = dc_field(default_factory=list)
    select: list[str] | None = None


def _parse_element(raw: object, path: str) -> Element:
    if not isinstance(raw, dict):
        raise SchemaError(path, f"element must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _ELEMENT_KEYS
    if unknown:
        raise SchemaError(path, f"unknown element key(s): {', '.join(sorted(unknown))}")
    kind = raw.get("kind")
    if not isinstance(kind, str) or not kind:
        raise SchemaError(path, "element requires a non-empty string 'kind'")
    name = raw.get("name")
    if name is not None and (not isinstance(name, str) or not name):
        raise SchemaError(path, "'name' must be a non-empty string")
    select = raw.get("select")
    if select is not None:
        if isinstance(select, str):
            select = [select]
        elif isinstance(select, list) and select and all(isinstance(s, str) and s for s in select):
            select = list(select)
        else:
            raise SchemaError(path, "'select' must be a string or a non-empty list of strings")
    props_raw = raw.get("props", {})
    if not isinstance(props_raw, dict):
        raise SchemaError(path, "'props' must be an object")
    props: dict[str, object] = {}
    for key, value in props_raw.items():
        if isinstance(value, dict):
            # element-valued prop: a mark the holder sizes
            props[key] = _parse_element(value, f"{path}.props.{key}")
        elif isinstance(value, bool) or value is None or isinstance(value, list):
            raise SchemaError(f"{path}.props.{key}", "prop values must be numbers, strings, or elements")
        elif isinstance(value, (int, float)):
            if not -_MAX_NUMBER <= value <= _MAX_NUMBER:  # NaN, infinities, huge integers
                raise SchemaError(f"{path}.props.{key}", "prop values must be finite numbers")
            props[key] = float(value)
        else:  # a string: json.loads yields no other value
            bad = _NOT_XML_CHAR.search(value)
            if bad is not None:
                raise SchemaError(f"{path}.props.{key}", f"SVG cannot carry {bad.group()!r} in a string")
            props[key] = value
    children_raw = raw.get("children", [])
    if not isinstance(children_raw, list):
        raise SchemaError(path, "'children' must be a list")
    children = [
        _parse_element(c, f"{path}.children[{i}]") for i, c in enumerate(children_raw)
    ]
    return Element(kind=kind, name=name, props=props, children=children, select=select)


def parse_document(data: bytes | str) -> Element:
    """Parse document bytes into an element tree.

    Raises DocumentSyntaxError (with line and column) for malformed
    JSON, SchemaError (with a document path) for structural problems,
    including nesting deeper than the parser's recursion allows, and
    for string props holding characters SVG cannot carry.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # line and column counted as JSONDecodeError counts them, in characters
            prefix = data[:exc.start].decode("utf-8")
            raise DocumentSyntaxError(prefix.count("\n") + 1, len(prefix) - prefix.rfind("\n"),
                                      "document is not valid UTF-8") from exc
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.lineno, exc.colno, exc.msg) from exc
    except RecursionError:
        raise SchemaError("document", _TOO_DEEP) from None
    if not isinstance(raw, dict):
        raise SchemaError("document", "document must be a JSON object")
    unknown = set(raw) - _DOCUMENT_KEYS
    if unknown:
        raise SchemaError("document", f"unknown document key(s): {', '.join(sorted(unknown))}")
    if raw.get("bluefish") != FORMAT_VERSION:
        raise SchemaError("document", f"'bluefish' must be {FORMAT_VERSION}, got {raw.get('bluefish')!r}")
    if "root" not in raw:
        raise SchemaError("document", "document requires a 'root' element")
    try:
        return _parse_element(raw["root"], "root")
    except RecursionError:
        raise SchemaError("document", _TOO_DEEP) from None


def _element_to_json(el: Element) -> dict:
    out: dict[str, object] = {"kind": el.kind}
    if el.name is not None:
        out["name"] = el.name
    if el.select is not None:
        out["select"] = el.select[0] if len(el.select) == 1 else list(el.select)
    if el.props:
        props: dict[str, object] = {}
        for key in sorted(el.props):
            value = el.props[key]
            if isinstance(value, Element):
                props[key] = _element_to_json(value)
            elif isinstance(value, float) and value.is_integer():
                props[key] = int(value)
            else:
                props[key] = value
        out["props"] = props
    if el.children:
        out["children"] = [_element_to_json(c) for c in el.children]
    return out


def print_document(tree: Element) -> bytes:
    """Canonical serialization; parse(print(parse(x))) == parse(x)."""
    doc = {"bluefish": FORMAT_VERSION, "root": _element_to_json(tree)}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


# --- paths and traversal ------------------------------------------------------


def walk(tree: Element):
    """Yield (element, path, parent_index) in pre-order.

    The path is readable, ``kind[index]`` per level with ``:name`` where
    present, and each one extends its parent's. ``parent_index`` is the
    parent's position in this same pre-order, None for the root, so a
    caller can derive any per-ancestor fact from its parent's entry.
    """
    stack: list[tuple[Element, str, int | None]] = [
        (tree, f"{tree.kind}:{tree.name}" if tree.name else tree.kind, None)]
    index = 0
    while stack:
        el, path, parent = stack.pop()
        yield el, path, parent
        for i in range(len(el.children) - 1, -1, -1):
            child = el.children[i]
            seg = f"{path}/{child.kind}[{i}]"
            stack.append((child, f"{seg}:{child.name}" if child.name else seg, index))
        index += 1


# --- validation ---------------------------------------------------------------


def _check_props(el: Element, path: str, spec, kinds: dict, diags: list[Diagnostic],
                 require: bool = True) -> None:
    allowed = set(spec.required_props) | set(spec.optional_props)
    for prop in spec.required_props:
        if require and prop not in el.props:
            diags.append(Diagnostic(
                SCHEMA_ERROR, f"{el.kind} requires prop {prop!r} (MissingProp)", (path,)))
    for prop, value in el.props.items():
        if prop not in allowed:
            diags.append(Diagnostic(
                SCHEMA_ERROR, f"{el.kind} does not accept prop {prop!r}", (path,)))
            continue
        expected = spec.prop_types.get(prop, "number")
        if expected == "number":
            if not isinstance(value, float):
                diags.append(Diagnostic(
                    SCHEMA_ERROR, f"prop {prop!r} of {el.kind} must be a number", (path,)))
        elif expected == "string" or expected == "path":
            if not isinstance(value, str):
                diags.append(Diagnostic(
                    SCHEMA_ERROR, f"prop {prop!r} of {el.kind} must be a string", (path,)))
            elif expected == "path":
                try:
                    path_control_points(value)
                except ValueError as exc:
                    diags.append(Diagnostic(SCHEMA_ERROR, f"invalid path data: {exc}", (path,)))
        elif expected == "element":
            if isinstance(value, Element):
                _check_sized_mark(value, f"{path}.props.{prop}", prop, kinds, diags)
            else:
                diags.append(Diagnostic(
                    SCHEMA_ERROR, f"prop {prop!r} of {el.kind} must be an element", (path,)))
        if prop in spec.enum_props and isinstance(value, str) and value not in spec.enum_props[prop]:
            options = ", ".join(spec.enum_props[prop])
            diags.append(Diagnostic(
                SCHEMA_ERROR,
                f"prop {prop!r} of {el.kind} must be one of {options}; got {value!r} (BadEnumValue)",
                (path,)))
        if prop in spec.nonnegative_props and isinstance(value, float) and value < 0:
            diags.append(Diagnostic(
                SCHEMA_ERROR, f"prop {prop!r} of {el.kind} must be non-negative", (path,)))
        if prop in spec.positive_props and isinstance(value, float) and value <= 0:
            diags.append(Diagnostic(
                SCHEMA_ERROR, f"prop {prop!r} of {el.kind} must be positive", (path,)))


def _sized_by_holder(spec) -> bool:
    """A mark whose required props are all numbers: sizes its holder supplies."""
    return spec.is_mark and all(
        spec.prop_types.get(prop, "number") == "number" for prop in spec.required_props)


def _check_sized_mark(mark: Element, path: str, prop: str, kinds: dict,
                      diags: list[Diagnostic]) -> None:
    """Check the mark an element-valued prop holds; the holder supplies its sizes."""
    spec = kinds.get(mark.kind)
    if spec is None or not _sized_by_holder(spec):
        options = ", ".join(sorted(k for k, s in kinds.items() if _sized_by_holder(s)))
        diags.append(Diagnostic(
            SCHEMA_ERROR, f"{prop} mark must be one of {options}; got {mark.kind!r}", (path,)))
        return
    if mark.children or mark.name or mark.select:
        diags.append(Diagnostic(SCHEMA_ERROR, f"{prop} mark must be a bare mark element", (path,)))
    _check_props(mark, path, spec, kinds, diags, require=False)


def validate(tree: Element, registry) -> list[Diagnostic]:
    """Check the tree against a kind registry. Returns all problems found."""
    diags: list[Diagnostic] = []
    for el, path, _ in walk(tree):
        spec = registry.kinds.get(el.kind)
        if spec is None:
            diags.append(Diagnostic(
                SCHEMA_ERROR, f"unknown element kind {el.kind!r} (UnknownKind)", (path,)))
            continue
        if el.kind == "ref":
            if el.children:
                diags.append(Diagnostic(
                    SCHEMA_ERROR, "ref elements cannot have children (RefWithChildren)", (path,)))
            if el.name is not None:
                diags.append(Diagnostic(SCHEMA_ERROR, "ref elements cannot be named", (path,)))
            if el.select is None:
                diags.append(Diagnostic(
                    SCHEMA_ERROR, "ref requires 'select' (MissingProp)", (path,)))
            if el.props:
                diags.append(Diagnostic(SCHEMA_ERROR, "ref elements take no props", (path,)))
            continue
        if el.select is not None:
            diags.append(Diagnostic(
                SCHEMA_ERROR, f"'select' is only valid on ref elements, not {el.kind}", (path,)))
        if spec.expand is not None:
            continue  # composite kinds are checked after expansion
        _check_props(el, path, spec, registry.kinds, diags)
        if spec.is_mark and el.children:
            diags.append(Diagnostic(
                SCHEMA_ERROR, f"mark kind {el.kind!r} cannot have children", (path,)))
        if spec.min_children is not None and len(el.children) < spec.min_children:
            want = "child" if spec.min_children == 1 else "children"
            diags.append(Diagnostic(
                SCHEMA_ERROR,
                f"{el.kind} requires at least {spec.min_children} {want}, got {len(el.children)}",
                (path,)))
        if spec.exact_children is not None and len(el.children) != spec.exact_children:
            want = "child" if spec.exact_children == 1 else "children"
            diags.append(Diagnostic(
                SCHEMA_ERROR,
                f"{el.kind} requires exactly {spec.exact_children} {want}, got {len(el.children)}",
                (path,)))
    return diags


# --- name resolution ----------------------------------------------------------


def resolve_names(tree: Element) -> tuple[dict[int, int], list[Diagnostic]]:
    """Resolve every ref's selector to a referent element.

    Returns the resolved refs, keyed by pre-order element index (ref
    index -> referent index), and any diagnostics (unresolved, ambiguous,
    duplicate, or forward references). Resolution always runs to the end
    so all problems surface together.
    """
    order: list[tuple[Element, str, int | None]] = list(walk(tree))
    refs: dict[int, int] = {}
    diags: list[Diagnostic] = []

    # scope owner of an element = nearest named ancestor (root scope: -1)
    scope_of: list[int] = []
    named: list[tuple[int, str, int, str]] = []  # (index, name, scope, path)
    for i, (el, path, parent) in enumerate(order):
        if parent is None:
            owner = -1
        else:
            owner = parent if order[parent][0].name else scope_of[parent]
        scope_of.append(owner)
        if el.name and el.kind != "ref":
            named.append((i, el.name, owner, path))

    by_scope: dict[tuple[int, str], list[int]] = {}
    by_name: dict[str, list[int]] = {}
    for i, name, scope, path in named:
        key = (scope, name)
        if key in by_scope:
            first = by_scope[key][0]
            diags.append(Diagnostic(
                DUPLICATE_NAME,
                f"name {name!r} is already used in this scope (DuplicateNameInScope)",
                (path, order[first][1])))
        by_scope.setdefault(key, []).append(i)
        by_name.setdefault(name, []).append(i)

    for i, (el, path, _) in enumerate(order):
        if el.kind != "ref" or not el.select:
            continue
        selector = el.select
        head = selector[0]
        candidates = by_name.get(head, [])
        if not candidates:
            diags.append(Diagnostic(
                UNRESOLVED_NAME, f"no element named {head!r} (selector {'/'.join(selector)!r})", (path,)))
            continue
        if len(candidates) > 1:
            where = ", ".join(order[c][1] for c in candidates)
            diags.append(Diagnostic(
                AMBIGUOUS_NAME,
                f"name {head!r} is ambiguous: matches {where}", (path,)))
            continue
        current = candidates[0]
        failed = False
        for segment in selector[1:]:
            matches = by_scope.get((current, segment), [])
            if not matches:
                diags.append(Diagnostic(
                    UNRESOLVED_NAME,
                    f"no element named {segment!r} inside {order[current][1]} "
                    f"(selector {'/'.join(selector)!r})",
                    (path,)))
                failed = True
                break
            if len(matches) > 1:
                where = ", ".join(order[m][1] for m in matches)
                diags.append(Diagnostic(
                    AMBIGUOUS_NAME, f"name {segment!r} is ambiguous within scope: {where}", (path,)))
                failed = True
                break
            current = matches[0]
        if failed:
            continue
        if current >= i:
            diags.append(Diagnostic(
                FORWARD_REFERENCE,
                f"selector {'/'.join(selector)!r} points forward to {order[current][1]}; "
                f"referents must appear before the ref",
                (path, order[current][1])))
            continue
        refs[i] = current
    return refs, diags
