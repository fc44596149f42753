"""The JSON document format: parsing, validation, and name resolution.

A document is ``{"bluefish": 1, "root": <element>}``. Elements carry a
``kind``, an optional ``name``, a ``props`` object, and ``children``;
``ref`` elements instead carry ``select``. Parsing checks shape only;
``validate`` checks meaning against a kind registry and returns
diagnostics rather than raising, so every problem in a document is
reported in one pass. Validation only reads the tree: it matches path
data against ``geometry.PATH_DATA``, and what the data draws is left to
the build, which runs only for a document with no static error.

Names are scoped: an element's scope is the subtree of its nearest named
ancestor (the root for top-level names), and a name must be unique
within its scope. A single-segment selector matches against all names in
the document and is ambiguous if it matches twice; a path selector
resolves segment by segment, each step searching only the local scope of
the previous match, so relations can hide their internals behind one
public name. Referents must precede their refs in document order, and
a ref may not point at the relation that holds it or at an ancestor of
that relation.
"""

from __future__ import annotations

import itertools
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
    SELF_REFERENCE,
    UNRESOLVED_NAME,
    Diagnostic,
    DocumentSyntaxError,
    SchemaError,
)
from .geometry import PATH_DATA, PathData

FORMAT_VERSION = 1
_DOCUMENT_KEYS = {"bluefish", "root"}
_ELEMENT_KEYS = frozenset({"kind", "name", "props", "children", "select"})
TOO_DEEP = "document nests too deeply"
#: The deepest an element may sit: the root is at depth 1, and each child
#: or prop mark one deeper than its holder.
MAX_DEPTH = 256
#: The most elements a document may hold, prop marks included, as parsed
#: and as composites expand it: 25 times the benchmark's largest (about
#: 2,000). A stack of 50,000 rects compiles, paints and dumps in 1.5 s and
#: 150 MB on one Xeon core; a composite that doubles at each level would
#: otherwise run until memory runs out.
MAX_ELEMENTS = 50_000
TOO_MANY = f"document has more than {MAX_ELEMENTS} elements"
_MAX_NUMBER = sys.float_info.max
#: How many of an ambiguous name's matches a BF005 spells out; it counts
#: the rest, so that its message does not grow with the document.
_NAMED_MATCHES = 3
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


def place_path(place) -> str:
    """Spell an element's place as parse errors print it: ``root.children[1].props.background``.

    A place is None for the root, else a (holder's place, segment) pair
    whose segment is a child index or a prop key. Parsing and expansion
    carry places, so a path is spelled only for an error that prints it.
    """
    segments = []
    while place is not None:
        place, segment = place
        segments.append(f".children[{segment}]" if segment.__class__ is int else f".props.{segment}")
    segments.append("root")
    return "".join(reversed(segments))


def _element(kind, name, select, props, children, place, depth: int, nested) -> Element:
    """One element checked by the rules every element meets, parsed or expanded.

    The element keeps the ``props`` dict and ``children`` list it is
    handed and converts their values in place: a number becomes a float,
    and ``nested(value, place, depth)`` turns each prop mark and child
    into an element (``_parse_root``'s reader for a JSON object, and for an
    expansion's output a check that it is an ``Element``). So a caller
    hands over containers that nothing else holds. A bare-string
    ``select`` becomes a one-name selector. A JSON value is told by its
    class, so a bool is not a number.
    """
    if kind.__class__ is not str or not kind:
        raise SchemaError(place_path(place), "element requires a non-empty string 'kind'")
    if name is not None and (name.__class__ is not str or not name):
        raise SchemaError(place_path(place), "'name' must be a non-empty string")
    if select is not None:
        if select.__class__ is str:
            select = [select]
        elif select.__class__ is not list or not select or not all(s.__class__ is str and s for s in select):
            raise SchemaError(place_path(place), "'select' must be a string or a non-empty list of strings")
    if props.__class__ is not dict:
        raise SchemaError(place_path(place), "'props' must be an object")
    for key, value in props.items():
        cls = value.__class__
        if cls is float or cls is int:
            if not -_MAX_NUMBER <= value <= _MAX_NUMBER:  # NaN, infinities, huge integers
                raise SchemaError(place_path((place, key)), "prop values must be finite numbers")
            if cls is int:
                props[key] = float(value)
        elif cls is str:
            bad = _NOT_XML_CHAR.search(value)
            if bad is not None:
                raise SchemaError(place_path((place, key)), f"SVG cannot carry {bad.group()!r} in a string")
        elif cls is dict or cls is Element:
            # element-valued prop: a mark the holder sizes
            props[key] = nested(value, (place, key), depth + 1)
        else:
            raise SchemaError(place_path((place, key)), "prop values must be numbers, strings, or elements")
    if children.__class__ is not list:
        raise SchemaError(place_path(place), "'children' must be a list")
    # a loop, not a comprehension, whose frame would count against the stack
    for i, child in enumerate(children):
        children[i] = nested(child, (place, i), depth + 1)
    return Element(kind, name, props, children, select)


def _parse_root(root: object) -> Element:
    """The root element and every element in it, counted against ``MAX_ELEMENTS``."""
    counted = itertools.count(1)

    def parse_element(raw: object, place, depth: int) -> Element:
        if depth > MAX_DEPTH:
            raise SchemaError("document", TOO_DEEP)
        if next(counted) > MAX_ELEMENTS:
            raise SchemaError("document", TOO_MANY)
        if raw.__class__ is not dict:
            raise SchemaError(place_path(place), f"element must be an object, got {type(raw).__name__}")
        if not _ELEMENT_KEYS.issuperset(raw):
            unknown = set(raw) - _ELEMENT_KEYS
            raise SchemaError(place_path(place), f"unknown element key(s): {', '.join(sorted(unknown))}")
        # the decoder's own containers, which nothing else holds; only an absent key gets a fresh one
        return _element(raw.get("kind"), raw.get("name"), raw.get("select"),
                        raw["props"] if "props" in raw else {},
                        raw["children"] if "children" in raw else [], place, depth, parse_element)

    return parse_element(root, None, 1)


def _built_element(value: object, place, depth: int) -> Element:
    if value.__class__ is not Element:
        raise SchemaError(place_path(place), f"element must be an Element, got {type(value).__name__}")
    return value


def check_expansion(el: Element, name: str | None, place, depth: int) -> Element:
    """A composite's expansion, checked as a parsed element is, named ``name``.

    The result is a new element that owns copies of ``el``'s props dict
    and children list, so ``el`` is read and never changed: a composite
    may return one template every time. A container of another class is
    handed on as it is, for ``_element`` to refuse. Its children and prop
    marks are the expansion's own, each checked only to be an ``Element``,
    so the caller checks each of them in turn when it reaches it.
    """
    props, children = el.props, el.children
    return _element(el.kind, name, el.select,
                    dict(props) if props.__class__ is dict else props,
                    list(children) if children.__class__ is list else children,
                    place, depth, _built_element)


def parse_document(data: bytes | str) -> Element:
    """Parse document bytes into an element tree.

    Raises DocumentSyntaxError (with line and column) for malformed
    JSON, SchemaError (with a document path) for structural problems,
    including more than ``MAX_ELEMENTS`` elements or one nested deeper
    than ``MAX_DEPTH``, and for string props SVG cannot carry.

    ``json.loads`` and the element walk recurse once or twice per level.
    When the caller's own frames leave too little of the recursion limit
    for that, parsing runs once more in a fresh thread, whose count
    starts at zero, so the limit a document meets is ``MAX_DEPTH`` (or,
    for JSON nested too deep to read at all, ``sys.getrecursionlimit()``),
    never the caller's stack.
    """
    try:
        return _parse(data)
    except RecursionError:
        pass
    import threading  # here, so that only a document nested this deep pays for the import

    outcome: list = []
    thread = threading.Thread(target=_parse_into, args=(data, outcome))
    thread.start()
    thread.join()
    (result,) = outcome
    if isinstance(result, Exception):
        raise result
    return result


def _parse_into(data: bytes | str, outcome: list) -> None:
    """Append what parsing ``data`` returns or raises to ``outcome``, for the calling thread."""
    try:
        outcome.append(_parse(data))
    except RecursionError:
        outcome.append(SchemaError("document", TOO_DEEP))
    except Exception as exc:
        outcome.append(exc)


def _parse(data: bytes | str) -> Element:
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
    except ValueError as exc:
        # the one other error decoding raises: an integer literal too long for int()
        limit = sys.get_int_max_str_digits()
        raise SchemaError("document", f"an integer has more than {limit} digits") from exc
    if not isinstance(raw, dict):
        raise SchemaError("document", "document must be a JSON object")
    unknown = set(raw) - _DOCUMENT_KEYS
    if unknown:
        raise SchemaError("document", f"unknown document key(s): {', '.join(sorted(unknown))}")
    if raw.get("bluefish") != FORMAT_VERSION:
        raise SchemaError("document", f"'bluefish' must be {FORMAT_VERSION}, got {raw.get('bluefish')!r}")
    if "root" not in raw:
        raise SchemaError("document", "document requires a 'root' element")
    return _parse_root(raw["root"])


# --- paths and traversal ------------------------------------------------------


def preorder(tree: Element) -> tuple[list[Element], list[int | None], list[int]]:
    """Every element in pre-order, as three parallel lists: elements, parent indices, child indices.

    A parent index is a position in these same lists, None for the root,
    whose child index is 0. The lists are new and the caller's to keep;
    the elements are the tree's own. No path is spelled: a walk path is
    readable, ``group/stackV[1]:a/rect[0]``, one ``walk_step`` per level,
    and ``_walk_path`` spells one where a diagnostic prints it.
    """
    elements: list[Element] = [tree]
    parents: list[int | None] = [None]
    indices: list[int] = [0]
    # (position, the rest of its children) for each parent still being walked
    stack = [(0, enumerate(tree.children))] if tree.children else []
    while stack:
        parent, rest = stack[-1]
        for i, el in rest:
            elements.append(el)
            parents.append(parent)
            indices.append(i)
            if el.children:
                stack.append((len(elements) - 1, enumerate(el.children)))
                break
        else:
            stack.pop()
    return elements, parents, indices


def walk_step(el: Element, parent: int | None, i: int) -> str:
    """The element's own segment of its walk path: ``kind[index]``, with ``:name`` where named."""
    segment = el.kind if parent is None else f"{el.kind}[{i}]"
    return f"{segment}:{el.name}" if el.name else segment


def _walk_path(order: tuple[list[Element], list[int | None], list[int]], index: int) -> str:
    """The walk path of the element at ``index`` of ``preorder``'s lists."""
    elements, parents, indices = order
    segments = []
    while index is not None:
        parent = parents[index]
        segments.append(walk_step(elements[index], parent, indices[index]))
        index = parent
    return "/".join(reversed(segments))


# --- validation ---------------------------------------------------------------


def _check_props(el: Element, spec, kinds: dict, problems: list[tuple[str, str]], suffix: str) -> None:
    """Add (path suffix, message) to ``problems`` for each prop ``el`` gives that its kind rejects."""
    checks = spec.prop_checks
    for prop, value in el.props.items():
        check = checks.get(prop)
        if check is None:
            problems.append((suffix, f"{el.kind} does not accept prop {prop!r}"))
            continue
        expected, options, nonnegative, positive = check
        cls = value.__class__
        if expected == "number":
            if cls is not float:
                problems.append((suffix, f"prop {prop!r} of {el.kind} must be a number"))
        elif expected == "element":
            if cls is Element:
                _check_sized_mark(value, f"{suffix}.props.{prop}", prop, kinds, problems)
            else:
                problems.append((suffix, f"prop {prop!r} of {el.kind} must be an element"))
        elif cls is not str:
            problems.append((suffix, f"prop {prop!r} of {el.kind} must be a string"))
        elif expected == "path" and PATH_DATA.fullmatch(value) is None:
            try:
                PathData.read(value)  # for its message; the build reads data that matches
            except ValueError as exc:
                problems.append((suffix, f"invalid path data: {exc}"))
        if cls is str:
            if options is not None and value not in options:
                problems.append((
                    suffix,
                    f"prop {prop!r} of {el.kind} must be one of {', '.join(options)}; "
                    f"got {value!r} (BadEnumValue)"))
        elif cls is float:
            if nonnegative and value < 0:
                problems.append((suffix, f"prop {prop!r} of {el.kind} must be non-negative"))
            if positive and value <= 0:
                problems.append((suffix, f"prop {prop!r} of {el.kind} must be positive"))


def _check_sized_mark(mark: Element, suffix: str, prop: str, kinds: dict,
                      problems: list[tuple[str, str]]) -> None:
    """Check the mark an element-valued prop holds; the holder supplies its sizes."""
    spec = kinds.get(mark.kind)
    if spec is None or not spec.sized_by_holder:
        options = ", ".join(sorted(k for k, s in kinds.items() if s.sized_by_holder))
        problems.append((suffix, f"{prop} mark must be one of {options}; got {mark.kind!r}"))
        return
    if mark.children or mark.name or mark.select:
        problems.append((suffix, f"{prop} mark must be a bare mark element"))
    _check_props(mark, spec, kinds, problems, suffix)


def _arity(kind: str, relation: str, want: int, count: int) -> str:
    """The message for a kind given the wrong number of children."""
    return f"{kind} requires {relation} {want} {'child' if want == 1 else 'children'}, got {count}"


def validate(tree: Element, registry) -> list[Diagnostic]:
    """Check the tree against a kind registry. Returns all problems found.

    The tree is one ``expand_tree`` returned, so every kind in it is
    checked as it stands: a composite kind has already been replaced.
    """
    diags: list[Diagnostic] = []
    kinds = registry.kinds
    order = preorder(tree)
    problems: list[tuple[str, str]] = []  # (path suffix, message) for the element in hand
    for index, el in enumerate(order[0]):
        spec = kinds.get(el.kind)
        if spec is None:
            problems.append(("", f"unknown element kind {el.kind!r} (UnknownKind)"))
        elif el.kind == "ref":
            if el.children:
                problems.append(("", "ref elements cannot have children (RefWithChildren)"))
            if el.name is not None:
                problems.append(("", "ref elements cannot be named"))
            if el.select is None:
                problems.append(("", "ref requires 'select' (MissingProp)"))
            if el.props:
                problems.append(("", "ref elements take no props"))
        else:
            if el.select is not None:
                problems.append(("", f"'select' is only valid on ref elements, not {el.kind}"))
            for prop in spec.required_props:
                if prop not in el.props:
                    problems.append(("", f"{el.kind} requires prop {prop!r} (MissingProp)"))
            if el.props:
                _check_props(el, spec, kinds, problems, "")
            count = len(el.children)
            if spec.is_mark and count:
                problems.append(("", f"mark kind {el.kind!r} cannot have children"))
            if spec.min_children is not None and count < spec.min_children:
                problems.append(("", _arity(el.kind, "at least", spec.min_children, count)))
            if spec.exact_children is not None and count != spec.exact_children:
                problems.append(("", _arity(el.kind, "exactly", spec.exact_children, count)))
        if problems:
            path = _walk_path(order, index)
            diags.extend(Diagnostic(SCHEMA_ERROR, message, (path + suffix,))
                         for suffix, message in problems)
            problems.clear()
    return diags


# --- name resolution ----------------------------------------------------------


def _selector_fault(order, ref: int, selector: list[str], segment: str, scope: int | None,
                    matches) -> Diagnostic:
    """Why ``segment``, looked up in ``scope`` (None: the whole document), matched no one element."""
    inside = "" if scope is None else f" inside {_walk_path(order, scope)}"
    if not matches:
        return Diagnostic(UNRESOLVED_NAME, f"no element named {segment!r}{inside} "
                          f"(selector {'/'.join(selector)!r})", (_walk_path(order, ref),))
    where = ", ".join(_walk_path(order, m) for m in matches[:_NAMED_MATCHES])
    if len(matches) > _NAMED_MATCHES:
        where += f" and {len(matches) - _NAMED_MATCHES} more"
    return Diagnostic(AMBIGUOUS_NAME, f"name {segment!r} is ambiguous"
                      f"{': matches' if scope is None else ' within scope:'} {where}",
                      (_walk_path(order, ref),))


def resolve_names(tree: Element) -> tuple[dict[int, int], list[Diagnostic]]:
    """Resolve every ref's selector to a referent element.

    Returns the resolved refs, keyed by pre-order element index (ref
    index -> referent index), and any diagnostics (unresolved, ambiguous,
    duplicate, forward references, or a ref to its holder or an ancestor
    of it). Resolution always runs to the end so all problems surface
    together.
    """
    order = preorder(tree)
    elements, parents, _ = order
    refs: dict[int, int] = {}
    diags: list[Diagnostic] = []

    def path(index: int) -> str:
        return _walk_path(order, index)

    # scope owner of an element = nearest named ancestor (root scope: -1)
    scope_of: list[int] = []
    by_scope: dict[tuple[int, str], list[int]] = {}
    by_name: dict[str, list[int]] = {}
    ref_indices: list[int] = []
    for i, el in enumerate(elements):
        parent = parents[i]
        if parent is None:
            owner = -1
        else:
            owner = parent if elements[parent].name else scope_of[parent]
        scope_of.append(owner)
        name = el.name
        if el.kind == "ref":
            if el.select:
                ref_indices.append(i)
        elif name:
            key = (owner, name)
            same = by_scope.get(key)
            if same is None:
                by_scope[key] = [i]
            else:
                diags.append(Diagnostic(
                    DUPLICATE_NAME,
                    f"name {name!r} is already used in this scope (DuplicateNameInScope)",
                    (path(i), path(same[0]))))
                same.append(i)
            named = by_name.get(name)
            if named is None:
                by_name[name] = [i]
            else:
                named.append(i)

    for i in ref_indices:
        selector = elements[i].select
        current = None  # the first segment is looked up document-wide, each later one in its scope
        for segment in selector:
            matches = by_name.get(segment, ()) if current is None else by_scope.get((current, segment), ())
            if len(matches) != 1:
                diags.append(_selector_fault(order, i, selector, segment, current, matches))
                break
            current = matches[0]
        else:
            if current >= i:
                diags.append(Diagnostic(
                    FORWARD_REFERENCE,
                    f"selector {'/'.join(selector)!r} points forward to {path(current)}; "
                    f"referents must appear before the ref",
                    (path(i), path(current))))
                continue
            # an ancestor precedes its descendants in pre-order, so the climb
            # from the holder lands on the referent exactly when it is the
            # holder or an ancestor of it
            holder = up = parents[i]
            while up > current:
                up = parents[up]
            if up == current:
                diags.append(Diagnostic(
                    SELF_REFERENCE,
                    f"ref under {path(holder)!r} points at {path(current)!r}, "
                    f"which would make the relation contain itself",
                    (path(i), path(current))))
            else:
                refs[i] = current
    return refs, diags
