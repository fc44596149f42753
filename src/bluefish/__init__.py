"""Declarative diagram compiler.

Documents describe diagrams as marks composed by relations (stacks,
alignment, distribution, backgrounds, connectors); the engine lays them
out in a single pass over a compound scenegraph and renders
deterministic SVG. See the README for the document format.
"""

from .docformat import Element, parse_document, print_document, resolve_names, validate
from .engine import (
    LayoutRuntime,
    Registry,
    build_scenegraph,
    compile_source,
    expand_tree,
    layout_document,
    standard_registry,
)
from .errors import BluefishError, Diagnostic
from .geometry import TOLERANCE, Axis, PartialBBox, Translate, bbox_get
from .relations import ALIGNMENT_FIELDS, ElementKindSpec, measure_text
from .renderer import dump_scene, paint
from .scenegraph import Scenegraph

__version__ = "0.1.0"

__all__ = [
    "ALIGNMENT_FIELDS",
    "Axis",
    "BluefishError",
    "Diagnostic",
    "Element",
    "ElementKindSpec",
    "LayoutRuntime",
    "PartialBBox",
    "Registry",
    "Scenegraph",
    "TOLERANCE",
    "Translate",
    "bbox_get",
    "build_scenegraph",
    "compile_source",
    "dump_scene",
    "expand_tree",
    "layout_document",
    "measure_text",
    "paint",
    "parse_document",
    "print_document",
    "resolve_names",
    "standard_registry",
    "validate",
    "__version__",
]
