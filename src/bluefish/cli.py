"""Command-line front end: render and check documents.

Exit codes: 0 success (warnings allowed), 1 the document has errors,
2 usage or IO problems. Diagnostics go to stderr, artifacts to files,
and nothing interleaves, so the tool composes in scripts.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .engine import compile_source
from .errors import ERROR, Diagnostic
from .renderer import dump_scene, paint
from .scenegraph import Scenegraph

_SEVERITY_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m"}
_RESET = "\x1b[0m"


def _use_color(stream) -> bool:
    if os.environ.get("BLUEFISH_NO_COLOR"):
        return False
    return bool(getattr(stream, "isatty", lambda: False)())


def _report(diagnostics: list[Diagnostic], stream=None) -> None:
    stream = stream if stream is not None else sys.stderr
    color = _use_color(stream)
    for diag in diagnostics:
        text = diag.render()
        if color:
            prefix = f"{diag.severity}[{diag.code}]"
            text = text.replace(prefix, f"{_SEVERITY_COLORS.get(diag.severity, '')}{prefix}{_RESET}", 1)
        print(text, file=stream)


def _compile(source: Path) -> tuple[Scenegraph | None, int]:
    """Read and compile a document, reporting its diagnostics.

    Returns the scene and exit code 0, or None and 2 when the file
    cannot be read or 1 when the document has errors.
    """
    try:
        data = source.read_bytes()
    except OSError as exc:
        print(f"cannot read {source}: {exc.strerror or exc}", file=sys.stderr)
        return None, 2
    scene, diagnostics = compile_source(data)
    _report(diagnostics)
    if scene is None or any(d.severity == ERROR for d in diagnostics):
        return None, 1
    return scene, 0


def cmd_render(args: argparse.Namespace) -> int:
    source = Path(args.input)
    scene, code = _compile(source)
    if scene is None:
        return code
    out = Path(args.out) if args.out else source.with_suffix(".svg")
    try:
        out.write_bytes(paint(scene))
        if args.dump:
            out.with_suffix(".scene.json").write_bytes(dump_scene(scene))
    except OSError as exc:
        print(f"cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    scene, code = _compile(Path(args.input))
    if scene is not None:
        print("ok")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bluefish", description="Compile declarative diagram documents to SVG.")
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="render a document to SVG")
    render.add_argument("input", help="document file (JSON)")
    render.add_argument("--out", help="output SVG path (default: input with .svg)")
    render.add_argument("--dump", action="store_true",
                        help="also write the canonical scene dump (.scene.json)")
    render.set_defaults(run=cmd_render)

    check = sub.add_parser("check", help="validate and lay out a document, writing nothing")
    check.add_argument("input", help="document file (JSON)")
    check.set_defaults(run=cmd_check)

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
