"""Digests of everything a compile produces, for identity checks.

Usage, from the root of the checkout whose compiler should be digested:

    PYTHONPATH=src python3 tests/identity_digest.py

Documents come from this file's own ``perfbench/workloads.py`` (seed 7:
the first 400 service-mix, 80 editor-session and 30 bulk-deep documents),
so pointing ``PYTHONPATH`` at another checkout's ``src`` digests that
compiler on the same inputs. For every document the digest covers the
SVG, the scene dump, the rendered diagnostics, the scenegraph's
``write_log`` and the per-node layout call counts.

Two sets of lines are printed, each one per workload and then one over
all three. The raw lines digest the output bytes as written; a change
that means to keep output byte-identical must print the same raw lines as
its parent. The content lines digest the SVG with each line's leading
whitespace stripped and the dump re-encoded canonically after
``json.loads``, so a change of layout whitespace or JSON spelling alone
keeps them; a change of output format that means to keep content must
print the same content lines as its parent.

Then one ``part`` line per part over all three workloads: the raw SVG,
the raw dump, the diagnostics, the layout call counts, the write_log and
the write_log sorted. A change declared to alter one part shows that it
leaves the others byte-identical by printing the parent's lines for
them; ``write_log_sorted`` stays when only the order of writes changes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bluefish  # noqa: E402
from bluefish.engine import layout_document  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
DOCUMENTS = {"service-mix": 400, "editor-session": 80, "bulk-deep": 30}


def write_log(data: bytes) -> list[tuple[str, str, str]]:
    """The write log of one document's layout, up to its first layout error."""
    registry = bluefish.standard_registry()
    try:
        tree = bluefish.expand_tree(bluefish.parse_document(data), registry)
    except bluefish.BluefishError:
        return []
    diags = bluefish.validate(tree, registry)
    table, name_diags = bluefish.resolve_names(tree)
    if any(d.severity == "error" for d in diags + name_diags):
        return []
    graph = bluefish.build_scenegraph(tree, table, registry)
    layout_document(graph)
    return graph.write_log


PARTS = ("svg", "dump", "diagnostics", "layout_calls", "write_log", "write_log_sorted")


def document_digests(data: bytes) -> tuple[bytes, bytes, dict[str, bytes]]:
    """The raw and the content digest of one document's compile, and its bytes per part.

    A part the compile does not reach (the SVG, dump and layout calls of
    a rejected document) is empty.
    """
    scene, diags = bluefish.compile_source(data)
    raw, content = hashlib.sha256(), hashlib.sha256()
    parts = dict.fromkeys(PARTS, b"")

    def both(part: bytes) -> None:
        raw.update(part)
        content.update(part)

    parts["diagnostics"] = "\n".join(d.render() for d in diags).encode()
    both(parts["diagnostics"])
    if scene is not None:
        svg, dump = bluefish.paint(scene), bluefish.dump_scene(scene)
        raw.update(svg)
        content.update(b"\n".join(line.lstrip() for line in svg.split(b"\n")))
        raw.update(dump)
        content.update(json.dumps(json.loads(dump), sort_keys=True, separators=(",", ":")).encode())
        parts["svg"], parts["dump"] = svg, dump
        parts["layout_calls"] = repr(sorted(scene.layout_calls.items())).encode()
        both(parts["layout_calls"])
    log = write_log(data)
    parts["write_log"] = repr(log).encode()
    parts["write_log_sorted"] = repr(sorted(log)).encode()
    both(parts["write_log"])
    return raw.digest(), content.digest(), parts


def main() -> None:
    print(f"bluefish from {Path(bluefish.__file__).resolve().parent}", file=sys.stderr)
    lines = {"": {}, "content ": {}}  # label -> workload -> sha256
    by_part = {part: hashlib.sha256() for part in PARTS}  # over all workloads
    for name, count in DOCUMENTS.items():
        raw, content = hashlib.sha256(), hashlib.sha256()
        for doc in itertools.islice(WORKLOADS[name].stream(SEED), count):
            raw_digest, content_digest, parts = document_digests(doc.data)
            raw.update(raw_digest)
            content.update(content_digest)
            for part, h in by_part.items():
                h.update(hashlib.sha256(parts[part]).digest())
        lines[""][name], lines["content "][name] = raw, content
    for label, by_workload in lines.items():
        combined = hashlib.sha256()
        for name, h in by_workload.items():
            print(f"{label}{name} {h.hexdigest()}")
            combined.update(h.digest())
        print(f"{label}combined {combined.hexdigest()}")
    for part, h in by_part.items():
        print(f"part {part} {h.hexdigest()}")


if __name__ == "__main__":
    main()
