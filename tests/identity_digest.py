"""Digests of everything a compile produces, for byte-identity checks.

Usage, from the root of the checkout whose compiler should be digested:

    PYTHONPATH=src python3 tests/identity_digest.py

Documents come from this file's own ``perfbench/workloads.py`` (seed 7:
the first 400 service-mix, 80 editor-session and 30 bulk-deep documents),
so pointing ``PYTHONPATH`` at another checkout's ``src`` digests that
compiler on the same inputs. For every document the digest covers the
SVG, the scene dump, the rendered diagnostics, the scenegraph's
``write_log`` and the per-node layout call counts. One sha256 line is
printed per workload, then one over all three; a change that means to
keep output identical must print the same lines as its parent.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bluefish  # noqa: E402
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
    try:
        graph = bluefish.build_scenegraph(tree, table, registry)
    except bluefish.BluefishError:
        return []
    bluefish.layout_document(graph, registry)
    return graph.write_log


def document_digest(data: bytes) -> bytes:
    scene, diags = bluefish.compile_source(data)
    h = hashlib.sha256()
    h.update("\n".join(d.render() for d in diags).encode())
    if scene is not None:
        h.update(bluefish.paint(scene))
        h.update(bluefish.dump_scene(scene))
        h.update(repr(sorted(scene.layout_calls.items())).encode())
    h.update(repr(write_log(data)).encode())
    return h.digest()


def main() -> None:
    print(f"bluefish from {Path(bluefish.__file__).resolve().parent}", file=sys.stderr)
    combined = hashlib.sha256()
    for name, count in DOCUMENTS.items():
        h = hashlib.sha256()
        for doc in itertools.islice(WORKLOADS[name].stream(SEED), count):
            h.update(document_digest(doc.data))
        print(f"{name} {h.hexdigest()}")
        combined.update(h.digest())
    print(f"combined {combined.hexdigest()}")


if __name__ == "__main__":
    main()
