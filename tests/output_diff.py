"""Where two compilers' outputs differ, and by how much.

Usage, from the root of a checkout:

    python3 tests/output_diff.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is the ``src`` directory of a checkout. Both compilers
compile the documents that ``identity_digest.py`` digests (the same seed
and counts, from this file's own ``perfbench/workloads.py``), each in
its own subprocess, so the two ``bluefish`` packages never share an
interpreter. For each part (svg, dump, diagnostics, write_log) it prints
how many documents differ and the part's total bytes over all documents
on each side (parent -> change), then the first differing document
(workload and index) and the largest absolute difference between
corresponding numbers of the SVG and of the dump. Numbers correspond
when the two texts are the same once every number is blanked; a
document whose texts differ otherwise is counted as reshaped.

``identity_digest.py`` says whether two compilers agree; this says where
they do not, for a change that alters output on purpose and must say how
much.
"""

from __future__ import annotations

import itertools
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PARTS = ("svg", "dump", "diagnostics", "write_log")
NUMBERED = ("svg", "dump")
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def emit() -> None:
    """Write (workload, index, parts) for every identity document to stdout, pickled one by one."""
    # imported here, so that only a compiler subprocess imports bluefish
    from identity_digest import DOCUMENTS, SEED, WORKLOADS, document_digests

    out = sys.stdout.buffer
    for name, count in DOCUMENTS.items():
        for index, doc in enumerate(itertools.islice(WORKLOADS[name].stream(SEED), count)):
            parts = document_digests(doc.data)[2]
            pickle.dump((name, index, {part: parts[part] for part in PARTS}), out)
    out.flush()


def _compiler(src: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(Path(src).resolve()), str(TESTS))))
    return subprocess.Popen([sys.executable, "-c", "import output_diff; output_diff.emit()"],
                            env=env, stdout=subprocess.PIPE)


def _numbers_apart(a: bytes, b: bytes) -> float | None:
    """The largest difference between corresponding numbers, None if the texts differ otherwise."""
    if _NUMBER.sub(b"#", a) != _NUMBER.sub(b"#", b):
        return None
    return max((abs(float(x) - float(y)) for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b))),
               default=0.0)


def main(parent_src: str, change_src: str) -> int:
    differ = dict.fromkeys(PARTS, 0)
    sizes = {part: [0, 0] for part in PARTS}  # part -> [parent bytes, change bytes]
    largest = dict.fromkeys(NUMBERED, 0.0)
    reshaped = dict.fromkeys(NUMBERED, 0)
    first = None
    documents = 0
    # leaving the block closes both pipes and waits for both compilers
    with _compiler(parent_src) as parent, _compiler(change_src) as change:
        while True:
            try:
                name, index, old_parts = pickle.load(parent.stdout)
                new_parts = pickle.load(change.stdout)[2]
            except EOFError:
                break
            documents += 1
            for part in PARTS:
                sizes[part][0] += len(old_parts[part])
                sizes[part][1] += len(new_parts[part])
                if old_parts[part] == new_parts[part]:
                    continue
                differ[part] += 1
                first = first or f"{name} #{index}"
                if part in NUMBERED:
                    apart = _numbers_apart(old_parts[part], new_parts[part])
                    if apart is None:
                        reshaped[part] += 1
                    else:
                        largest[part] = max(largest[part], apart)
    if parent.returncode or change.returncode:
        print("a compiler failed", file=sys.stderr)
        return 2
    for part in PARTS:
        old, new = sizes[part]
        print(f"{part}: {differ[part]} of {documents} documents differ, {old} -> {new} bytes")
    print(f"first difference: {first or 'none'}")
    for part in NUMBERED:
        print(f"{part}: largest number difference {largest[part]:g}, {reshaped[part]} reshaped")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
