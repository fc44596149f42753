"""Generation-0 collections per compiled document, accepted and rejected.

Usage, from the root of the checkout whose compiler should be counted:

    PYTHONPATH=src python3 tests/gc_count.py

Documents come from this file's own ``perfbench/workloads.py``: the
seed-17 bulk-deep stream, read in order until it has given 10 documents
that compile to a scene (accepted) and 10 that compile to diagnostics
only (rejected). Before each document it runs ``gc.collect()``, so no
document pays for another's garbage, and a ``gc.callbacks`` hook counts
the generation-0 collections that start while ``compile_source`` runs on
it. One warm-up compile comes first and is not counted.

It prints one line for the accepted and one for the rejected documents:
how many it counted and the mean collections per document. The count
follows allocations of container objects, so it changes only where a
change makes or frees tracked objects, and it does not depend on the
machine's speed. It changes nothing under ``perfbench/`` and is not a
test, so pytest does not collect it.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bluefish  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 17
PER_OUTCOME = 10


def main() -> None:
    print(f"bluefish from {Path(bluefish.__file__).resolve().parent}", file=sys.stderr)
    workload = WORKLOADS["bulk-deep"]
    bluefish.compile_source(workload.warmup(SEED).data)
    collections = 0

    def count(phase: str, info: dict) -> None:
        nonlocal collections
        if phase == "start" and info["generation"] == 0:
            collections += 1

    counts: dict[str, list[int]] = {"accepted": [], "rejected": []}
    for doc in workload.stream(SEED):
        gc.collect()
        collections = 0
        gc.callbacks.append(count)
        try:
            scene, _ = bluefish.compile_source(doc.data)
        finally:
            gc.callbacks.remove(count)
        outcome = counts["rejected" if scene is None else "accepted"]
        if len(outcome) < PER_OUTCOME:
            outcome.append(collections)
        if all(len(c) == PER_OUTCOME for c in counts.values()):
            break
    for outcome, c in counts.items():
        print(f"{outcome}: {len(c)} documents, {sum(c) / len(c):.1f} generation-0 collections each")


if __name__ == "__main__":
    main()
