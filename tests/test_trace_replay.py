"""The benchmark's traced replay stays a faithful copy of the pipeline.

``perfbench/stages.py`` replays ``compile_source``, ``paint`` and
``dump_scene`` stage by stage through the public stage functions, and its
spans are the benchmark's per-layer metrics. This test replays a few
benchmark documents and checks that the replay still runs every stage,
dumps what ``compile_source`` gives, and rejects a planted error, so the
per-layer metrics stay honest while the stage functions change.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bluefish  # noqa: E402
import stages  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def _documents():
    """The first ten service-mix documents (the tenth carries a planted error) and a small bulk-deep one."""
    service = list(itertools.islice(WORKLOADS["service-mix"].stream(SEED), 10))
    assert [doc.planted is not None for doc in service] == [False] * 9 + [True]
    bulk = WORKLOADS["bulk-deep"].warmup(SEED)
    return [pytest.param(doc, id=f"service-mix-{i}") for i, doc in enumerate(service)] + [
        pytest.param(bulk, id="bulk-deep-warmup")]


@pytest.mark.parametrize("doc", _documents())
def test_the_replay_runs_every_stage_and_dumps_what_compile_source_does(doc):
    tracer = stages.Tracer()
    replay = tracer.replay(bluefish, doc.data, 0, dumps=True)
    # each stage that ran has one span, in the pipeline's order
    spans = [span.name for span in tracer.spans[replay.span + 1:]]
    assert spans == list(stages.STAGE_METRICS)[:len(spans)]
    scene, diagnostics = bluefish.compile_source(doc.data)
    if doc.planted is not None:
        assert scene is None
        assert doc.planted in {d.code for d in diagnostics}
        assert replay.rejected_at is not None
        assert replay.scene is None
        return
    assert replay.rejected_at is None
    assert spans == list(stages.STAGE_METRICS)
    assert replay.dump == bluefish.dump_scene(scene)
    assert replay.svg == bluefish.paint(scene)
