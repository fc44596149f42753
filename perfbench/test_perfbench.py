"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import docgen  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from workloads import WORKLOADS, Builder, bulk_doc, make_doc, service_doc  # noqa: E402

import bluefish  # noqa: E402

ORACLES = verify.load_oracles(HERE.parent)


def _check(doc, dumps: bool = True):
    scene, diagnostics, svg, dump = run.answer(bluefish, doc.data, dumps)
    if doc.planted is not None:
        return verify.check_rejection(doc, scene, diagnostics)
    assert scene is not None, [d.render() for d in diagnostics]
    return verify.check_scene(ORACLES, doc, len(scene.nodes), svg,
                              dump if dump is not None else bluefish.dump_scene(scene))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_streams_are_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    first = [d.data for d in itertools.islice(workload.stream(7), 4)]
    again = [d.data for d in itertools.islice(workload.stream(7), 4)]
    other = [d.data for d in itertools.islice(workload.stream(8), 4)]
    assert first == again
    assert first != other
    assert workload.warmup(7).data == workload.warmup(7).data


def test_service_mix_matches_the_oracle_on_a_sample():
    docs = list(itertools.islice(WORKLOADS["service-mix"].stream(3), 30))
    assert any(d.planted for d in docs) and any(d.ref_free for d in docs)
    assert any(not d.ref_free and not d.planted for d in docs)
    for doc in docs:
        assert _check(doc) is None


def test_editor_versions_match_the_oracle_and_share_their_elements():
    docs = list(itertools.islice(WORKLOADS["editor-session"].stream(5), 12))
    for doc in docs:
        assert _check(doc, dumps=False) is None
        assert doc.unchanged is None or doc.unchanged > 0.99


def test_a_small_bulk_document_matches_the_oracle():
    rng = random.Random(11)
    doc = make_doc(bulk_doc(rng, 700))
    assert doc.depth > 40
    assert _check(doc) is None


@pytest.mark.parametrize("code", docgen.PLANTED_CODES)
def test_each_planted_error_yields_exactly_its_code(code):
    rng = random.Random(code)
    b = Builder(rng)
    root = docgen.plant_error(service_doc(rng, 80, ref_free=False, b=b), code, b)
    assert _check(make_doc(root, planted=code)) is None


def test_a_wrong_box_is_caught():
    rng = random.Random(2)
    doc = make_doc(service_doc(rng, 60, ref_free=True, b=Builder(rng, refs=False)))
    scene, _ = bluefish.compile_source(doc.data)
    dump = json.loads(bluefish.dump_scene(scene))
    dump["geometry"][0]["x"] += 0.5
    problem = verify.check_scene(ORACLES, doc, len(scene.nodes), bluefish.paint(scene),
                                 json.dumps(dump).encode())
    assert problem is not None and problem.startswith("mark 0")


def test_twins_drop_refs_and_unknown_refs_are_refused():
    rng = random.Random(4)
    b = Builder(rng)
    block = b.block(0, 1, kind="stackH", children=[b.mark("rect"), b.mark("circle")])
    twin = docgen.nested_twin({"kind": "group", "children": [block]})
    assert twin["children"][0]["kind"] == "stackH"
    assert not docgen.shape(twin)[3]
    with pytest.raises(ValueError):
        docgen.nested_twin({"kind": "stackV", "children": [{"kind": "ref", "select": "x"}]})


def test_tail_leaves_ten_samples_above_it():
    samples = [float(i) for i in range(100)]
    value, percentile = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == 90.0


def test_times_and_rates_are_scaled_by_the_machine_slowdown():
    assert run.at_reference_speed(10.0, "ms", 2.0) == 5.0
    assert run.at_reference_speed(3.0, "s", 2.0) == 1.5
    assert run.at_reference_speed(10.0, "1/s", 2.0) == 20.0
    assert run.at_reference_speed(10.0, "MB", 2.0) == 10.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert spec["paths"] == ["perfbench"]
